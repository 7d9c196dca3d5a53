"""Command-line surface.  Every analysis is exposed as a subcommand that
emits deterministic text (17 significant digits, newline endings), so runs
with identical inputs and flags are byte-identical.

Exit codes: 0 ok, 1 usage error, 2 verification failure, 3 I/O error.
Sequence arguments take a catalog name like ``f1`` or ``nprime(5)``, or
``@path.json`` against the shared JSON schema.  Angles in input files are
radians unless ``--deg`` is given; output phases are radians in [0, 2pi).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import (acceptance, averaging, catalog, ddsim, profiles, rotcore,
               search, seqmodel, toggling)

_XI = {"x": rotcore.E_X, "y": rotcore.E_Y, "z": rotcore.E_Z}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None


def _positive_float(text: str) -> float:
    value = _number(text)
    if not 0.0 < value < math.inf:   # NaN fails too
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _count(text: str) -> int:
    """A loop length or element count, at most 2**20: toggling f1 2**20 times
    takes about 25 s on a 2-vCPU VM, and a count far above that would not return."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value > catalog.MAX_ELEMENTS:
        raise argparse.ArgumentTypeError(
            f"must be at most 2**20 = {catalog.MAX_ELEMENTS}, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    value = _number(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _resolve_sequence(spec: str, deg: bool = False) -> seqmodel.RotationSequence:
    if spec.startswith("@"):
        return seqmodel.load_sequence(spec[1:], deg)
    return catalog.named(spec)


def _resolve_dd(spec: str, tau: float = 1.0) -> ddsim.DDSequence:
    if spec.startswith("@"):
        return ddsim.load_dd(spec[1:])
    return catalog.named_dd(spec, tau)


def _json_document(obj, indent: int | None = 2) -> str:
    return json.dumps(obj, indent=indent) + "\n"


def _build_parser() -> _Parser:
    p = _Parser(prog="togglekit", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    seq = _Parser(add_help=False)
    seq.add_argument("seq")
    seq.add_argument("--deg", action="store_true")
    dd = _Parser(add_help=False)
    dd.add_argument("ddseq")
    dd.add_argument("--tau", type=_positive_float, default=1.0)
    dd.add_argument("--json", action="store_true")
    out = _Parser(add_help=False)
    out.add_argument("--out")
    xi = _Parser(add_help=False)
    xi.add_argument("--xi", choices=sorted(_XI), default="z")

    pc = sub.add_parser("catalog", help="list or show the named sequences")
    pc.add_argument("action", choices=["list", "show"])
    pc.add_argument("name", nargs="?")
    pc.add_argument("--dd", action="store_true", help="delay-interleaved entries")

    sub.add_parser("dual", parents=[seq, out], help="toggling image of a sequence")
    sub.add_parser("convert24", parents=[seq, out],
                   help="convert a symmetric pi-inverter to pi/2 steps (balanced "
                        "only for a broadband input, which is not checked)")
    pt = sub.add_parser("toggle", parents=[seq, out], help="iterated toggling map")
    pt.add_argument("--m", type=_count, default=1)
    py = sub.add_parser("cycle", parents=[seq], help="smallest m restoring the sequence")
    py.add_argument("--max-m", type=_count, default=12)
    sub.add_parser("profile", parents=[seq, xi, out], help="inversion profile CSV over beta'")
    pj = sub.add_parser("trajectory", parents=[seq, out],
                        help="probe-vector path through the sequence")
    pj.add_argument("--beta-scale", type=_finite_float, default=1.0)
    pj.add_argument("--v0", choices=sorted(_XI), default="z")
    pg = sub.add_parser("glide", parents=[xi], help="glide-reflection deviation of a dual pair")
    pg.add_argument("seq_a")
    pg.add_argument("seq_b")
    pg.add_argument("--deg", action="store_true")
    pn = sub.add_parser("centroid", parents=[seq], help="centroid of the plain or toggled axes")
    pn.add_argument("--frame", type=int, choices=[0, 1], default=1)
    po = sub.add_parser("orders", parents=[seq],
                        help="average-rotation orders of the toggled axes")
    po.add_argument("--beta-scale", type=_finite_float, default=1.0)

    pk = sub.add_parser("kappa", parents=[dd, out], help="rank-lambda decoupling coefficients")
    pk.add_argument("--lambda", dest="lam", type=int, required=True,
                    help=f"rank, an integer in 0..{averaging.MAX_WIGNER_RANK}")
    pk.add_argument("--beta-scale", type=_finite_float, default=1.0)
    pm = sub.add_parser("ddmap", parents=[dd, out], help="centroid map over (omega, beta scale)")
    pm.add_argument("--amp", type=_finite_float, help="field amplitude, default 1/total-time")
    ps = sub.add_parser("search", parents=[out], help="balanced-sequence synthesis on an axis set")
    ps.add_argument("--axes", choices=sorted(search.BUILTIN_AXIS_SETS), required=True)
    ps.add_argument("--n", type=_count, required=True)
    ps.add_argument("--m", type=_count, required=True)
    ps.add_argument("--target", required=True,
                    help="equatorial-pi, axis-cycling, or 'ax,ay,az:angle'")
    ps.add_argument("--balance", choices=["full", "z"], default="full")
    ps.add_argument("--dedupe", choices=["global_z", "axis_set_rotations", "none"],
                    default="global_z")
    sub.add_parser("verify", help="run the acceptance criteria")
    return p


def _target_from_string(text: str):
    if text == "equatorial-pi":
        return "equatorial_pi"
    if text == "axis-cycling":
        return "axis_cycling"
    axis_part, _, angle_part = text.partition(":")
    if not angle_part:
        raise _UsageError(f"cannot parse target {text!r}")
    try:
        axis = np.array([float(t) for t in axis_part.split(",")])
    except ValueError:
        axis = np.empty(0)
    if axis.shape != (3,):
        raise _UsageError(f"target axis needs 3 numbers, got {axis_part!r}")
    norm = float(np.linalg.norm(axis))
    if not 0.0 < norm < math.inf:   # NaN fails too
        raise _UsageError(f"target axis must be finite and nonzero, got {axis_part!r}")
    try:
        angle = float(angle_part)
    except ValueError:
        angle = math.nan
    if not math.isfinite(angle):
        raise _UsageError(f"target angle must be finite, got {angle_part!r}")
    return rotcore.from_axis_angle(axis / norm, angle)


def _run(args) -> str:
    """The document a subcommand prints, or writes to ``--out``."""
    if args.command == "catalog":
        if args.action == "list":
            return "".join(name + "\n" for name in catalog.list_names(dd=args.dd))
        if not args.name:
            raise _UsageError("catalog show needs a sequence name")
        if args.dd:
            return _json_document(ddsim.dd_to_json_dict(catalog.named_dd(args.name)))
        return _json_document(seqmodel.to_json_dict(catalog.named(args.name)))

    if args.command == "kappa":
        table = averaging.kappa(_resolve_dd(args.ddseq, args.tau), args.lam, args.beta_scale)
        if args.json:
            return _json_document(table.to_json_dict())
        return averaging.kappa_csv(table)

    if args.command == "ddmap":
        cm = ddsim.centroid_map(_resolve_dd(args.ddseq, args.tau), amp=args.amp)
        return _json_document(ddsim.map_to_json_dict(cm)) if args.json else ddsim.map_to_csv(cm)

    if args.command == "search":
        axis_set = search.BUILTIN_AXIS_SETS[args.axes]()
        spec = search.SearchSpec(axis_set, args.n, args.m,
                                 _target_from_string(args.target),
                                 "full" if args.balance == "full" else "z_only")
        results = search.dedupe(search.enumerate_balanced(spec), args.dedupe)
        return "".join(_json_document(seqmodel.to_json_dict(s), None) for s in results)

    if args.command == "glide":
        a = _resolve_sequence(args.seq_a, args.deg)
        b = _resolve_sequence(args.seq_b, args.deg)
        plus, minus = profiles.glide_reflection_deviations(a, b, e_xi=_XI[args.xi])
        branch = "pi+b'" if plus <= minus else "pi-b'"
        return _json_document({"deviation": min(plus, minus), "branch": branch,
                               "plus_branch": plus, "minus_branch": minus}, None)

    s = _resolve_sequence(args.seq, args.deg)   # every other command reads one sequence
    if args.command == "dual":
        return _json_document(seqmodel.to_json_dict(toggling.toggling_map(s)))

    if args.command == "toggle":
        return _json_document(seqmodel.to_json_dict(toggling.toggling_map_iter(s, args.m)))

    if args.command == "convert24":
        return _json_document(seqmodel.to_json_dict(profiles.convert_m2_to_m4(s)))

    if args.command == "cycle":
        m = toggling.cyclicity_order(s, args.max_m)
        return ("none" if m is None else str(m)) + "\n"

    if args.command == "profile":
        return profiles.profile_csv(s, _XI[args.xi])

    if args.command == "trajectory":
        path = profiles.trajectory(s, _XI[args.v0], args.beta_scale * s.uniform_beta())
        return seqmodel._csv_text("step,vx,vy,vz", [np.arange(len(path)), path])

    if args.command == "centroid":
        c = averaging.centroid(s.axes if args.frame == 0 else toggling.toggling_map(s).axes)
        return _json_document({"frame": args.frame, "cx": c[0], "cy": c[1], "cz": c[2],
                               "norm": float(np.linalg.norm(c))}, None)

    if args.command == "orders":
        scaled = seqmodel.scale_betas(s, args.beta_scale)
        orders = averaging.average_orders(toggling.toggling_map(scaled).axes)
        return _json_document({"beta_scale": args.beta_scale,
                               "order1": list(orders.order1), "order2": list(orders.order2),
                               "order3": list(orders.order3)}, None)

    raise _UsageError(f"unknown command {args.command!r}")


_PARSER: _Parser | None = None   # built on the first call; parsing leaves it unchanged


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
        if args.command == "verify":   # prints each criterion as it runs
            return 0 if all(r.passed for r in acceptance.run_all(verbose=True)) else 2
        _emit(_run(args), getattr(args, "out", None))
        return 0
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except BrokenPipeError:
        return 0
    except (OSError, json.JSONDecodeError) as exc:   # a JSONDecodeError is a ValueError too
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    except KeyError as exc:   # str() of a KeyError quotes its message
        sys.stderr.write(f"error: {exc.args[0]}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:   # numpy names the allocation; a bare MemoryError has no text
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
