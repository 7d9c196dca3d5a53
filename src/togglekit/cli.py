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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:   # NaN fails too
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _resolve_sequence(spec: str, deg: bool = False) -> seqmodel.RotationSequence:
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            return seqmodel.from_json_dict(json.load(fh), deg)
    return catalog.named(spec)


def _resolve_dd(spec: str, tau: float = 1.0) -> ddsim.DDSequence:
    if spec.startswith("@"):
        return ddsim.load_dd(spec[1:])
    return catalog.named_dd(spec, tau)


def _seq_json(s: seqmodel.RotationSequence) -> str:
    return json.dumps(seqmodel.to_json_dict(s), indent=2) + "\n"


def _build_parser() -> _Parser:
    p = _Parser(prog="togglekit", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("catalog", help="list or show the named sequences")
    pc.add_argument("action", choices=["list", "show"])
    pc.add_argument("name", nargs="?")
    pc.add_argument("--dd", action="store_true", help="delay-interleaved entries")

    for cmd, hlp in (("dual", "toggling image of a sequence"),
                     ("convert24", "convert a symmetric pi-inverter to pi/2 steps (balanced "
                                   "only for a broadband input, which is not checked)")):
        pp = sub.add_parser(cmd, help=hlp)
        pp.add_argument("seq")
        pp.add_argument("--deg", action="store_true")
        pp.add_argument("--out")

    pt = sub.add_parser("toggle", help="iterated toggling map")
    pt.add_argument("seq")
    pt.add_argument("--m", type=int, default=1)
    pt.add_argument("--deg", action="store_true")
    pt.add_argument("--out")

    py = sub.add_parser("cycle", help="smallest m restoring the sequence")
    py.add_argument("seq")
    py.add_argument("--max-m", type=int, default=12)
    py.add_argument("--deg", action="store_true")

    pq = sub.add_parser("profile", help="inversion profile CSV over beta'")
    pq.add_argument("seq")
    pq.add_argument("--xi", choices=sorted(_XI), default="z")
    pq.add_argument("--deg", action="store_true")
    pq.add_argument("--out")

    pj = sub.add_parser("trajectory", help="probe-vector path through the sequence")
    pj.add_argument("seq")
    pj.add_argument("--beta-scale", type=_finite_float, default=1.0)
    pj.add_argument("--v0", choices=sorted(_XI), default="z")
    pj.add_argument("--deg", action="store_true")
    pj.add_argument("--out")

    pg = sub.add_parser("glide", help="glide-reflection deviation of a dual pair")
    pg.add_argument("seq_a")
    pg.add_argument("seq_b")
    pg.add_argument("--xi", choices=sorted(_XI), default="z")
    pg.add_argument("--deg", action="store_true")

    pn = sub.add_parser("centroid", help="centroid of the plain or toggled axes")
    pn.add_argument("seq")
    pn.add_argument("--frame", type=int, choices=[0, 1], default=1)
    pn.add_argument("--deg", action="store_true")

    po = sub.add_parser("orders", help="average-rotation orders of the toggled axes")
    po.add_argument("seq")
    po.add_argument("--beta-scale", type=_finite_float, default=1.0)
    po.add_argument("--deg", action="store_true")

    pk = sub.add_parser("kappa", help="rank-lambda decoupling coefficients")
    pk.add_argument("ddseq")
    pk.add_argument("--lambda", dest="lam", type=int, required=True,
                    help=f"rank, an integer in 0..{averaging.MAX_WIGNER_RANK}")
    pk.add_argument("--beta-scale", type=_finite_float, default=1.0)
    pk.add_argument("--tau", type=_positive_float, default=1.0)
    pk.add_argument("--json", action="store_true")
    pk.add_argument("--out")

    pm = sub.add_parser("ddmap", help="centroid map over (omega, beta scale)")
    pm.add_argument("ddseq")
    pm.add_argument("--tau", type=_positive_float, default=1.0)
    pm.add_argument("--amp", type=_finite_float, help="field amplitude, default 1/total-time")
    pm.add_argument("--json", action="store_true")
    pm.add_argument("--out")

    ps = sub.add_parser("search", help="balanced-sequence synthesis on an axis set")
    ps.add_argument("--axes", choices=sorted(search.BUILTIN_AXIS_SETS), required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--m", type=int, required=True)
    ps.add_argument("--target", required=True,
                    help="equatorial-pi, axis-cycling, or 'ax,ay,az:angle'")
    ps.add_argument("--balance", choices=["full", "z"], default="full")
    ps.add_argument("--dedupe", choices=["global_z", "axis_set_rotations", "none"],
                    default="global_z")
    ps.add_argument("--out")

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
    axis = np.asarray([float(t) for t in axis_part.split(",")])
    norm = float(np.linalg.norm(axis))
    if not 0.0 < norm < math.inf:   # NaN fails too
        raise _UsageError(f"target axis must be finite and nonzero, got {axis_part!r}")
    angle = float(angle_part)
    if not math.isfinite(angle):
        raise _UsageError(f"target angle must be finite, got {angle_part!r}")
    return rotcore.from_axis_angle(axis / norm, angle)


def _run(args) -> int:
    if args.command == "catalog":
        if args.action == "list":
            for name in catalog.list_names(dd=args.dd):
                sys.stdout.write(name + "\n")
            return 0
        if not args.name:
            raise _UsageError("catalog show needs a sequence name")
        if args.dd:
            dd = catalog.named_dd(args.name)
            sys.stdout.write(json.dumps(ddsim.dd_to_json_dict(dd), indent=2) + "\n")
        else:
            sys.stdout.write(_seq_json(catalog.named(args.name)))
        return 0

    if args.command == "dual":
        s = _resolve_sequence(args.seq, args.deg)
        _emit(_seq_json(toggling.toggling_map(s)), args.out)
        return 0

    if args.command == "toggle":
        s = _resolve_sequence(args.seq, args.deg)
        _emit(_seq_json(toggling.toggling_map_iter(s, args.m)), args.out)
        return 0

    if args.command == "cycle":
        s = _resolve_sequence(args.seq, args.deg)
        m = toggling.cyclicity_order(s, args.max_m)
        sys.stdout.write(("none" if m is None else str(m)) + "\n")
        return 0

    if args.command == "profile":
        s = _resolve_sequence(args.seq, args.deg)
        _emit(profiles.profile_csv(s, _XI[args.xi]), args.out)
        return 0

    if args.command == "trajectory":
        s = _resolve_sequence(args.seq, args.deg)
        beta_prime = args.beta_scale * s.uniform_beta()
        path = profiles.trajectory(s, _XI[args.v0], beta_prime)
        lines = ["step,vx,vy,vz"]
        lines += [f"{i}," + ",".join(_fmt(c) for c in v) for i, v in enumerate(path)]
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    if args.command == "glide":
        a = _resolve_sequence(args.seq_a, args.deg)
        b = _resolve_sequence(args.seq_b, args.deg)
        plus, minus = profiles.glide_reflection_deviations(a, b, e_xi=_XI[args.xi])
        branch = "pi+b'" if plus <= minus else "pi-b'"
        sys.stdout.write(json.dumps({
            "deviation": min(plus, minus), "branch": branch,
            "plus_branch": plus, "minus_branch": minus}) + "\n")
        return 0

    if args.command == "centroid":
        s = _resolve_sequence(args.seq, args.deg)
        axes = s.axes if args.frame == 0 else toggling.toggling_map(s).axes
        c = averaging.centroid(axes)
        sys.stdout.write(json.dumps({
            "frame": args.frame, "cx": c[0], "cy": c[1], "cz": c[2],
            "norm": float(np.linalg.norm(c))}) + "\n")
        return 0

    if args.command == "orders":
        s = _resolve_sequence(args.seq, args.deg)
        scaled = seqmodel.scale_betas(s, args.beta_scale)
        orders = averaging.average_orders(toggling.toggling_map(scaled).axes)
        sys.stdout.write(json.dumps({
            "beta_scale": args.beta_scale,
            "order1": list(orders.order1), "order2": list(orders.order2),
            "order3": list(orders.order3)}) + "\n")
        return 0

    if args.command == "kappa":
        dd = _resolve_dd(args.ddseq, args.tau)
        table = averaging.kappa(dd, args.lam, args.beta_scale)
        if args.json:
            _emit(json.dumps(table.to_json_dict(), indent=2) + "\n", args.out)
        else:
            lines = ["lambda,mu,mu_prime,re,im"]
            lines += [f"{lam},{mu},{mup},{_fmt(re)},{_fmt(im)}"
                      for lam, mu, mup, re, im in table.csv_rows()]
            _emit("\n".join(lines) + "\n", args.out)
        return 0

    if args.command == "ddmap":
        dd = _resolve_dd(args.ddseq, args.tau)
        cm = ddsim.centroid_map(dd, amp=args.amp)
        text = json.dumps(ddsim.map_to_json_dict(cm), indent=2) + "\n" if args.json \
            else ddsim.map_to_csv(cm)
        _emit(text, args.out)
        return 0

    if args.command == "search":
        axis_set = search.BUILTIN_AXIS_SETS[args.axes]()
        spec = search.SearchSpec(axis_set, args.n, args.m,
                                 _target_from_string(args.target),
                                 "full" if args.balance == "full" else "z_only")
        results = search.dedupe(search.enumerate_balanced(spec), args.dedupe)
        lines = [json.dumps(seqmodel.to_json_dict(s)) for s in results]
        _emit("".join(line + "\n" for line in lines), args.out)
        return 0

    if args.command == "convert24":
        s = _resolve_sequence(args.seq, args.deg)
        _emit(_seq_json(profiles.convert_m2_to_m4(s)), args.out)
        return 0

    if args.command == "verify":
        results = acceptance.run_all(verbose=True)
        return 0 if all(r.passed for r in results) else 2

    raise _UsageError(f"unknown command {args.command!r}")


_PARSER: _Parser | None = None   # built on the first call; parsing leaves it unchanged


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
        return _run(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:
        return 0
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
