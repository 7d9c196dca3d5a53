"""cli workload: togglekit.cli.main(argv) called in-process, stdout captured.

Sixty-two commands per round cover every subcommand except ``verify``.  Inputs
are catalog names and ``@file.json`` sequences that ``build`` writes from
the seed; some commands write their result with ``--out``.  Searches stay
at n <= 4.  Bands on 2 CPUs (share of the round):
  0-66 %    3-7 ms       catalog, dual, toggle, cycle, trajectory, centroid,
                         orders, kappa tables, the smallest searches
  66-85 %   8-25 ms      glide, the other searches, ddmap of short sequences
  85-95 %   60-90 ms     profile, ddmap kdd20
  95-100 %  0.12-0.33 s  convert24
The median sits in the first band and the 90th percentile in the third.
Every output is parsed and checked against the oracle in the first round;
later rounds must write byte-identical text.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import oracle
from common import Op, close, need
from togglekit import catalog, cli
from wl_analysis import check_conversion, dressed_cell
from wl_synthesis import brute_force, check_dedupe, check_results

EQUATORIAL = {"pi5": 5, "pi7": 7, "pi9": 9}
UNIFORM = {"m3": (5, 3), "m4": (6, 4), "m5": (7, 5), "m6": (4, 6)}
PROBES = {"x": np.array([1.0, 0.0, 0.0]), "y": np.array([0.0, 1.0, 0.0]),
          "z": np.array([0.0, 0.0, 1.0])}
P34_TARGET = f"1,1,1:{2.0 * math.pi / 3.0!r}"

# file-backed arguments are written "@name" here and resolved in build()
COMMANDS = [
    "catalog list", "catalog list --dd", "catalog show p34", "catalog show bprime(7)",
    "catalog show kdd20 --dd", "catalog show udd(6) --dd",
    "dual f1", "dual @pi5", "dual @pi9 --out", "dual nb1_tpg", "dual @deg --deg",
    "toggle p34 --m 3", "toggle @m4 --m 2", "toggle @m3 --m 3 --out", "toggle @m5 --m 1",
    "toggle f1 --m 2",
    "cycle p34", "cycle @m4", "cycle @m5 --max-m 8", "cycle derome", "cycle @m6",
    "trajectory f1", "trajectory @pi7 --beta-scale 1.1 --v0 x",
    "trajectory p46 --v0 y --out",
    "centroid f1", "centroid @m3 --frame 0", "centroid @pi9", "centroid derome",
    "orders p34", "orders @m4", "orders f1 --beta-scale 1.1", "orders @deg --deg",
    "kappa vmas --lambda 2", "kappa xy4 --lambda 1", "kappa @dd --lambda 1",
    "kappa whh4 --lambda 2 --beta-scale 0.9",
    "glide f1 nb1_tpg", "glide bprime(5) nprime(5)", "glide @pi5 @dual5", "glide @pi9 @dual9",
    "kappa kdd20 --lambda 3 --json", "kappa @dd --lambda 2 --json --out",
    f"search --axes tetrahedron --n 4 --m 3 --target {P34_TARGET}",
    "search --axes diagonal_quad --n 4 --m 3 --target 1,0,0:3.141592653589793",
    "search --axes cube --n 4 --m 3 --target axis-cycling",
    "search --axes octahedron --n 4 --m 4 --target equatorial-pi --balance z",
    "search --axes octahedron --n 3 --m 2 --target equatorial-pi --balance z --dedupe none",
    "search --axes tetrahedron --n 4 --m 3 --target axis-cycling --balance z"
    " --dedupe axis_set_rotations --out",
    "ddmap xy4",
    "profile f1", "profile bprime(11)", "profile @pi7 --out", "profile @pi5 --xi x",
    "ddmap kdd20 --json", "ddmap @dd --out", "profile nb1_tpg --xi y",
    "profile @pi9", "profile t1 --xi x",
    "convert24 bprime(3)", "ddmap udd(8) --json --out",
    "convert24 bprime(5)", "convert24 bprime(7) --out",
]


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _write_inputs(rng, workdir) -> dict:
    """Seeded input files; returns name -> path."""
    files = {}

    def dump(name, d):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(d))
        files[name] = path

    for name, n in EQUATORIAL.items():
        phases = rng.uniform(0.0, 2.0 * math.pi, n)
        dump(name, {"name": name, "elements": [{"beta": math.pi, "phase": p} for p in phases]})
        if name in ("pi5", "pi9"):
            axes = oracle.toggled_axes([oracle.phase_axis(p) for p in phases], math.pi)
            dump("dual" + name[2:], {"name": "dual", "elements": [
                {"beta": math.pi, "axis": list(a)} for a in axes]})
    for name, (n, m) in UNIFORM.items():
        axes = rng.normal(size=(n, 3))
        dump(name, {"name": name, "cycle_order": m, "elements": [
            {"beta": 2.0 * math.pi / m, "axis": list(a / np.linalg.norm(a))} for a in axes]})
    dump("deg", {"name": "deg", "elements": [
        {"beta": 180.0, "phase": p} for p in rng.uniform(0.0, 360.0, 5)]})
    phases = rng.uniform(0.0, 2.0 * math.pi, 6)
    dump("dd", {"pulses": {"name": "ddp", "elements": [
        {"beta": math.pi, "phase": p} for p in phases]},
        "delays": list(rng.uniform(0.2, 1.5, 7))})
    return files


def _sequence(spec: str, deg: bool = False):
    """(betas, axes) of a sequence argument: a catalog name or @file."""
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            d = json.load(fh)
        betas, axes = oracle.sequence_from_json(d)
        if deg:
            betas = np.radians(betas)
            axes = np.array([oracle.phase_axis(math.radians(el["phase"]))
                             for el in d["elements"]])
        return betas, axes
    s = catalog.named(spec)
    return s.betas, s.axes


def _dd(spec: str):
    """(betas, axes, delays) of a delay-interleaved argument."""
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            d = json.load(fh)
        betas, axes = oracle.sequence_from_json(d["pulses"])
        return betas, axes, np.asarray(d["delays"], dtype=float)
    dd = catalog.named_dd(spec)
    return dd.pulses.betas, dd.pulses.axes, dd.delays


def _kappa_matrix(text: str, as_json: bool, lam: int) -> np.ndarray:
    dim = 2 * lam + 1
    if as_json:
        d = json.loads(text)
        need(d["lambda"] == lam, "lambda")
        cells = np.array(d["cells_row_major"])
    else:
        rows = [line.split(",") for line in text.splitlines()[1:]]
        cells = np.array([[float(r[3]), float(r[4])] for r in rows])
    need(cells.shape == (dim * dim, 2), "kappa table size")
    return (cells[:, 0] + 1j * cells[:, 1]).reshape(dim, dim)


def _kappa1_oracle(betas, axes, delays, scale) -> np.ndarray:
    """Rank-1 kappa: T^dag (sum_j tau_j U_j^T) T / sum tau, T the spherical basis."""
    r2 = math.sqrt(2.0)
    t = np.array([[1 / r2, 0, -1 / r2], [-1j / r2, 0, -1j / r2], [0, 1, 0]])
    u = oracle.prefix_products(axes, scale * betas)
    avg = np.einsum("j,jab->ba", delays, u) / delays.sum()
    return t.conj().T @ avg @ t


def _map_values(text: str, as_json: bool):
    if as_json:
        d = json.loads(text)
        om, sc = np.array(d["omegas"]), np.array(d["beta_scales"])
        return om, sc, np.array(d["cells_row_major"]).reshape(om.size, sc.size)
    lines = text.splitlines()
    sc = np.array([float(x) for x in lines[0].split(",")[1:]])
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return rows[:, 0], sc, rows[:, 1:]


def _check_search(text: str, argv) -> None:
    verts = oracle.AXIS_SETS[_flag(argv, "--axes")]
    m = int(_flag(argv, "--m"))
    target = _flag(argv, "--target")
    if target in ("equatorial-pi", "axis-cycling"):
        target = target.replace("-", "_")
    else:
        axis, angle = target.split(":")
        a = np.array([float(x) for x in axis.split(",")])
        target = oracle.rodrigues(a / np.linalg.norm(a), float(angle))
    balance = "z_only" if _flag(argv, "--balance") == "z" else "full"
    lines = text.splitlines()
    need(lines, "no search results")
    betas, axes = zip(*(oracle.sequence_from_json(json.loads(line)) for line in lines))
    check_results(np.array(betas), np.array(axes), m, verts, balance, target)
    raw = brute_force(verts, len(axes[0]), 2.0 * math.pi / m, target, balance)
    check_dedupe(raw, axes, _flag(argv, "--dedupe", "global_z"))


def _check(argv, text: str) -> None:
    """Check one command's output text against the oracle."""
    cmd, deg = argv[0], "--deg" in argv
    if cmd == "catalog":
        if argv[1] == "list":
            names = set(text.split())
            want = {"xy4", "udd(n)", "vmas"} if "--dd" in argv else \
                {"f1", "p34", "derome", "bprime(n[,k])", "nprime(n[,k])"}
            need(want <= names, f"missing {want - names}")
        elif "--dd" in argv:
            d = json.loads(text)
            betas, axes = oracle.sequence_from_json(d["pulses"])
            delays = np.array(d["delays"])
            dd = catalog.named_dd(argv[2])
            close(axes, dd.pulses.axes, 1e-12, "pulse axes")
            close(delays, dd.delays, 0.0, "delays")
            need(np.all(delays >= 0.0) and len(delays) == len(axes) + 1, "delay layout")
        else:
            betas, axes = oracle.sequence_from_json(json.loads(text))
            close(axes, catalog.named(argv[2]).axes, 1e-12, "catalog axes")
            u = oracle.net(axes, betas)
            if argv[2] == "p34":
                need(oracle.meets_target(u, "axis_cycling"), "p34 does not cycle the axes")
            else:
                need(oracle.meets_target(u, "equatorial_pi"), "not an equatorial pi inverter")
                need(oracle.symmetry_class(axes) == "symmetric", "bprime is not symmetric")
        return
    if cmd in ("dual", "toggle"):
        betas, axes = _sequence(argv[1], deg)
        got_b, got = oracle.sequence_from_json(json.loads(text))
        close(got_b, betas, 1e-12, "flip angles")
        k = 1 if cmd == "dual" else int(_flag(argv, "--m"))
        close(got, oracle.toggled_axes_iter(axes, betas, k), 1e-10, f"M^{k} s")
        return
    if cmd == "cycle":
        betas, axes = _sequence(argv[1])
        order = oracle.cycle_order(axes, betas, int(_flag(argv, "--max-m", 12)))
        want = "none" if order is None else str(order)
        need(text.strip() == want, f"cycle {text.strip()}, oracle {want}")
        return
    if cmd == "trajectory":
        betas, axes = _sequence(argv[1])
        v0 = PROBES[_flag(argv, "--v0", "z")]
        u = oracle.prefix_products(axes, float(_flag(argv, "--beta-scale", 1.0)) * betas)
        rows = np.array([[float(x) for x in line.split(",")[1:]]
                         for line in text.splitlines()[1:]])
        close(rows, u @ v0, 1e-12, "trajectory")
        return
    if cmd == "centroid":
        betas, axes = _sequence(argv[1])
        if _flag(argv, "--frame", "1") == "1":
            axes = oracle.toggled_axes(axes, betas)
        d = json.loads(text)
        close([d["cx"], d["cy"], d["cz"]], axes.mean(axis=0), 1e-12, "centroid")
        return
    if cmd == "orders":
        betas, axes = _sequence(argv[1], deg)
        toggled = oracle.toggled_axes(axes, float(_flag(argv, "--beta-scale", 1.0)) * betas)
        d = json.loads(text)
        close(d["order1"], oracle.order1(toggled), 1e-12, "order1")
        close(d["order2"], oracle.order2(toggled), 1e-12, "order2")
        return
    if cmd == "kappa":
        lam = int(_flag(argv, "--lambda"))
        kap = _kappa_matrix(text, "--json" in argv, lam)
        need(np.max(np.abs(kap)) <= 1.0 + 1e-12, "|kappa| > 1")
        scale = float(_flag(argv, "--beta-scale", 1.0))
        if lam == 1:
            close(kap, _kappa1_oracle(*_dd(argv[1]), scale), 1e-12, "rank-1 kappa")
        if argv[1] == "vmas" and scale == 1.0:
            close(kap[lam], np.zeros(2 * lam + 1), 1e-10, "vmas row mu=0 at nominal")
        return
    if cmd == "glide":
        d = json.loads(text)
        need(d["deviation"] < 1e-9, f"glide deviation {d['deviation']:.2e}")
        return
    if cmd == "profile":
        betas, axes = _sequence(argv[1])
        xi = PROBES[_flag(argv, "--xi", "z")]
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in text.splitlines()[1:]])
        need(rows.shape == (721, 6), "profile size")
        need(abs(rows[0, 1] - 1.0) < 1e-12, "q(0) != 1")
        nominal = oracle.net(axes, betas)
        for bp, q, vx, vy, vz, err in rows[::40]:
            u = oracle.net(axes, (bp / betas[0]) * betas)
            close([vx, vy, vz], u @ xi, 1e-10, "final vector")
            need(abs(q - xi @ u @ xi) < 1e-10, "q differs from the oracle")
            need(abs(err - math.degrees(oracle.residual_angle(nominal, u))) < 1e-6,
                 "err_deg differs from the oracle")
        return
    if cmd == "ddmap":
        betas, axes, delays = _dd(argv[1])
        om, sc, values = _map_values(text, "--json" in argv)
        need(values.shape == (25, 21), "map shape")
        need(np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-12), "cell outside [0, 1]")
        for i, j in ((0, 0), (12, 10), (24, 20)):
            want = dressed_cell(delays, axes, betas, om[i], 1.0 / delays.sum(), sc[j])
            need(abs(values[i, j] - want) < 1e-10, f"cell ({i}, {j}) differs")
        return
    if cmd == "search":
        _check_search(text, argv)
        return
    if cmd == "convert24":
        betas, axes = oracle.sequence_from_json(json.loads(text))
        check_conversion(axes, betas, len(_sequence(argv[1])[1]))
        return
    raise ValueError(f"no check for {cmd}")


def _make_op(line: str, files: dict, out_path) -> Op:
    argv = []
    for tok in line.split():
        argv.append("@" + str(files[tok[1:]]) if tok.startswith("@") else tok)
    if "--out" in argv:
        argv.insert(argv.index("--out") + 1, str(out_path))

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        written = ""
        if "--out" in argv:
            written = out_path.read_text(encoding="utf-8")
            out_path.unlink()   # so a later call that writes nothing cannot pass
        return buf.getvalue(), written

    def check(out):
        stdout, written = out
        if "--out" in argv:
            need(stdout == "", "--out also wrote to stdout")
        _check(argv, written or stdout)

    return Op(line, call, check, lambda out: out)


def build(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng(seed)
    files = _write_inputs(rng, workdir)
    ops = [_make_op(line, files, workdir / f"out{i}.txt") for i, line in enumerate(COMMANDS)]
    return [ops[i] for i in rng.permutation(len(ops))]


def layer_counts(outputs) -> dict:
    """Bytes written to stdout and --out files in one round."""
    return {"cli.bytes_out": sum(len(o[0].encode()) + len(o[1].encode())
                                 for o in outputs if o is not None)}


def warm() -> None:
    for line in ("catalog list", "catalog show f1", "dual f1", "toggle f1 --m 2", "cycle p34",
                 "trajectory f1", "centroid f1", "orders p34", "kappa vmas --lambda 2",
                 "glide f1 nb1_tpg", "search --axes tetrahedron --n 4 --m 3 --target"
                 " axis-cycling", "ddmap xy4", "profile f1", "convert24 bprime(3)"):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(line.split())
