"""CLI surface: subcommands, exit codes, deterministic output."""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from togglekit import cli

PHI = np.arccos(-0.25)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "f1" in out.split()
    assert "nprime(n[,k])" in out.split()


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "f1")
    assert code == 0
    d = json.loads(out)
    assert d["name"] == "f1" and len(d["elements"]) == 5


def test_catalog_show_dd(capsys):
    code, out, _ = run(capsys, "catalog", "show", "whh4", "--dd")
    assert code == 0
    d = json.loads(out)
    assert d["delays"] == [0.0, 1.0, 2.0, 1.0, 2.0]


def test_dual_nb1_phases(capsys):
    code, out, _ = run(capsys, "dual", "nb1_tpg")
    assert code == 0
    d = json.loads(out)
    got = np.array([e["phase"] for e in d["elements"]])
    want = np.array([PHI, 3 * PHI, 4 * PHI, 5 * PHI, 7 * PHI]) % (2 * np.pi)
    assert np.max(np.abs(np.angle(np.exp(1j * (got - want))))) < 1e-12
    assert all(0.0 <= p < 2 * np.pi for p in got)


def test_cycle_f1(capsys):
    code, out, _ = run(capsys, "cycle", "f1", "--max-m", "6")
    assert code == 0 and out.strip() == "2"


def test_cycle_generic_none(capsys, tmp_path):
    seq = {"name": "odd", "elements": [
        {"beta": 1.0, "phase": 0.0}, {"beta": 1.0, "phase": 1.0}]}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(seq))
    code, out, _ = run(capsys, "cycle", f"@{path}", "--max-m", "8")
    assert code == 0 and out.strip() == "none"


def test_profile_csv_endpoints(capsys):
    code, out, _ = run(capsys, "profile", "f1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 722
    q0 = float(lines[1].split(",")[1])
    qpi = float(lines[361].split(",")[1])
    assert abs(q0 - 1.0) < 1e-12 and abs(qpi + 1.0) < 1e-12


def test_trajectory(capsys):
    code, out, _ = run(capsys, "trajectory", "p34", "--beta-scale", "1", "--v0", "x")
    assert code == 0
    last = out.strip().split("\n")[-1].split(",")
    assert abs(float(last[2]) - 1.0) < 1e-12   # ends on e_y


def test_glide(capsys):
    code, out, _ = run(capsys, "glide", "bprime(5)", "nprime(5)")
    assert code == 0
    d = json.loads(out)
    assert d["deviation"] < 1e-9
    assert d["branch"] in ("pi+b'", "pi-b'")


def test_centroid_frames(capsys):
    code, out, _ = run(capsys, "centroid", "f1", "--frame", "1")
    assert code == 0 and json.loads(out)["norm"] < 1e-12
    code, out, _ = run(capsys, "centroid", "f1", "--frame", "0")
    assert code == 0 and json.loads(out)["norm"] > 0.3


def test_orders(capsys):
    code, out, _ = run(capsys, "orders", "f1")
    assert code == 0
    d = json.loads(out)
    assert np.linalg.norm(d["order1"]) < 1e-12


def test_kappa_csv(capsys):
    code, out, _ = run(capsys, "kappa", "vmas", "--lambda", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 26   # header + 25 entries
    # mu = 0 rows vanish at the nominal angle
    for line in lines[1:]:
        lam, mu, mup, re, im = line.split(",")
        if mu == "0":
            assert abs(float(re)) < 1e-12 and abs(float(im)) < 1e-12


def test_ddmap_csv(capsys):
    code, out, _ = run(capsys, "ddmap", "xy4")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 26   # header + 25 omegas
    assert len(lines[1].split(",")) == 22


def test_search_json_lines(capsys):
    code, out, _ = run(capsys, "search", "--axes", "tetrahedron", "--n", "4",
                       "--m", "3", "--target", "axis-cycling", "--dedupe", "none")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert len(rows) == 6
    assert all(len(r["elements"]) == 4 for r in rows)


def test_convert24(capsys):
    code, out, _ = run(capsys, "convert24", "bprime(5)")
    assert code == 0
    d = json.loads(out)
    assert len(d["elements"]) == 10


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "dual", "kdd20")
    _, out2, _ = run(capsys, "dual", "kdd20")
    assert out1 == out2


def test_file_input_and_deg_flag(capsys, tmp_path):
    seq = {"name": "halfpi", "elements": [{"beta": 180.0, "phase": 90.0}]}
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(seq))
    code, out, _ = run(capsys, "dual", f"@{path}", "--deg")
    assert code == 0
    d = json.loads(out)
    assert abs(d["elements"][0]["beta"] - np.pi) < 1e-12
    assert abs(d["elements"][0]["phase"] - np.pi / 2) < 1e-12


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "definitely-not-a-command")
    assert code == 1 and "usage error" in err


def test_unknown_sequence_exit_code(capsys):
    code, _, err = run(capsys, "dual", "nope")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("argv, err", [
    (["dual", "nope"], "error: unknown sequence 'nope'; see list_names()\n"),
    (["catalog", "show", "nosuch"], "error: unknown sequence 'nosuch'; see list_names()\n"),
    (["kappa", "nope", "--lambda", "1"],
     "error: unknown DD sequence 'nope'; see list_names(dd=True)\n"),
], ids=["dual", "catalog-show", "kappa"])
def test_unknown_name_prints_the_message_unquoted(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize("argv, dest", [
    (["toggle", "f1", "--m"], "m"), (["cycle", "f1", "--max-m"], "max_m"),
    (["search", "--axes", "cube", "--m", "3", "--target", "axis-cycling", "--n"], "n"),
], ids=["toggle", "cycle", "search"])
def test_counts_up_to_two_to_the_twenty_parse(argv, dest):
    assert getattr(cli._build_parser().parse_args([*argv, str(2 ** 20)]), dest) == 2 ** 20


def _pos(dest, choices=None, nargs=None):
    return dest, None, None, choices, nargs, nargs is None, argparse._StoreAction


def _opt(dest, default=None, type=None, choices=None, required=False):
    return dest, default, type, choices, None, required, argparse._StoreAction


def _flag(dest):
    return dest, False, None, None, 0, False, argparse._StoreTrueAction


XI = ["x", "y", "z"]
# every subcommand's arguments: positionals by name, in order, then options by
# their strings, as (dest, default, type, choices, nargs, required, action)
SURFACE = {
    "catalog": {"action": _pos("action", ["list", "show"]), "name": _pos("name", nargs="?"),
                "--dd": _flag("dd")},
    "dual": {"seq": _pos("seq"), "--deg": _flag("deg"), "--out": _opt("out")},
    "convert24": {"seq": _pos("seq"), "--deg": _flag("deg"), "--out": _opt("out")},
    "toggle": {"seq": _pos("seq"), "--m": _opt("m", 1, cli._count), "--deg": _flag("deg"),
               "--out": _opt("out")},
    "cycle": {"seq": _pos("seq"), "--max-m": _opt("max_m", 12, cli._count),
              "--deg": _flag("deg")},
    "profile": {"seq": _pos("seq"), "--xi": _opt("xi", "z", choices=XI), "--deg": _flag("deg"),
                "--out": _opt("out")},
    "trajectory": {"seq": _pos("seq"), "--beta-scale": _opt("beta_scale", 1.0, cli._finite_float),
                   "--v0": _opt("v0", "z", choices=XI), "--deg": _flag("deg"),
                   "--out": _opt("out")},
    "glide": {"seq_a": _pos("seq_a"), "seq_b": _pos("seq_b"),
              "--xi": _opt("xi", "z", choices=XI), "--deg": _flag("deg")},
    "centroid": {"seq": _pos("seq"), "--frame": _opt("frame", 1, int, [0, 1]),
                 "--deg": _flag("deg")},
    "orders": {"seq": _pos("seq"), "--beta-scale": _opt("beta_scale", 1.0, cli._finite_float),
               "--deg": _flag("deg")},
    "kappa": {"ddseq": _pos("ddseq"), "--lambda": _opt("lam", type=int, required=True),
              "--beta-scale": _opt("beta_scale", 1.0, cli._finite_float),
              "--tau": _opt("tau", 1.0, cli._positive_float), "--json": _flag("json"),
              "--out": _opt("out")},
    "ddmap": {"ddseq": _pos("ddseq"), "--tau": _opt("tau", 1.0, cli._positive_float),
              "--amp": _opt("amp", type=cli._finite_float), "--json": _flag("json"),
              "--out": _opt("out")},
    "search": {"--axes": _opt("axes", choices=["cube", "diagonal_quad", "octahedron",
                                               "tetrahedron"], required=True),
               "--n": _opt("n", type=cli._count, required=True),
               "--m": _opt("m", type=cli._count, required=True),
               "--target": _opt("target", required=True),
               "--balance": _opt("balance", "full", choices=["full", "z"]),
               "--dedupe": _opt("dedupe", "global_z",
                                choices=["global_z", "axis_set_rotations", "none"]),
               "--out": _opt("out")},
    "verify": {},
}


def test_every_subcommand_keeps_its_arguments():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(SURFACE)
    for cmd, sp in sub.choices.items():
        actions = [a for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        got = {"/".join(a.option_strings) or a.dest:
               (a.dest, a.default, a.type, a.choices, a.nargs, a.required, type(a))
               for a in actions}
        assert got == SURFACE[cmd], cmd
        assert [a.dest for a in actions if not a.option_strings] \
            == [k for k in SURFACE[cmd] if not k.startswith("-")], cmd


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "dual", "@does_not_exist.json")
    assert code == 3 and "i/o error" in err


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, out, _ = run(capsys, "profile", "f1", "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith("beta_prime,") and text.endswith("\n")


AXIS_SHAPES = {"axis-len2": [1, 0], "axis-len4": [1, 0, 0, 0], "axis-nested": [[1, 0, 0]],
               "axis-scalar": 1}


@pytest.mark.parametrize("argv, doc, says", [
    pytest.param(["orders", "@in"], {"elements": [{"beta": float("nan"), "phase": 0.0}]},
                 "flip angle", id="nan-beta"),
    pytest.param(["search", "--axes", "cube", "--n", "2", "--m", "3", "--target", "0,0,0:1"],
                 None, "target axis", id="zero-target-axis"),
    pytest.param(["search", "--axes", "cube", "--n", "2", "--m", "3", "--target", "nan,0,1:1"],
                 None, "target axis", id="nan-target-axis"),
    pytest.param(["search", "--axes", "cube", "--n", "12", "--m", "5", "--target", "axis-cycling",
                  "--balance", "z"], None, "candidate states", id="search-state-bound"),
    pytest.param(["ddmap", "xy4", "--tau", "0"], None, "--tau", id="zero-tau"),
    pytest.param(["kappa", "xy4", "--lambda", "1", "--tau", "inf"], None, "--tau", id="inf-tau"),
    *[pytest.param(["kappa", "xy4", "--lambda", lam], None, "rank must be an integer in 0..8",
                   id=f"kappa-lambda{lam}") for lam in ("-1", "9")],
    *[pytest.param([*argv, "--beta-scale", "1e308"], None, "scaled flip angles must be finite",
                   id=f"{argv[0]}-overflowing-beta-scale")
      for argv in (["kappa", "xy4", "--lambda", "1"], ["trajectory", "f1"])],
    *[pytest.param(argv, None, flag, id=f"{argv[0]}-{flag}-{value}")
      for argv, flag, value in (
          (["trajectory", "f1", "--beta-scale", "nan"], "--beta-scale", "nan"),
          (["orders", "f1", "--beta-scale", "inf"], "--beta-scale", "inf"),
          (["kappa", "xy4", "--lambda", "1", "--beta-scale", "nan"], "--beta-scale", "nan"),
          (["ddmap", "xy4", "--amp", "inf"], "--amp", "inf"),
          (["ddmap", "xy4", "--amp", "nan"], "--amp", "nan"),
          (["ddmap", "xy4", "--amp=-inf"], "--amp", "-inf"))],
    pytest.param(["dual", "@in"], {"elements": 5}, "'elements'", id="elements-not-a-list"),
    pytest.param(["dual", "@in", "--deg"], [{"beta": 180.0, "phase": 0.0}], "'elements'",
                 id="top-level-list"),
    pytest.param(["kappa", "@in", "--lambda", "1"], [1, 2], "JSON object", id="dd-top-level-list"),
    pytest.param(["kappa", "@in", "--lambda", "1"],
                 {"pulses": {"elements": [3]}, "delays": [1, 1]}, "'elements'",
                 id="dd-element-not-an-object"),
    *[pytest.param([cmd, "@in"], {"elements": [{"beta": np.pi, "axis": axis}]}, "3 components",
                   id=f"{cmd}-{tag}")
      for cmd in ("toggle", "centroid", "cycle") for tag, axis in AXIS_SHAPES.items()],
    pytest.param(["orders", "@in"], {"elements": [{"beta": np.pi, "axis": 1}]}, "3 components",
                 id="orders-axis-scalar"),
    *[pytest.param([cmd, "@in"], {"elements": [{"beta": np.pi, **el}]}, says,
                   id=f"{cmd}-{tag}")
      for cmd in ("cycle", "orders")
      for tag, el, says in (
          ("inf-phase", {"phase": float("inf")}, "phase inf is not finite"),
          ("inf-latitude", {"phase": 0.0, "latitude": float("-inf")},
           "latitude -inf is not finite"),
          ("overflowing-axis", {"axis": [1e300, 1e300, 0.0]}, "norm inf"))],
    *[pytest.param(["cycle", "@in", "--deg"], {"elements": [el]}, "malformed sequence: ",
                   id=f"deg-{tag}")
      for tag, el in (("string-beta", {"beta": "180", "phase": 0.0}),
                      ("string-phase", {"beta": 180.0, "phase": "inf"}),
                      ("null-latitude", {"beta": 180.0, "phase": 0.0, "latitude": None}))],
    # a delay that is not a JSON number is refused as in a sequence file
    *[pytest.param(argv, {"pulses": {"elements": [{"beta": np.pi, "phase": 0.0}] * 2},
                          "delays": [0.5, bad, 0.5]}, says, id=f"{argv[0]}-{bad}-delay")
      for argv in (["kappa", "@in", "--lambda", "1"], ["ddmap", "@in"])
      for bad, says in ((float("inf"), "delays must be finite"),
                        *[(v, "error: malformed sequence: delay must be a JSON number, "
                              f"got {v!r}\n") for v in (None, "nan", True)])],
    *[pytest.param(["search", "--axes", "cube", "--n", "2", "--m", "3", "--target", f"1,0,0:{a}"],
                   None, f"target angle must be finite, got '{a}'", id=f"{a}-target-angle")
      for a in ("inf", "-inf", "nan", "x")],
    *[pytest.param(["search", "--axes", "cube", "--n", "2", "--m", "3", "--target", f"{axis}:{a}"],
                   None, f"usage error: target axis needs 3 numbers, got '{axis}'\n",
                   id=f"target-axis-{axis or 'empty'}")
      for axis, a in (("1,1", "2"), ("1,0,0,0", "2"), ("", "1"), ("a,b,c", "1"))],
    *[pytest.param([*argv[:-1], str(count)], None,
                   f"usage error: argument {argv[-2]}: must be at most 2**20 = 1048576, "
                   f"got '{count}'\n", id=f"{argv[0]}{argv[-2]}-{count}")
      for argv in (["toggle", "f1", "--m", "1"], ["cycle", "f1", "--max-m", "1"],
                   ["search", "--axes", "cube", "--m", "3", "--target", "axis-cycling",
                    "--n", "1"],
                   ["search", "--axes", "cube", "--n", "2", "--target", "axis-cycling",
                    "--m", "1"])
      for count in (2 ** 20 + 1, 10 ** 20)],
    *[pytest.param(argv, None, f"usage error: argument {argv[-2]}: must be a number, got 'x'\n",
                   id=f"{argv[0]}{argv[-2]}-text")
      for argv in (["ddmap", "xy4", "--tau", "x"], ["trajectory", "f1", "--beta-scale", "x"],
                   ["ddmap", "xy4", "--amp", "x"])],
    # path counts above the bound, and a walk whose levels together pass 8 times it
    pytest.param(["search", "--axes", "octahedron", "--n", "400", "--m", "4",
                  "--target", "equatorial-pi", "--balance", "z"], None,
                 "error: search level 400 needs more candidate states than the bound 1048576\n",
                 id="search-path-count-bound"),
    pytest.param(["search", "--axes", "octahedron", "--n", "1048576", "--m", "4",
                  "--target", "equatorial-pi", "--balance", "z"], None,
                 "error: search walk needs 8388648 candidate states up to level 343, "
                 "above the bound 8388608 on all levels\n", id="search-walk-bound"),
    # a flip-angle sweep's coefficients cost n^2 steps: refused above 2**13 elements
    *[pytest.param(argv, None, "error: a flip-angle sweep takes at most 2**13 = 8192 elements, "
                               "got 8193\n", id=f"{argv[0]}-sweep-length-bound")
      for argv in (["profile", "nprime(8193)"], ["glide", "nprime(8193)", "bprime(8193)"])],
    pytest.param(["toggle", "f1", "--m", "1.5"], None,
                 "usage error: argument --m: must be an integer, got '1.5'\n", id="toggle-float-m"),
    # a catalog k beyond the float range, and one whose phases overflow
    pytest.param(["dual", f"bprime(5,{10 ** 400})"], None,
                 "error: k is beyond the float range, got an integer of 401 digits\n",
                 id="catalog-k-beyond-floats"),
    pytest.param(["dual", f"bprime(5,{10 ** 308})"], None,
                 "error: k takes a phase beyond the float range, got an integer of 309 digits\n",
                 id="catalog-k-overflowing-phases"),
    # a missing key is named like a value of the wrong type, not as a bare KeyError
    pytest.param(["cycle", "@in"], {"elements": [{"phase": 0.0}]},
                 "error: malformed sequence: beta must be a JSON number, got None\n",
                 id="missing-beta"),
    pytest.param(["cycle", "@in"], {"elements": [{"beta": np.pi}]},
                 "error: malformed sequence: phase must be a JSON number, got None\n",
                 id="missing-phase"),
    pytest.param(["kappa", "@in", "--lambda", "1"], {"delays": [1.0]}, "'elements'",
                 id="dd-missing-pulses"),
    pytest.param(["kappa", "@in", "--lambda", "1"],
                 {"pulses": {"elements": [{"beta": np.pi, "phase": 0.0}]}},
                 "one more delay than pulses", id="dd-missing-delays"),
    pytest.param(["kappa", "xy4", "--lambda", "1", "--tau", "1e-310"], None,
                 "delays must total a finite value", id="kappa-subnormal-total"),
    pytest.param(["ddmap", "xy4", "--tau", "1e-307"], None, "omega grid must be finite",
                 id="ddmap-overflowing-default-omegas"),
    pytest.param(["ddmap", "xy4", "--amp", "1e308"], None,
                 "field phases must be finite, got inf at amp 1e+308",
                 id="ddmap-overflowing-field-phases"),
    *[pytest.param(argv, {"pulses": {"elements": [{"beta": np.pi, "phase": 0.0}] * 2},
                          "delays": delays}, says, id=f"{argv[0]}-{tag}-total")
      for tag, delays in (("zero", [0.0, 0.0, 0.0]), ("overflowing", [1e308, 1e308, 0.0]))
      for argv, says in ((["kappa", "@in", "--lambda", "1"], "delays must total a finite value"),
                         (["ddmap", "@in"], "default omega grid and amp"))],
    # flip angles of 2pi/m, so that only the type of the cycle order is wrong
    pytest.param(["toggle", "@in"], {"cycle_order": 3.0, "elements": [
        {"beta": 2 * np.pi / 3, "phase": 0.0}]}, "cycle order must be an integer",
        id="float-cycle-order"),
    pytest.param(["toggle", "@in"], {"cycle_order": True, "elements": [
        {"beta": 2 * np.pi, "phase": 0.0}]}, "cycle order must be an integer",
        id="bool-cycle-order"),
    pytest.param(["toggle", "@in"], {"cycle_order": 10 ** 400, "elements": [
        {"beta": np.pi, "phase": 0.0}]},
        "error: cycle order is beyond the float range, got an integer of 401 digits\n",
        id="huge-cycle-order"),
    pytest.param(["toggle", "@in"], {"cycle_order": 10 ** 30, "elements": [
        {"beta": np.pi, "phase": 0.0}]},
        "error: cycle order an integer of 31 digits requires beta = 2pi/an integer of 31 digits, "
        "got 3.141592653589793\n", id="long-cycle-order"),
    # a name that is not a string, in a sequence file and in a DD file's pulses
    *[pytest.param(argv, doc, f"error: malformed sequence: name must be a JSON string, got {got}\n",
                   id=f"{argv[0]}-{tag}-name")
      for tag, name, got in (("infinite", 1e400, "inf"), ("object", {"a": 1}, "{'a': 1}"),
                             ("null", None, "None"))
      for argv, doc in (
          (["toggle", "@in", "--m", "0"],
           {"name": name, "elements": [{"beta": np.pi, "phase": 0.0}]}),
          (["kappa", "@in", "--lambda", "1"],
           {"pulses": {"name": name, "elements": [{"beta": np.pi, "phase": 0.0}]},
            "delays": [1.0, 1.0]}))],
])
def test_bad_input_exits_1_with_one_line(capsys, tmp_path, argv, doc, says):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    argv = [f"@{path}" if a == "@in" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert says in err


def _run_with_memory_limit(argv):
    """The CLI on ``argv`` in a child process with its address space capped
    at about 1.5 GB, so that an input allocating without bound fails there
    and not on the host."""
    limit = 1_500_000 * 1024
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "togglekit.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


@pytest.mark.parametrize("argv, says", [
    (["catalog", "show", "nest_bn(100001,100001)"],
     "error: nest_bn(100001,100001) has 10000200001 elements, more than 2**20 = 1048576\n"),
    (["dual", "nprime(1048577)"],
     "error: nprime(1048577) has 1048577 elements, more than 2**20 = 1048576\n"),
    (["catalog", "show", "udd(1048577)", "--dd"],
     "error: udd(1048577) has 1048577 elements, more than 2**20 = 1048576\n"),
    (["kappa", "udd(1048577)", "--lambda", "1"],
     "error: udd(1048577) has 1048577 elements, more than 2**20 = 1048576\n"),
    # within the length bound, but the map's grid x n toggled axes are refused before any
    # is allocated
    (["ddmap", "udd(1048576)"], "error: a centroid map of 25 x 21 cells over 1048576 pulses "
                                "toggles 550502400 axes, more than 2**22 = 4194304\n"),
], ids=["nest-bn", "nprime", "udd-show", "udd-kappa", "ddmap-memory"])
def test_oversized_input_exits_1_under_a_memory_limit(argv, says):
    proc = _run_with_memory_limit(argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(says)


def test_convert24_of_a_long_input_runs_under_a_memory_limit():
    # the output's mirror check pairs each axis with one partner, not with all 2n
    proc = _run_with_memory_limit(["convert24", "bprime(8001)"])
    assert proc.returncode == 0 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["name"] == "bprime(8001)->m4" and len(doc["elements"]) == 16002


def test_ddmap_at_the_axes_bound_runs_under_a_memory_limit():
    # 25 omegas x 21 scales x 7989 pulses = 4194225 toggled axes, within 2**22
    proc = _run_with_memory_limit(["ddmap", "udd(7989)"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 26


@pytest.mark.parametrize("argv", [["cycle", "@in"], ["kappa", "@in", "--lambda", "1"]],
                         ids=["sequence-file", "dd-file"])
def test_malformed_json_exits_3_with_one_line(capsys, tmp_path, argv):
    path = tmp_path / "in.json"
    path.write_text("{not json")
    code, out, err = run(capsys, *[f"@{path}" if a == "@in" else a for a in argv])
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("i/o error: ") and "Traceback" not in err


@pytest.mark.parametrize("element, says", [
    ({"beta": "180", "phase": 0.0}, "beta must be a JSON number, got '180'"),
    ({"beta": 180.0, "phase": True}, "phase must be a JSON number, got True"),
    ({"beta": 180.0, "phase": 0.0, "latitude": None}, "latitude must be a JSON number, got None"),
    ({"beta": 180.0, "axis": [1.0, "0", 0.0]}, "axis component must be a JSON number, got '0'"),
    ({"beta": 180.0, "axis": [1.0, [0.0], 0.0]}, "axis component must be a JSON number, got [0.0]"),
    ({"beta": 10 ** 400, "phase": 0.0}, "beta is an integer beyond the float range"),
], ids=["string-beta", "bool-phase", "null-latitude", "string-axis", "ragged-axis",
        "huge-int-beta"])
def test_json_values_are_checked_once_with_and_without_deg(capsys, tmp_path, element, says):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"elements": [element]}))
    errs = []
    for deg in ([], ["--deg"]):
        code, out, err = run(capsys, "cycle", f"@{path}", *deg)
        assert code == 1 and out == ""
        errs.append(err)
    assert errs[0] == errs[1] == f"error: malformed sequence: {says}\n"


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    calls = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", lambda: calls.append(1) or build())
    for argv in (["cycle", "f1"], ["catalog", "list"], ["not-a-command"],
                 ["orders", "f1", "--beta-scale", "nan"], ["centroid", "nb1_tpg"]):
        cli.main(argv)
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [
    ["profile", "f1", "--xi", "w"],
    ["ddmap", "kdd20", "--tau", "3", "--amp", "nan"],
    ["ddmap", "xy4", "--json", "--out"],
    ["search", "--axes", "cube", "--n", "4"],
], ids=lambda argv: " ".join(argv))
def test_usage_error_leaves_the_next_call_unchanged(capsys, monkeypatch, bad):
    good = ["ddmap", "xy4", "--tau", "2"]
    monkeypatch.setattr(cli, "_PARSER", None)
    alone = run(capsys, *good)
    assert alone[0] == 0 and alone[2] == ""
    code, out, err = run(capsys, *bad)
    assert code == 1 and out == "" and err.startswith("usage error:")
    assert run(capsys, *good) == alone


def test_out_does_not_carry_over_to_the_next_call(capsys, tmp_path):
    path = tmp_path / "profile.csv"
    code, out, _ = run(capsys, "profile", "f1", "--out", str(path))
    assert code == 0 and out == ""
    written = path.read_text(encoding="utf-8")
    path.unlink()
    code, out, _ = run(capsys, "profile", "f1")
    assert code == 0 and out == written and not path.exists()
