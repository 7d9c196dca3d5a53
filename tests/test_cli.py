"""CLI surface: subcommands, exit codes, deterministic output."""

import json

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


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "dual", "@does_not_exist.json")
    assert code == 3 and "i/o error" in err


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, out, _ = run(capsys, "profile", "f1", "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith("beta_prime,") and text.endswith("\n")


AXIS_SHAPES = {"axis-len2": [1, 0], "axis-len4": [1, 0, 0, 0], "axis-nested": [[1, 0, 0]]}


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
])
def test_bad_input_exits_1_with_one_line(capsys, tmp_path, argv, doc, says):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    argv = [f"@{path}" if a == "@in" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert says in err
