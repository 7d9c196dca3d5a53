"""CLI golden outputs: stdout must match the text recorded in
``data/cli_golden.json`` byte for byte.  ``convert24`` is compared by
tokens, its numbers within 1e-12, because its final z-rotation angle is a
computed root.  The flip-angle sweep pins are also checked against the
propagator chain they were first recorded with, the average-order pins
against the hand-written Magnus sums, the search pins against the
propagator chain that gave their axes before the walk did and against the
inverse toggle that rebuilt the axes forward, the pins that once printed a
phase of 2pi against the bare phase reduction, and the pin that once
printed a phase one ulp below 2pi against the reduction that wrote only
2pi itself as 0."""

import hashlib
import json
import pathlib
import re

import numpy as np
import pytest

from test_averaging import _average_orders_reference
from test_search import chain_route
from test_seqmodel import reference_net_quaternions
from test_toggling import reference_inverse_toggle_axes
from togglekit import averaging, cli, profiles, search, seqmodel, toggling

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json")
                    .read_text(encoding="utf-8"))
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
CONVERT_TOL = 1e-12
SWEEP_TOL = 1e-12
# stdout of the sweep commands with the chain's nets, as first recorded
CHAIN_SHA256 = {
    "profile f1": "22c2ed9bb465409933c468f609596dd9b256af92da0395258c97abe1795052e6",
    "profile bprime(11) --xi x": "6ae103d3fffdc64d55ea703e31257eb160ead09f297c79668c6b1ae049e10a31",
    "profile nb1_tpg --xi y": "f577f4d0154f885fd6c5264aa42bb827a8d06b5801dec08a18ba5ac2c3a38194",
    "glide f1 nb1_tpg": "640c183c48a20aa46197afa2a24d55695efbe48d097553eb589c8bc5b3063720",
    "glide bprime(5) nprime(5)": "bc205a06cdbc70bb74c9029f850020dad9436db9b820f07302d2a483640c3ea5",
}
ORDERS_TOL = 1e-15
# stdout of the orders commands with average_orders as the hand-written sums, as first recorded
HAND_SUM_SHA256 = {
    "orders p34": "a92d62df6e84d00fce7c674b67fc81ba01a6c57fe51dcdaa0233e54bd2782a39",
    "orders f1 --beta-scale 1.1": "a10351dfbd170a28dc8e56d127347366dc65610321fdba281157febd778198e9",
    "orders @deg5 --deg": "a4532ab14cac5954fdc196019ee5cc2d126cfdceea8fb72cf434ae61220ddcd7",
}
INVERSE_TOL = 1e-15
# stdout of the search commands with the axes from the propagator chain of
# the inverse toggle, -T(-f), as recorded before the walk's prefix states
# gave them
CHAIN_ROUTE_SHA256 = {
    "search --axes tetrahedron --n 4 --m 3 --target 1,1,1:2.0943951023931953":
        "5dc0df502550570d9337943091a16a9620e36df13b58cee8c24efcacf715c02d",
    "search --axes octahedron --n 4 --m 4 --target equatorial-pi --balance z":
        "00589553f532edd0009d268e12868a2650fe0ba12771fac4f40183904aaf1131",
    "search --axes octahedron --n 6 --m 4 --target equatorial-pi --dedupe global_z":
        "2d1b7ed9916b4426cb6a0619de074f1b4080eee1f885dda194300edfb2b4e219",
    "search --axes cube --n 4 --m 3 --target axis-cycling":
        "e39df42a6110be9321229df109fd7f1fb06e2f74818c3b5f34c1c97a739ecda2",
    "search --axes octahedron --n 3 --m 2 --target equatorial-pi --balance z --dedupe none":
        "c30ac0a9594170ef8d9253ebea4e98bfda11a1abacc81735149f8d7f8c7d413b",
    "search --axes tetrahedron --n 4 --m 3 --target axis-cycling --balance z "
    "--dedupe axis_set_rotations":
        "1d3609cd10cabb5e8f8d16db4532375c845fcf537de684e80b99dda6820d798b",
}
# stdout of the search commands with the inverse toggle rebuilding the axes
# forward, e_i = U_i f_i, as first recorded
FORWARD_INVERSE_SHA256 = {
    "search --axes tetrahedron --n 4 --m 3 --target 1,1,1:2.0943951023931953":
        "e71a014305e9b07a3115bcabab9bf2a267ed73012f132313d36e36b7af79edb3",
    "search --axes octahedron --n 4 --m 4 --target equatorial-pi --balance z":
        "fe5d52f3de0b3f5af6eef1d4b1c9823a751550057ddbaaca1774128a895d307b",
    "search --axes octahedron --n 6 --m 4 --target equatorial-pi --dedupe global_z":
        "d0d7f5c109c7b8e600875f8005e3f9e9c733a53e712b8eddbb434d0420a8c466",
    "search --axes cube --n 4 --m 3 --target axis-cycling":
        "2b186daef19a2b80ae1cf993bdb8ccae59a0785f6b5af2408fc9f6a777c82bd4",
    "search --axes tetrahedron --n 4 --m 3 --target axis-cycling --balance z "
    "--dedupe axis_set_rotations":
        "3e3c74c31154556b6f14cea0a5b59449405d1823d3f72208aaa83bdbe018ed26",
}
# stdout with phases reduced by a bare x % 2pi, which gives 2pi for a tiny
# negative x, and the search's inverse toggle as the forward reconstruction
# (on -T(-f) no phase of the n = 4 octahedron pin reduces to 2pi)
BARE_MOD_SHA256 = {
    "toggle f1 --m 2": "78efcab7d69f5eb62e19f76260deb8b64f1f6e8672684433d16f1e16fc566b8e",
    "search --axes octahedron --n 4 --m 4 --target equatorial-pi --balance z":
        "8b487a83882a8d99e62965ccfba4b5433efeed04f5bb679be8f7bf5255d6f680",
    "search --axes octahedron --n 6 --m 4 --target equatorial-pi --dedupe global_z":
        "e1f877c25f54f7341559f9f738b6acc6b38b3adf7fb189d8f1d5e87f7f99b861",
    "search --axes octahedron --n 3 --m 2 --target equatorial-pi --balance z --dedupe none":
        "998f7a1b17617911a0565b69c0dfce2e259f00af0557bd20cacc264e066ce7b3",
}
# stdout while only a phase that reduced to 2pi itself was written as 0, not
# one a few ulps below it, as recorded when the walk gave the axes
BELOW_TWO_PI_SHA256 = {
    "search --axes octahedron --n 6 --m 4 --target equatorial-pi --dedupe global_z":
        "b18bb30ff15849cb6b220a6ecc926d42df3eae4fc37a5f9b9019f04bc396d955",
}


def _tokens(text: str) -> tuple[list[str], list[float]]:
    """Non-numeric pieces and numbers of a text, in order."""
    return NUMBER.split(text), [float(x) for x in NUMBER.findall(text)]


def _args(argv: list[str], tmp_path) -> list[str]:
    """``argv`` with each '@name' argument written from the golden files."""
    args = []
    for arg in argv:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(GOLDEN["files"][arg[1:]]), encoding="utf-8")
            arg = f"@{path}"
        args.append(arg)
    return args


def _stdout(argv: list[str], tmp_path, capsys) -> str:
    """stdout of ``cli.main``, each '@name' argument written from the golden files."""
    assert cli.main(_args(argv, tmp_path)) == 0
    return capsys.readouterr().out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("record", GOLDEN["commands"], ids=lambda r: " ".join(r["argv"]))
def test_cli_output_matches_golden(record, tmp_path, capsys):
    out = _stdout(record["argv"], tmp_path, capsys)
    if "stdout" not in record:
        assert _sha256(out) == record["sha256"]
        return
    _assert_agree(out, record["stdout"], CONVERT_TOL)


OUT_COMMANDS = {"dual", "toggle", "convert24", "profile", "trajectory", "kappa", "ddmap", "search"}


@pytest.mark.parametrize("record", GOLDEN["commands"], ids=lambda r: " ".join(r["argv"]))
def test_out_file_holds_what_stdout_carries(record, tmp_path, capsys):
    stdout = _stdout(record["argv"], tmp_path, capsys)
    path = tmp_path / "out.txt"
    code = cli.main([*_args(record["argv"], tmp_path), "--out", str(path)])
    out, err = capsys.readouterr()
    if record["argv"][0] not in OUT_COMMANDS:
        assert code == 1 and "unrecognized arguments: --out" in err and not path.exists()
        return
    assert (code, out, err) == (0, "", "")
    assert path.read_bytes() == stdout.encode("utf-8")


def _assert_agree(text: str, want: str, tol: float) -> None:
    """Equal non-numeric text, and numbers within ``tol``."""
    pieces, numbers = _tokens(text)
    want_pieces, want_numbers = _tokens(want)
    assert pieces == want_pieces
    assert len(numbers) == len(want_numbers)
    worst = max(abs(a - b) for a, b in zip(numbers, want_numbers))
    assert worst <= tol, worst


@pytest.mark.parametrize("command", sorted(CHAIN_SHA256))
def test_sweep_pins_agree_with_the_chain(command, tmp_path, capsys, monkeypatch):
    out = _stdout(command.split(), tmp_path, capsys)
    monkeypatch.setattr(profiles, "net_quaternions", reference_net_quaternions)
    chain = _stdout(command.split(), tmp_path, capsys)
    assert _sha256(chain) == CHAIN_SHA256[command]
    _assert_agree(out, chain, SWEEP_TOL)


@pytest.mark.parametrize("command", sorted(HAND_SUM_SHA256))
def test_orders_pins_agree_with_the_hand_written_sums(command, tmp_path, capsys, monkeypatch):
    out = _stdout(command.split(), tmp_path, capsys)
    monkeypatch.setattr(averaging, "average_orders", lambda e: averaging.AverageRotationOrders(
        *_average_orders_reference(np.asarray(e, dtype=float))))
    sums = _stdout(command.split(), tmp_path, capsys)
    assert _sha256(sums) == HAND_SUM_SHA256[command]
    _assert_agree(out, sums, ORDERS_TOL)


def _use_chain_route(monkeypatch, inverse=toggling.inverse_toggle_axes) -> None:
    """Search commands take their axes from the propagator chain of
    ``inverse``, as before the walk's prefix states gave them."""
    monkeypatch.setattr(search, "enumerate_balanced", lambda spec: chain_route(spec, inverse))


@pytest.mark.parametrize("command", sorted(CHAIN_ROUTE_SHA256))
def test_search_pins_agree_with_the_chain_route(command, tmp_path, capsys, monkeypatch):
    out = _stdout(command.split(), tmp_path, capsys)
    _use_chain_route(monkeypatch)
    chain = _stdout(command.split(), tmp_path, capsys)
    assert _sha256(chain) == CHAIN_ROUTE_SHA256[command]
    _assert_agree(out, chain, INVERSE_TOL)


@pytest.mark.parametrize("command", sorted(FORWARD_INVERSE_SHA256))
def test_search_pins_agree_with_the_forward_inverse(command, tmp_path, capsys, monkeypatch):
    _use_chain_route(monkeypatch)
    chain = _stdout(command.split(), tmp_path, capsys)
    _use_chain_route(monkeypatch, reference_inverse_toggle_axes)
    forward = _stdout(command.split(), tmp_path, capsys)
    assert _sha256(forward) == FORWARD_INVERSE_SHA256[command]
    _assert_agree(chain, forward, INVERSE_TOL)


@pytest.mark.parametrize("command", sorted(BARE_MOD_SHA256))
def test_phase_pins_differ_from_the_bare_reduction_only_at_two_pi(command, tmp_path, capsys,
                                                                   monkeypatch):
    _use_chain_route(monkeypatch, reference_inverse_toggle_axes)
    out = _stdout(command.split(), tmp_path, capsys)
    monkeypatch.setattr(seqmodel, "_json_phase", lambda phase: phase % (2.0 * np.pi))
    bare = _stdout(command.split(), tmp_path, capsys)
    assert _sha256(bare) == BARE_MOD_SHA256[command]
    two_pi = '"phase": 6.283185307179586'
    assert two_pi in bare and two_pi not in out
    assert bare.replace(two_pi, '"phase": 0.0') == out


def _two_pi_only_phase(phase):
    """The phase reduction that wrote only a phase of exactly 2pi as 0."""
    reduced = phase % (2.0 * np.pi)
    return 0.0 if reduced == 2.0 * np.pi else reduced


@pytest.mark.parametrize("command", sorted(BELOW_TWO_PI_SHA256))
def test_phase_pins_differ_from_the_two_pi_only_reduction_only_below_two_pi(
        command, tmp_path, capsys, monkeypatch):
    out = _stdout(command.split(), tmp_path, capsys)
    monkeypatch.setattr(seqmodel, "_json_phase", _two_pi_only_phase)
    old = _stdout(command.split(), tmp_path, capsys)
    assert _sha256(old) == BELOW_TWO_PI_SHA256[command]
    below = '"phase": 6.283185307179585'
    assert below in old and below not in out
    assert old.replace(below, '"phase": 0.0') == out
