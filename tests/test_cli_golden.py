"""CLI golden outputs: stdout must match the text recorded in
``data/cli_golden.json`` byte for byte.  ``convert24`` is compared by
tokens, its numbers within 1e-12, because its final z-rotation angle is a
computed root.  The flip-angle sweep pins are also checked against the
propagator chain they were first recorded with."""

import hashlib
import json
import pathlib
import re

import pytest

from test_seqmodel import reference_net_quaternions
from togglekit import cli, profiles

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


def _tokens(text: str) -> tuple[list[str], list[float]]:
    """Non-numeric pieces and numbers of a text, in order."""
    return NUMBER.split(text), [float(x) for x in NUMBER.findall(text)]


@pytest.mark.parametrize("record", GOLDEN["commands"], ids=lambda r: " ".join(r["argv"]))
def test_cli_output_matches_golden(record, tmp_path, capsys):
    argv = []
    for arg in record["argv"]:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(GOLDEN["files"][arg[1:]]), encoding="utf-8")
            arg = f"@{path}"
        argv.append(arg)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if "stdout" not in record:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == record["sha256"]
        return
    _assert_agree(out, record["stdout"], CONVERT_TOL)


def _assert_agree(text: str, want: str, tol: float) -> None:
    """Equal non-numeric text, and numbers within ``tol``."""
    pieces, numbers = _tokens(text)
    want_pieces, want_numbers = _tokens(want)
    assert pieces == want_pieces
    assert len(numbers) == len(want_numbers)
    worst = max(abs(a - b) for a, b in zip(numbers, want_numbers))
    assert worst <= tol, worst


@pytest.mark.parametrize("command", sorted(CHAIN_SHA256))
def test_sweep_pins_agree_with_the_chain(command, capsys, monkeypatch):
    argv = command.split()
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.setattr(profiles, "net_quaternions", reference_net_quaternions)
    assert cli.main(argv) == 0
    chain = capsys.readouterr().out
    assert hashlib.sha256(chain.encode("utf-8")).hexdigest() == CHAIN_SHA256[command]
    _assert_agree(out, chain, SWEEP_TOL)
