"""CLI golden outputs: stdout must match the text recorded in
``data/cli_golden.json`` byte for byte.  ``convert24`` is compared by
tokens, its numbers within 1e-12, because its final z-rotation angle is a
computed root."""

import hashlib
import json
import pathlib
import re

import pytest

from togglekit import cli

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json")
                    .read_text(encoding="utf-8"))
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
CONVERT_TOL = 1e-12


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
    text, numbers = _tokens(out)
    want_text, want_numbers = _tokens(record["stdout"])
    assert text == want_text
    assert len(numbers) == len(want_numbers)
    worst = max(abs(a - b) for a, b in zip(numbers, want_numbers))
    assert worst <= CONVERT_TOL, worst
