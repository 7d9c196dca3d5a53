"""Smoke test: every demo script runs to the end without an exception."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)          # demos write into ./demo_output
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
