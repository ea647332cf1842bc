"""The scripts in scripts/, run in-process as `python scripts/X.py`."""

import json
import runpy
import shlex
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / name), *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return None


def test_reproduce_reference_tables(tmp_path, monkeypatch, capsys):
    code = _run_script("reproduce_reference_tables.py", monkeypatch,
                       "--out", str(tmp_path), "--kmax", "2")
    assert code == 0
    assert json.loads((tmp_path / "summary.json").read_text()) == {
        "worst_exit": 0}
    outputs = sorted(p for p in tmp_path.iterdir()
                     if p.name != "summary.json")
    assert len(outputs) == 17
    for path in outputs:
        # the header names the subcommand that wrote this file
        stem, k = path.stem.rsplit("_k", 1)
        if path.suffix == ".csv":
            command = json.loads(path.read_text().splitlines()[0][2:])[
                "command"]
            want = f"kheights tables --id {stem} --k {k} "
        else:
            command = json.loads(path.read_text())["provenance"]["command"]
            want = f"kheights bound --family {stem[6:]} --k {k} "
        assert command.startswith(want), (path.name, command)
        assert command.endswith(" --out " + shlex.quote(str(path)))
    assert "worst exit code: 0" in capsys.readouterr().out


def test_coupling_time_scaling(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    assert _run_script("coupling_time_scaling.py", monkeypatch,
                       "--sizes", "3", "4", "--trials", "2",
                       "--out", str(out)) is None
    report = json.loads(out.read_text())
    assert [row["g"] for row in report["rows"]] == [3, 4]
    assert (report["k"], report["trials"], report["seed"]) == (2, 2, 0)
