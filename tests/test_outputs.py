"""Every exact `tables` and `divergence` output, pinned byte for byte.

tests/output_documents.json maps each command line to its exit code,
its stdout with the provenance dropped (as a list of lines) and its
stderr: `tables --id {hex,rect,type1,type2}` and `divergence --family
{rect,hex}` at every k from 0 up to the first size the command refuses,
that one included.  Record it again with

    PYTHONPATH=src python tests/test_outputs.py

only when an output is meant to change.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from kheights.cli import main

DOCUMENTS = Path(__file__).parent / "output_documents.json"

#: the first k each command refuses (exit 4, frontier cap)
FIRST_REFUSED = {"tables --id hex": 14, "tables --id rect": 7,
                 "tables --id type1": 4, "tables --id type2": 5,
                 "divergence --family rect": 7, "divergence --family hex": 14}


def run_cli(argv: str) -> dict:
    """{"exit", "stdout", "stderr"} of main(argv.split()), the provenance
    dropped from stdout: the `# {...}` header line of a table, the
    "provenance" field of a JSON document."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    text = out.getvalue()
    if text.startswith("# "):
        text = text.split("\n", 1)[1]
    elif text:
        doc = json.loads(text)
        del doc["provenance"]
        text = json.dumps(doc, indent=2) + "\n"
    return {"exit": code, "stdout": text.splitlines(),
            "stderr": err.getvalue()}


OUTPUT_DOCUMENTS = json.loads(DOCUMENTS.read_text())


def _k(argv: str) -> int:
    return int(argv.rsplit(" ", 1)[1])


def _extended(argv: str) -> bool:
    """Computed rows past k=3 and the full type-1 catalogue at k=3 take
    ~23 s in all on a 2-core box; the rest, refusals included, ~2 s."""
    return ((_k(argv) > 3 and OUTPUT_DOCUMENTS[argv]["exit"] == 0)
            or argv == "tables --id type1 --k 3")


@pytest.mark.parametrize("argv", [
    pytest.param(argv, marks=pytest.mark.extended) if _extended(argv)
    else argv for argv in OUTPUT_DOCUMENTS])
def test_output_is_unchanged(argv):
    assert run_cli(argv) == OUTPUT_DOCUMENTS[argv]


def test_manifest_covers_every_k_up_to_the_first_refusal():
    want = [f"{cmd} --k {k}" for cmd, stop in FIRST_REFUSED.items()
            for k in range(stop + 1)]
    assert list(OUTPUT_DOCUMENTS) == want
    for argv, entry in OUTPUT_DOCUMENTS.items():
        refused = _k(argv) == FIRST_REFUSED[argv.rsplit(" --k", 1)[0]]
        assert entry["exit"] == (4 if refused else 0), argv
        assert bool(entry["stderr"]) == refused, argv


if __name__ == "__main__":
    docs = {}
    for cmd, stop in FIRST_REFUSED.items():
        for k in range(stop + 1):
            argv = f"{cmd} --k {k}"
            docs[argv] = run_cli(argv)
            print(argv, docs[argv]["exit"], file=sys.stderr)
    DOCUMENTS.write_text(json.dumps(docs, indent=1) + "\n")
