"""Record the values the benchmark's output checks compare against.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json from the sources under src/:

* the type-1 and type-2 case catalogue the exact_tables ops iterate over;
* the exact fields of every bound op, which must never change;
* the digest of every sample op's states at the default workload seed,
  which pins the seed -> sample mapping.

Run it only at a commit whose outputs are known to be right; the file
was recorded at the commit that added the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from kheights import cli  # noqa: E402
from kheights.graphs import CaseTag  # noqa: E402
from kheights.tables import type1_cases, type2_cases  # noqa: E402
from workloads import (  # noqa: E402
    BOUND_CASES, BOUND_FIELDS, DEFAULT_SEED, EXPECTED_PATH, bound_argv,
    make_ops, states_digest)


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return out.getvalue()


def main():
    expected = {
        "type1_cases": [str(CaseTag("type1", labels, d))
                        for d, labels in type1_cases()],
        "type2_cases": [str(CaseTag("type2", labels))
                        for labels in type2_cases()],
        "bound": {},
        "sample_digests": {},
    }
    for family, k in BOUND_CASES:
        doc = json.loads(run(bound_argv(family, k)))
        expected["bound"][f"{family} k={k}"] = {
            field: doc[field] for field in BOUND_FIELDS if field in doc}
    for argv in make_ops("updown_mc", DEFAULT_SEED, expected):
        if argv[0] == "sample":
            lines = run(argv).splitlines()[1:]
            expected["sample_digests"][" ".join(argv)] = states_digest(lines)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
