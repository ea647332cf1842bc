"""The benchmark's workloads as seeded op lists, and the check on each
op's output.

An op is one ``kheights`` command line, run in-process through
``kheights.cli.main``.  Every op seed and the op order come from
``random.Random(f"{workload}:{seed}")``, so one workload seed always
gives the same op list.  Two parts do not depend on the seed: the
exact_tables ops, which are deterministic and run in one fixed order,
and block_mc's coalescence trial, whose length alone would outweigh the
rest of that workload's spread.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: the workload seed at which sample outputs must match recorded digests
DEFAULT_SEED = 0

#: (family, k) of the bound ops; rect k=4 is left out (it needs ~5 GB)
BOUND_CASES = [("rect", 2), ("rect", 3), ("hex", 2), ("hex", 3),
               ("regular3", 2), ("dual4", 2), ("regular2", 2), ("dual4", 3)]

#: exact bound fields that must not change between commits
BOUND_FIELDS = ("denominator_exact", "e_max_exact", "aggregate_exact", "c_sci")


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def bound_argv(family: str, k: int) -> tuple[str, ...]:
    return ("bound", "--family", family, "--k", str(k),
            "--n", "1024", "--eps", "0.125")


def _exact_tables(rng, expected):
    # one fixed order for every seed; shuffled once so that ops of one
    # kind do not run back to back, where a slow spell of a shared box
    # would move their whole share of the percentiles at once
    ops = [("tables", "--id", "hex", "--k", str(k)) for k in range(2, 7)]
    ops += [("tables", "--id", "rect", "--k", str(k)) for k in (2, 3)]
    ops += [("tables", "--id", "type1", "--k", "2", "--case", case)
            for case in expected["type1_cases"]]
    ops += [("tables", "--id", "type2", "--k", str(k), "--case", case)
            for k in (2, 3) for case in expected["type2_cases"]]
    ops += [bound_argv(family, k) for family, k in BOUND_CASES]
    random.Random("exact_tables").shuffle(ops)
    return ops


def _updown_mc(rng, expected):
    ops = []
    for _ in range(40):
        ops.append(("sample", "--graph", "rect:8x8", "--k", "2", "--n", "4",
                    "--seed", str(rng.randrange(2 ** 31))))
        ops.append(("run", "--chain", "updown", "--graph", "rect:16x16",
                    "--k", "3", "--steps", "5000",
                    "--seed", str(rng.randrange(2 ** 31))))
        ops.append(("couple-time", "--chain", "updown", "--graph", "rect:6x6",
                    "--k", "2", "--trials", "2",
                    "--seed", str(rng.randrange(2 ** 31))))
    rng.shuffle(ops)
    return ops


def _block_mc(rng, expected):
    ops = [("run", "--chain", "block", "--graph", "hex:8x8", "--k", "2",
            "--steps", "300", "--seed", str(rng.randrange(2 ** 31)))
           for _ in range(99)]
    ops.append(("couple-time", "--chain", "block", "--graph", "hex:4x4",
                "--k", "2", "--trials", "1", "--seed", "0"))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "exact_tables": _exact_tables,
    "updown_mc": _updown_mc,
    "block_mc": _block_mc,
}


def make_ops(workload: str, seed: int, expected: dict) -> list[tuple[str, ...]]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), expected)


# ---------------------------------------------------------------------------
# output checks


def states_digest(lines) -> str:
    """sha256 of the state lines of a sample/run output (the provenance
    header holds the command line, so it is left out)."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _states(out: str, graph_of, spec: str, k: int):
    lines = out.splitlines()[1:]
    graph = graph_of(spec)
    from kheights.heights import is_valid

    for line in lines:
        if not is_valid(graph, json.loads(line)["values"], k):
            raise ValueError(f"invalid {k}-height in output: {line[:80]}")
    return lines


def check(argv, code, out: str, expected: dict, graph_of) -> str | None:
    """Why the output of one op is wrong, or None when it is right.

    graph_of maps a --graph spec to its Graph (cached by the caller).
    """
    if code != 0:
        return f"exit code {code}"
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if cmd == "bound":
        doc = json.loads(out)
        want = expected["bound"][f"{opts['--family']} k={opts['--k']}"]
        for field, value in want.items():
            if doc.get(field) != value:
                return f"{field} = {doc.get(field)!r}, recorded {value!r}"
    elif cmd in ("sample", "run"):
        lines = _states(out, graph_of, opts["--graph"], int(opts["--k"]))
        if cmd == "sample":
            if len(lines) != int(opts["--n"]):
                return f"{len(lines)} samples, asked for {opts['--n']}"
            digest = expected["sample_digests"].get(" ".join(argv))
            if digest is not None and digest != states_digest(lines):
                return "samples differ from the recorded digest"
        elif not lines:
            return "no state in the trajectory output"
    elif cmd == "couple-time":
        rows = [line for line in out.splitlines()
                if line and line[0].isdigit()]
        if len(rows) != int(opts["--trials"]):
            return f"{len(rows)} trial rows, asked for {opts['--trials']}"
        if any(int(row.split(",")[1]) <= 0 for row in rows):
            return "a coalescence time is not positive"
    return None
