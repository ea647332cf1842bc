"""One pass of a workload: a closed-loop client in a fresh process.

One thread issues the workload's ops one after another through
``kheights.cli.main``; the next op starts when the previous one returns.
No warm-up op runs first, because a user pays the in-process caches on
every run.  The pass prints one JSON object on stdout for ``run.py``.

    python3 perfbench/client.py --workload updown_mc --seed 0 [--trace 1]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
from workloads import check, load_expected, make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: a measured value with at least
    (1 - q) * n values at or above it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def run_ops(ops, expected, tracer=None) -> dict:
    """Issue every op in order, then check every output.  With a tracer,
    the ops run under its instrumentation and each op is a span root."""
    from kheights import cli

    results = []
    scope = tracing.instrumented(tracer) if tracer else contextlib.nullcontext()
    with scope:
        first_op_at = time.perf_counter()
        for i, argv in enumerate(ops):
            if tracer:
                tracer.op = i
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an op failure, counted below
                code = f"exception {exc!r}"
            results.append((argv, code, out.getvalue(),
                            time.perf_counter() - start))
        last_op_end = time.perf_counter()

    graphs = {}

    def graph_of(spec):
        if spec not in graphs:
            graphs[spec] = cli.parse_graph(spec)
        return graphs[spec]

    failures = []
    for argv, code, out, _ in results:
        try:
            why = check(argv, code, out, expected, graph_of)
        except Exception as exc:  # malformed output fails the op
            why = f"output check raised {exc!r}"
        if why:
            failures.append({"op": " ".join(argv), "why": why})
    latencies_ms = [r[3] * 1e3 for r in results]
    return {
        "first_op_at": first_op_at,
        "wall_s": last_op_end - first_op_at,
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": percentile(latencies_ms, 0.9),
        "ops": len(results),
        "failures": failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="where the traced pass writes spans")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop when the first op would be issued")
    args = ap.parse_args(argv)

    if not (SRC / "kheights" / "__init__.py").is_file():
        print(f"error: no kheights sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import kheights
    import kheights.cli  # noqa: F401  (imported here so setup pays for it)

    if Path(kheights.__file__).resolve().parent != SRC / "kheights":
        print(f"error: imported kheights from {kheights.__file__}",
              file=sys.stderr)
        return 2
    expected = load_expected()
    ops = make_ops(args.workload, args.seed, expected)
    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "kheights": kheights.__version__}
    if args.setup_only:
        print(json.dumps({"first_op_at": time.perf_counter(),
                          "versions": versions}))
        return 0

    tracer = tracing.Tracer(tracing.AGGREGATED) if args.trace else None
    doc = run_ops(ops, expected, tracer)
    doc["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    doc["versions"] = versions
    if tracer:
        doc["layers"] = tracing.layer_metrics(tracer)
        doc["self_sum_s"] = sum(tracer.self_s.values())
        doc["op_sum_s"] = sum(end - start for name, start, end, parent, _
                              in tracer.spans
                              if name == "cli.main" and parent is None)
        doc["est_overhead_s"] = (tracing.call_cost_s()
                                 * sum(tracer.calls.values()))
        if args.trace_out:
            tracer.dump(args.trace_out, {"workload": args.workload,
                                         "seed": args.seed})
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
