"""The repo benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload exact_tables --seed 0 --seconds 35 --trace 0

Run from the repository root; it measures the sources under ``src/``.
A run starts each pass of the workload in a fresh process
(``client.py``) and keeps starting passes while another one fits in
``--seconds``; there is always at least one.  Each end-to-end metric is
the median over the run's passes; ``setup_s`` also counts extra
set-up-only processes, so it is a median of several set-ups.

With ``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer metrics of the traced pass, with the tracing
overhead as the difference of the two wall times.  The spans go to
``perfbench/out/``.

The last line of stdout is the JSON result; the lines before it give
every metric with its unit and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: BLAS/OpenMP threads per process; the client is a single thread
THREAD_CAP = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up-only processes per run, on top of one set-up per pass
SETUP_PROBES = 4
#: a pass that takes longer than this is a hung program
PASS_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREAD_CAP) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_client(args, extra=()) -> dict:
    """Start one client process; return its JSON with setup_s and the
    process's own duration added."""
    cmd = [sys.executable, str(HERE / "client.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"client exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["setup_s"] = doc["first_op_at"] - started
    doc["process_s"] = time.perf_counter() - started
    return doc


def provenance(args, passes, probes) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kheights").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "versions": passes[0]["versions"],
        "thread_caps": {var: THREAD_CAP for var in THREAD_VARS},
        "client": "closed loop, 1 process, 1 thread, no warm-up op",
        "passes": len(passes),
        "ops_per_pass": passes[0]["ops"],
        "per_pass": {name: [p[name] for p in passes]
                     for name in END_TO_END_UNITS},
        "setups": len(passes) + len(probes),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "kheights" / "__init__.py").is_file():
        print(f"error: run from a checkout with src/kheights; {ROOT} has none",
              file=sys.stderr)
        return 2

    begin = time.perf_counter()
    probes, passes = [], []
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_out = OUT / f"trace-{args.workload}-{args.seed}.json"
        passes.append(run_client(args))
        passes.append(run_client(args, ("--trace", "1",
                                        "--trace-out", str(trace_out))))
    else:
        probes = [run_client(args, ("--setup-only",))
                  for _ in range(SETUP_PROBES)]
        while not passes or (time.perf_counter() - begin + statistics.median(
                p["process_s"] for p in passes) <= args.seconds):
            passes.append(run_client(args))

    attempted = sum(p["ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures:
        print(f"FAILED: {f['op']}: {f['why']}")
    prov = provenance(args, passes, probes)
    if args.trace:
        untraced, traced = passes
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.untraced_wall_s"] = untraced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        metrics["trace.est_overhead_s"] = traced["est_overhead_s"]
        metrics["trace.op_sum_s"] = traced["op_sum_s"]
        metrics["trace.self_sum_s"] = traced["self_sum_s"]
        units = {name: _layer_unit(name) for name in metrics}
        self_ok = abs(traced["self_sum_s"] - traced["op_sum_s"]) <= (
            1e-6 * traced["op_sum_s"])
        if not self_ok:
            print("FAILED: self times do not add up to the op time")
        prov["trace_out"] = str(trace_out.relative_to(ROOT))
    else:
        metrics = {name: statistics.median(p[name] for p in passes)
                   for name in END_TO_END_UNITS if name != "setup_s"}
        metrics["setup_s"] = statistics.median(
            p["setup_s"] for p in probes + passes)
        units = END_TO_END_UNITS
        self_ok = True
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} pass(es) of {passes[0]['ops']} ops")
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6f} {units[name]}")
    print(f"{'fail_ratio':45s} {len(failures) / attempted:14.6f} 1 "
          f"({len(failures)}/{attempted} ops)")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": not failures and self_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith(".bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
