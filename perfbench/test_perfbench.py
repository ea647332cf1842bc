"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import client  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, bound_argv, load_expected, make_ops)

EXPECTED = load_expected()


def tiny(workload):
    """A few cheap ops of the default-seed op list, one per op shape."""
    ops = make_ops(workload, DEFAULT_SEED, EXPECTED)
    cheap = {
        "exact_tables": lambda op: op in {
            ("tables", "--id", "hex", "--k", "2"),
            ("tables", "--id", "rect", "--k", "2"),
            ("tables", "--id", "type1", "--k", "2", "--case", "1_6[1]"),
            ("tables", "--id", "type2", "--k", "2", "--case", "2[1,8]"),
            bound_argv("hex", 2), bound_argv("dual4", 2)},
        "updown_mc": lambda op: True,
        "block_mc": lambda op: True,
    }[workload]
    picked, shapes = [], set()
    for op in ops:
        shape = op[:3]
        if cheap(op) and shape not in shapes:
            shapes.add(shape)
            picked.append(op)
    return picked


def test_tiny_workloads_run_without_failures():
    for workload in WORKLOADS:
        ops = tiny(workload)
        assert len(ops) >= 2, workload
        doc = client.run_ops(ops, EXPECTED)
        assert doc["ops"] == len(ops)
        assert doc["failures"] == [], workload
        assert 0 < doc["op_p50_ms"] <= doc["op_p90_ms"]


def test_default_seed_samples_all_have_digests():
    samples = [" ".join(op) for op in make_ops("updown_mc", DEFAULT_SEED,
                                               EXPECTED)
               if op[0] == "sample"]
    assert len(samples) == 40
    assert set(samples) == set(EXPECTED["sample_digests"])


def test_corrupted_expected_value_counts_as_failed_op():
    ops = tiny("exact_tables") + [
        op for op in tiny("updown_mc") if op[0] == "sample"]
    bad = copy.deepcopy(EXPECTED)
    bad["bound"]["hex k=2"]["denominator_exact"] = "1/2"
    sample = " ".join(ops[-1])
    bad["sample_digests"][sample] = "0" * 64
    doc = client.run_ops(ops, bad)
    assert sorted(f["op"] for f in doc["failures"]) == sorted(
        [" ".join(bound_argv("hex", 2)), sample])


def test_nonzero_exit_counts_as_failed_op():
    ops = [("tables", "--id", "hex", "--k", "2"),
           ("run", "--chain", "updown", "--graph", "nope", "--k", "2",
            "--steps", "1", "--seed", "0")]
    doc = client.run_ops(ops, EXPECTED)
    assert [f["why"] for f in doc["failures"]] == ["exit code 3"]


def test_self_time_arithmetic_on_synthetic_tree():
    # op [0, 10] > B [1, 4] > C [2, 3]; op > D [5, 6], D [7, 8] (aggregated)
    ticks = iter([0, 1, 2, 3, 4, 5, 6, 7, 8, 10])
    tr = tracing.Tracer(aggregated={"D"}, clock=lambda: next(ticks))
    tr.op = 0
    tr.enter("op")
    tr.enter("B")
    tr.enter("C")
    tr.exit()
    tr.exit()
    for _ in range(2):
        tr.enter("D")
        tr.exit()
    tr.exit()
    assert dict(tr.self_s) == {"op": 5, "B": 2, "C": 1, "D": 2}
    assert sum(tr.self_s.values()) == 10
    assert dict(tr.calls) == {"op": 1, "B": 1, "C": 1, "D": 2}
    assert tr.spans == [["C", 2, 3, "B", 0], ["B", 1, 4, "op", 0],
                        ["op", 0, 10, None, 0]]
    assert dict(tr.aggregates) == {("D", "op", 0): [2, 2, 2]}


def test_traced_run_reports_every_layer_metric_and_restores():
    from kheights import cli, coupling

    originals = (cli.main, cli.cftp_sample, coupling.updown_result)
    tracer = tracing.Tracer(aggregated=tracing.AGGREGATED)
    ops = tiny("exact_tables") + tiny("updown_mc") + tiny("block_mc")
    doc = client.run_ops(ops, EXPECTED, tracer)
    assert doc["failures"] == []
    assert (cli.main, cli.cftp_sample, coupling.updown_result) == originals
    metrics = tracing.layer_metrics(tracer)
    for name in tracing.SPAN_NAMES:
        assert metrics[f"{name}.calls"] > 0, name
    assert tracer.calls["cli.main"] == len(ops)
    op_sum = sum(end - start for name, start, end, parent, _ in tracer.spans
                 if name == "cli.main")
    assert abs(sum(tracer.self_s.values()) - op_sum) <= 1e-6 * op_sum
    assert 0 < metrics["chains.BlockSampler.cache_hit_ratio"] < 1
    # hex k=2, 1_6[1] k=2 and bound hex k=2 all compute the same case
    assert 0 < metrics["tables.case_divergence.distinct_ratio"] < 1
    assert metrics["coupling.strassen_joint.pairs_tested"] > 0

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = set(metrics) | {"trace.wall_s", "trace.untraced_wall_s",
                               "trace.overhead_s", "trace.est_overhead_s",
                               "trace.op_sum_s",
                               "trace.self_sum_s"}
    assert set(declared) == reported
    assert all(run._layer_unit(name) == unit
               for name, unit in declared.items())
    assert {m["name"] for m in bench["end_to_end"]} == set(
        run.END_TO_END_UNITS)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert client.percentile(values, 0.9) == 90
    assert client.percentile(values, 0.5) == 50
    assert client.percentile([7.0], 0.9) == 7.0
