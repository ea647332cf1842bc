"""Command-line surface.

Commands: tables, divergence, bound, run, sample, couple-time, heatmap,
verify.  Exit codes: 0 success, 2 golden/verification mismatch, 3
invalid input, 4 enumeration cap exceeded.  Every persisted output
embeds {version, command, seed, graph hash} for provenance, the command
being the arguments that main parsed.
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

from . import __version__, _golden
from .bounds import FAMILY_PARAMS, family_report, sci7, tau_bound
from .chains import BlockSampler, make_chain, run, step_block, step_updown
from .coupling import cftp_sample, coupling_time_estimate
from .enumeration import EnumerationCapError
from .graphs import (
    CaseTag,
    Graph,
    GraphError,
    check_graph_size,
    hex_block_family,
    make_complete,
    make_toroidal_hex,
    make_toroidal_rect,
    rect_block_family,
    singleton_family,
)
from .heights import KHeight
from .tables import case_divergence, reproduce_table

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_BAD_INPUT = 3
EXIT_CAP = 4


def _provenance(command: str, seed=None,
                graph: Graph | None = None) -> dict:
    p = {"version": __version__, "command": command}
    if seed is not None:
        p["seed"] = seed
    if graph is not None:
        p["graph_hash"] = graph.content_hash()
    return p


def parse_graph(spec: str) -> Graph:
    """Builtin generator specs (rect:GxH, hex:GxH, complete:N, path:N,
    cycle:N) or a JSON file path.  EnumerationCapError, before building,
    for a graph past graphs.GRAPH_MAX_SIZE."""
    m = re.fullmatch(r"(rect|hex):(\d+)x(\d+)", spec)
    if m:
        g, h = int(m.group(2)), int(m.group(3))
        if m.group(1) == "rect":
            check_graph_size(g * h, 2 * g * h)
            return make_toroidal_rect(g, h)
        check_graph_size(2 * g * h, 3 * g * h)
        return make_toroidal_hex(g, h)
    m = re.fullmatch(r"(complete|path|cycle):(\d+)", spec)
    if m:
        n = int(m.group(2))
        check_graph_size(n, {"complete": n * (n - 1) // 2,
                             "path": max(n - 1, 0), "cycle": n}[m.group(1)])
        if m.group(1) == "complete":
            return make_complete(n)
        if m.group(1) == "path":
            return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        if n < 3:
            raise GraphError("cycle needs n >= 3")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    with open(spec) as fh:
        return Graph.from_json_dict(json.load(fh))


def parse_case(text: str) -> CaseTag:
    """Case names like 1_6[1], 1_10[1,3,7], 2[1,8]."""
    m = re.fullmatch(r"1_(\d+)\[([\d,]+)\]", text)
    if m:
        return CaseTag("type1",
                       tuple(int(x) for x in m.group(2).split(",")),
                       int(m.group(1)))
    m = re.fullmatch(r"2\[([\d,]+)\]", text)
    if m:
        return CaseTag("type2", tuple(int(x) for x in m.group(1).split(",")))
    raise ValueError(f"cannot parse case name {text!r}")


def _block_family(graph: Graph):
    if graph.kind == "rect":
        return rect_block_family(graph)
    if graph.kind == "hex":
        return hex_block_family(graph)
    return singleton_family(graph)


@contextmanager
def _opened(out):
    """The file `out` opened for writing, or stdout if out is None."""
    if out:
        with open(out, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _write(out, text: str):
    with _opened(out) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# commands


def _golden_row(table_id: str, rep) -> tuple | None:
    """(omega_block, omega_boundary, e_max string) reference, if published."""
    if table_id == "hex":
        return _golden.HEX_ROWS.get(rep.k)
    if table_id == "rect":
        s = _golden.RECT_ROWS.get(rep.k)
        return (rep.omega_block, rep.omega_boundary, s) if s else None
    tag = parse_case(rep.case_id)
    if table_id == "type1":
        return _golden.TYPE1_ROWS.get((rep.k, tag.d, tag.neighbor_labels))
    return _golden.TYPE2_ROWS.get((rep.k, tag.neighbor_labels))


def cmd_tables(args) -> int:
    if args.case:
        tag = parse_case(args.case)
        if args.id != tag.kind:  # the table ids of cases are their kinds
            raise ValueError(f"case {args.case} belongs to table {tag.kind}")
        reports = [case_divergence(tag, args.k)]
    else:
        reports = reproduce_table(args.id, args.k)
    lines = ["# " + json.dumps(_provenance(args.command)),
             "k,case,omega_block,omega_boundary,e_max"]
    mismatches = []
    for rep in reports:
        e6 = f"{rep.e_max_rounded():.6f}"
        lines.append(f"{rep.k},{rep.case_id},{rep.omega_block},"
                     f"{rep.omega_boundary},{e6}")
        ref = _golden_row(args.id, rep)
        if ref is not None:
            ref_ob, ref_bd, ref_e = ref
            ok = (rep.omega_block == ref_ob and rep.omega_boundary == ref_bd
                  and abs(rep.e_max_rounded() - float(ref_e)) <= 1e-6)
            if not ok:
                mismatches.append(
                    f"{rep.case_id} k={rep.k}: got ({rep.omega_block}, "
                    f"{rep.omega_boundary}, {e6}) want {ref}")
    _write(args.out, "\n".join(lines) + "\n")
    for msg in mismatches:
        print("MISMATCH:", msg, file=sys.stderr)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_divergence(args) -> int:
    if args.case is not None:
        rep = case_divergence(parse_case(args.case), args.k)
    else:
        [rep] = reproduce_table(args.family, args.k)
    doc = {
        "provenance": _provenance(args.command),
        "k": rep.k,
        "case": rep.case_id,
        "omega_block": rep.omega_block,
        "omega_boundary": rep.omega_boundary,
        "e_max_exact": str(rep.e_max),
        "e_max": rep.e_max_rounded(),
    }
    if rep.witness:
        constraint, pivot = rep.witness
        doc["witness"] = {"pins": list(map(list, constraint.values)),
                          "pivot": pivot}
    _write(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def cmd_bound(args) -> int:
    rep = family_report(args.family, args.k)
    denom = rep["denominator_exact"]
    c_exact = rep.get("c_exact")
    beta = None
    family_size = None
    if args.n:
        if args.family == "rect":
            family_size = args.n
        elif args.family == "hex":
            if args.n % 2:
                raise ValueError("hex graphs have an even vertex count")
            family_size = args.n // 2
    if family_size:
        beta = float(1 - denom / family_size)
    tau = None
    if args.n and args.eps and c_exact is not None:
        tau = tau_bound(c_exact, args.n, args.k, args.eps)
    doc = {
        "provenance": _provenance(args.command),
        "family": args.family,
        "k": args.k,
        "beta": beta,
        "c": float(c_exact) if c_exact is not None else None,
        "c_sci": sci7(c_exact) if c_exact is not None else None,
        "tau": tau,
        "certificate": rep["certificate"],
        "denominator_exact": str(denom),
    }
    if "e_max" in rep:
        doc["e_max_exact"] = str(rep["e_max"])
    if "aggregate_exact" in rep:
        doc["aggregate_exact"] = str(rep["aggregate_exact"])
    if "published" in rep:
        doc["published"] = {
            kk: (str(v) if isinstance(v, Fraction) else v)
            for kk, v in rep["published"].items()
        }
    _write(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def cmd_run(args) -> int:
    graph = parse_graph(args.graph)
    state = make_chain(graph, args.k, args.seed)
    stepper = step_updown
    if args.chain == "block":
        sampler = BlockSampler(graph, _block_family(graph), args.k)
        stepper = lambda st, m: step_block(st, sampler, m)  # noqa: E731
    with _opened(args.out) as fh:
        prov = _provenance(args.command, args.seed, graph)
        fh.write(json.dumps({"provenance": prov, "k": args.k,
                             "chain": args.chain}) + "\n")
        if args.steps > 0:
            # one line per snapshot as it is made: none is held
            for step, h in run(state, args.steps, stepper,
                               args.emit_every or args.steps):
                fh.write(json.dumps({"step": step,
                                     "values": list(h.values)}) + "\n")
    return EXIT_OK


def cmd_sample(args) -> int:
    import numpy as np

    graph = parse_graph(args.graph)
    if args.height_out and args.n < 1:
        raise ValueError("--height-out needs --n >= 1")
    prov = _provenance(args.command, args.seed, graph)
    lines = [json.dumps({"provenance": prov, "k": args.k,
                         "sampler": "cftp"})]
    for i in range(args.n):
        sub = int(np.random.SeedSequence(
            entropy=(args.seed, i)).generate_state(1)[0])
        h = cftp_sample(graph, args.k, sub)
        lines.append(json.dumps({"index": i, "values": list(h.values)}))
        if i == 0 and args.height_out:
            # the heatmap input: the graph, k and sample 0's values
            _write(args.height_out, json.dumps(
                {"graph": graph.to_json_dict(), "k": args.k,
                 "values": list(h.values)}) + "\n")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_couple_time(args) -> int:
    graph = parse_graph(args.graph)
    family = _block_family(graph) if args.chain == "block" else None
    est = coupling_time_estimate(graph, args.k, trials=args.trials,
                                 seed=args.seed, family=family)
    lines = ["# " + json.dumps(_provenance(args.command, args.seed, graph)),
             "trial,steps"]
    lines += [f"{i},{t}" for i, t in enumerate(est["times"])]
    lines.append(f"# mean={est['mean']} median={est['median']} "
                 f"q10={est['q10']} q90={est['q90']} max={est['max']}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _ramp(value: int, k: int) -> tuple[int, int, int]:
    t = value / k if k else 0.0
    return (round(255 * t), 0, 255 - round(255 * t))


def _read_height(path: str) -> KHeight:
    """The heatmap input that sample --height-out writes: a graph, k and
    the values of a k-height of that graph.  ValueError otherwise."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    for field in ("graph", "k", "values"):
        if field not in doc:
            raise ValueError(f"{path}: missing field {field!r}")
    graph = Graph.from_json_dict(doc["graph"])
    k, values = doc["k"], doc["values"]
    if not (type(k) is int and isinstance(values, list)
            and all(type(x) is int for x in values)):
        raise ValueError(f"{path}: k and the values must be integers")
    return KHeight(graph, k, tuple(values))  # checks it is a k-height


#: pixels of the largest PPM heatmap, built in memory at 3 bytes a pixel
HEATMAP_MAX_PIXELS = 1 << 24


def cmd_heatmap(args) -> int:
    height = _read_height(args.height)
    graph, k, values = height.graph, height.k, height.values
    dims = graph.dims
    scale = args.scale
    if dims and args.out.endswith(".ppm"):
        # one row per y; a hex graph has two vertices per grid point
        h = dims[1]
        g = graph.n // h
        if g * scale * h * scale > HEATMAP_MAX_PIXELS:
            raise EnumerationCapError(
                f"a {g * scale}x{h * scale} image exceeds "
                f"{HEATMAP_MAX_PIXELS} pixels; lower --scale")
        header = f"P6\n{g * scale} {h * scale}\n255\n".encode()
        body = bytearray()
        for y in range(h):
            row = bytearray()
            for x in range(g):
                row += bytes(_ramp(values[y * g + x], k)) * scale
            body += row * scale
        with open(args.out, "wb") as fh:
            fh.write(header + bytes(body))
        return EXIT_OK
    # generic fallback: one colored disk per vertex on a circle layout
    import math

    n = graph.n
    size = 40 * scale
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}">',
             f"<!-- {json.dumps(_provenance(args.command, graph=graph))} -->"]
    for v in range(n):
        a = 2 * math.pi * v / n
        cx = size / 2 + (size / 2 - 10) * math.cos(a)
        cy = size / 2 + (size / 2 - 10) * math.sin(a)
        r, gg, b = _ramp(values[v], k)
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="8" '
                     f'fill="rgb({r},{gg},{b})"/>')
    parts.append("</svg>")
    with open(args.out, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification()
    report["provenance"] = _provenance(args.command)
    _write(args.out, json.dumps(report, indent=2) + "\n")
    failed = [c["id"] for c in report["checks"] if not c["passed"]]
    for cid in failed:
        print("FAILED:", cid, file=sys.stderr)
    return EXIT_MISMATCH if failed else EXIT_OK


# ---------------------------------------------------------------------------


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be >= {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _eps(text: str) -> float:
    """An argparse type: the tau(eps) accuracy, 0 < eps < 1/2."""
    value = float(text)
    if not 0 < value < 0.5:
        raise argparse.ArgumentTypeError(f"need 0 < eps < 1/2, got {value}")
    return value


_eps.__name__ = "float"  # argparse names the type in its messages


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with the invalid-input code (3), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use: a
    build takes over ten times as long as parsing a command line."""
    p = _Parser(
        prog="kheights",
        description="k-height Markov chains: tables, bounds, sampling.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("tables", help="reproduce a divergence table")
    t.add_argument("--id", required=True,
                   choices=["rect", "hex", "type1", "type2"])
    t.add_argument("--k", type=_int_at_least(0), required=True)
    t.add_argument("--case", help="restrict to one case, e.g. 1_6[1]")
    t.add_argument("--out")

    d = sub.add_parser("divergence", help="single divergence report")
    which = d.add_mutually_exclusive_group(required=True)
    which.add_argument("--case", help="case name, e.g. 2[1,8]")
    which.add_argument("--family", choices=["rect", "hex"])
    d.add_argument("--k", type=_int_at_least(0), required=True)
    d.add_argument("--out")

    b = sub.add_parser("bound", help="mixing-bound constants")
    b.add_argument("--family", required=True, choices=sorted(FAMILY_PARAMS))
    # c = 8bmk(k+1)^b / denominator is 0 at k=0: no bound to report
    b.add_argument("--k", type=_int_at_least(1), required=True)
    b.add_argument("--n", type=_int_at_least(1))
    b.add_argument("--eps", type=_eps)
    b.add_argument("--out")

    r = sub.add_parser("run", help="run a chain, emit trajectory JSONL")
    r.add_argument("--chain", required=True, choices=["updown", "block"])
    r.add_argument("--graph", required=True)
    r.add_argument("--k", type=_int_at_least(0), required=True)
    r.add_argument("--steps", type=_int_at_least(0), required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--emit-every", type=_int_at_least(0), default=0)
    r.add_argument("--out")

    s = sub.add_parser("sample", help="exact uniform samples via CFTP")
    s.add_argument("--graph", required=True)
    s.add_argument("--k", type=_int_at_least(0), required=True)
    s.add_argument("--n", type=_int_at_least(0), required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out")
    s.add_argument("--height-out",
                   help="write sample 0 as heatmap input JSON")

    c = sub.add_parser("couple-time", help="coalescence-time CSV")
    c.add_argument("--chain", default="updown", choices=["updown", "block"])
    c.add_argument("--graph", required=True)
    c.add_argument("--k", type=_int_at_least(0), required=True)
    c.add_argument("--trials", type=_int_at_least(1), default=100)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")

    h = sub.add_parser("heatmap", help="render a height as PPM/SVG")
    h.add_argument("--height", required=True, help="height JSON file")
    h.add_argument("--out", required=True)
    h.add_argument("--scale", type=_int_at_least(1), default=20)

    v = sub.add_parser("verify", help="run the property suite")
    v.add_argument("--out")
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.command = "kheights " + shlex.join(argv)
    # looked up per call, so that a replaced cmd_* function is the one run
    fn = globals()["cmd_" + args.cmd.replace("-", "_")]
    try:
        return fn(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, GraphError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
