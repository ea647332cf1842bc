"""Self-contained property suite behind the `verify` command.

Each check returns (id, passed, detail); the suite is a fast subset of
the full test suite, meant as a smoke test on a fresh installation.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from .chains import updown_result
from .coupling import cftp_sample, expected_coupled_updown_distance, strassen_joint
from .divergence import expected_gap
from .enumeration import (
    block_structure,
    count_rect_extensible,
    enumerate_fillings,
)
from .graphs import CaseTag, Graph, make_case_graph
from .heights import BoundaryConstraint, KHeight, enumerate_heights
from .tables import hex_divergence


def _check_lattice_laws() -> tuple[bool, str]:
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    heights = [KHeight(g, 2, v) for v in enumerate_heights(g, 2)]
    rnd = random.Random(0)
    for _ in range(200):
        x, y, z = (rnd.choice(heights) for _ in range(3))
        if x.meet(y).values != y.meet(x).values:
            return False, "meet not commutative"
        if x.join(y).join(z).values != x.join(y.join(z)).values:
            return False, "join not associative"
        if x.meet(x.join(y)).values != x.values:
            return False, "absorption fails"
        if not (x.meet(y) <= x <= x.join(y)):
            return False, "order inconsistent with meet/join"
    return True, f"{len(heights)} heights on a 4-cycle"


def _check_trace_counts() -> tuple[bool, str]:
    ok = (count_rect_extensible(2) == 2825761
          and count_rect_extensible(3) == 15784802)
    return ok, "tr((QP^3)^4) for k=2,3"


def _check_hex_row() -> tuple[bool, str]:
    rep = hex_divergence(2)
    ok = (rep.omega_block == 199 and rep.omega_boundary == 729
          and rep.e_max == Fraction(119, 149))
    return ok, f"E_max = {rep.e_max}"


def _check_dominance_flows() -> tuple[bool, str]:
    g, block, v = make_case_graph(CaseTag("type1", (1,), 6))
    k = 2
    (bdry,) = block_structure(g, (block,)).bdry
    rnd = random.Random(1)
    tried = 0
    for _ in range(200):
        vals = {u: rnd.randrange(k + 1) for u in bdry}
        if vals[v] >= k:
            continue
        lo = BoundaryConstraint(tuple(sorted(vals.items())))
        hi_vals = dict(vals)
        hi_vals[v] += 1
        hi = BoundaryConstraint(tuple(sorted(hi_vals.items())))
        fl = enumerate_fillings(g, block, lo, k)
        fh = enumerate_fillings(g, block, hi, k)
        if not fl or not fh:
            continue
        joint = strassen_joint(fl, fh)
        if joint.expected_delta() != expected_gap(g, block, lo, hi, k):
            return False, "flow coupling disagrees with marginal gap"
        tried += 1
    return tried > 0, f"{tried} cover pairs"


def _check_distance_bfs() -> tuple[bool, str]:
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    k = 2
    states = [KHeight(g, k, v) for v in enumerate_heights(g, k)]
    index = {s.values: i for i, s in enumerate(states)}
    # BFS over single up/down moves
    adjacency = [[] for _ in states]
    for i, s in enumerate(states):
        for v in range(g.n):
            for d in (-1, 1):
                t = list(s.values)
                if updown_result(t, g.adjacency(), k, v, d):
                    adjacency[i].append(index[tuple(t)])
    for i, s in enumerate(states):
        dist = {i: 0}
        frontier = [i]
        while frontier:
            nxt = []
            for a in frontier:
                for b in adjacency[a]:
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        for j, t in enumerate(states):
            if dist.get(j) != s.delta(t):
                return False, f"delta != BFS at pair {i},{j}"
    return True, f"{len(states)} states on the 3-path"


def _check_cftp_uniform() -> tuple[bool, str]:
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    states = list(enumerate_heights(g, 2))
    n = 1700
    cnt = Counter(cftp_sample(g, 2, seed=s).values for s in range(n))
    expected = n / len(states)
    chi2 = sum((cnt.get(s, 0) - expected) ** 2 / expected for s in states)
    # df=16, 99.9% critical value 39.25
    return chi2 < 39.25, f"chi2 = {chi2:.1f} over {len(states)} states"


def _check_noncontraction_witness() -> tuple[bool, str]:
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    x = KHeight(g, 3, (1, 0, 1))
    y = KHeight(g, 3, (1, 2, 1))
    val = expected_coupled_updown_distance(x, y)
    return val == Fraction(13, 6), f"E[delta'] = {val}"


CHECKS = [
    ("lattice_laws", _check_lattice_laws),
    ("trace_counts", _check_trace_counts),
    ("hex_divergence_row", _check_hex_row),
    ("dominance_flow_identity", _check_dominance_flows),
    ("distance_bfs_oracle", _check_distance_bfs),
    ("cftp_uniformity", _check_cftp_uniform),
    ("noncontraction_witness", _check_noncontraction_witness),
]


def run_verification() -> dict:
    checks = []
    for cid, fn in CHECKS:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure with its message
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append({"id": cid, "passed": bool(passed), "detail": detail})
    return {"checks": checks, "passed": all(c["passed"] for c in checks)}
