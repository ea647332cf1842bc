from fractions import Fraction
from itertools import product

import pytest

from kheights.divergence import (
    DivergenceReport,
    NonExtensibleError,
    block_divergence,
    expected_gap,
    iter_cover_pairs,
)
from kheights.graphs import Block, CaseTag, Graph, boundary, make_case_graph
from kheights.heights import BoundaryConstraint


def test_e_max_rounded_ties_to_even():
    def rounded(e_max):
        return DivergenceReport(2, "x", 1, 1, e_max, None).e_max_rounded()

    assert rounded(Fraction(1, 3)) == 0.333333
    assert rounded(Fraction(2, 3)) == 0.666667
    # exact ties at the 7th decimal go to the even 6th
    assert rounded(Fraction(25, 10 ** 7)) == 0.000002
    assert rounded(Fraction(-25, 10 ** 7)) == -0.000002
    assert rounded(Fraction(35, 10 ** 7)) == 0.000004
    assert rounded(Fraction(25, 10 ** 7) + Fraction(1, 10 ** 30)) == 0.000003
    assert rounded(Fraction(0)) == 0.0


def test_iter_cover_pairs_structure():
    g, block, v = make_case_graph(CaseTag("type1", (1,), 3))
    pairs = list(iter_cover_pairs(g, block, v, 1))
    for lo, hi in pairs:
        dlo, dhi = lo.as_dict(), hi.as_dict()
        assert dhi[v] == dlo[v] + 1
        assert all(dlo[u] == dhi[u] for u in dlo if u != v)
    # k=1: pivot takes value 0 for the low side only
    assert all(lo.as_dict()[v] == 0 for lo, _ in pairs)


def _fan_vertex_block():
    # the boundary of block (0,) is the path 1 - 2 - 3; the pivot 3 sees
    # only 2, so a rest assignment that breaks the edge 1 - 2 can still
    # leave the pivot a cover pair
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    return g, Block((0,), shape="path"), 3


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", [
    lambda: make_case_graph(CaseTag("type1", (1,), 3)),
    lambda: make_case_graph(CaseTag("type1", (2,), 5)),
    lambda: make_case_graph(CaseTag("type1", (1, 3), 6)),
    _fan_vertex_block,
], ids=["1_3[1]", "1_5[2]", "1_6[1,3]", "fan"])
def test_iter_cover_pairs_match_filtered_product(case, k):
    """Every boundary cover pair at the pivot, from the product of all
    rest assignments and pivot values filtered by the boundary edges, in
    the same order."""
    g, block, v = case()
    bdry = sorted(boundary(g, block))
    rest = [u for u in bdry if u != v]

    def valid(vals):
        return all(abs(vals[a] - vals[b]) <= 1 for a, b in g.edges
                   if a in vals and b in vals)

    want = []
    for env in product(range(k + 1), repeat=len(rest)):
        for x in range(k):
            low = {**dict(zip(rest, env)), v: x}
            high = {**low, v: x + 1}
            if valid(low) and valid(high):
                want.append((tuple(sorted(low.items())),
                             tuple(sorted(high.items()))))
    got = [(lo.values, hi.values)
           for lo, hi in iter_cover_pairs(g, block, v, k)]
    assert got == want


def test_iter_cover_pairs_needs_boundary_pivot():
    g, block, _v = make_case_graph(CaseTag("type1", (1,), 3))
    with pytest.raises(ValueError):
        list(iter_cover_pairs(g, block, 0, 1))


def test_expected_gap_nonextensible_raises():
    # middle vertex of a 3-path squeezed between pins 0 and 3 (k=3):
    # no value is within 1 of both
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    block = Block(vertices=(1,), shape="path")
    lo = BoundaryConstraint(((0, 0), (2, 3)))
    hi = BoundaryConstraint(((0, 1), (2, 3)))
    with pytest.raises(NonExtensibleError):
        expected_gap(g, block, lo, hi, 3)


def test_block_divergence_small_triangle():
    g, block, v = make_case_graph(CaseTag("type1", (1,), 3))
    rep = block_divergence(g, block, v, 2, case_id="1_3[1]")
    assert rep.omega_block == 15
    assert rep.omega_boundary == 27
    assert rep.e_max == Fraction(8, 11)
    assert rep.e_max_rounded() == 0.727273
    lo_constraint, pivot = rep.witness
    assert pivot == v


def test_block_divergence_counts_boundary_with_internal_edge():
    # the boundary {1, 2} of block (0,) in a triangle has the edge 1~2:
    # 7 of the 9 assignments at k=2 keep it within 1
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    rep = block_divergence(g, Block((0,), shape="path"), 1, 2)
    assert rep.omega_block == 3
    assert rep.omega_boundary == 7


def test_block_divergence_monotone_in_reference():
    """The maximum over a subset of cover pairs never exceeds E_max."""
    g, block, v = make_case_graph(CaseTag("type1", (1,), 4))
    k = 2
    rep = block_divergence(g, block, v, k)
    for lo, hi in iter_cover_pairs(g, block, v, k):
        try:
            gap = expected_gap(g, block, lo, hi, k)
        except NonExtensibleError:
            continue
        assert gap <= rep.e_max


def test_witness_achieves_maximum():
    g, block, v = make_case_graph(CaseTag("type1", (2,), 5))
    k = 2
    rep = block_divergence(g, block, v, k)
    lo, pivot = rep.witness
    hi_vals = dict(lo.values)
    hi_vals[pivot] += 1
    hi = BoundaryConstraint(tuple(sorted(hi_vals.items())))
    assert expected_gap(g, block, lo, hi, k) == rep.e_max
