from fractions import Fraction

import pytest

from kheights.divergence import (
    NonExtensibleError,
    block_divergence,
    expected_gap,
    iter_cover_pairs,
    round_half_even,
)
from kheights.graphs import Block, CaseTag, Graph, make_case_graph
from kheights.heights import BoundaryConstraint


def test_round_half_even():
    assert round_half_even(Fraction(1, 3), 6) == 0.333333
    assert round_half_even(Fraction(2, 3), 6) == 0.666667
    assert round_half_even(Fraction(1, 2), 0) == 0.0
    assert round_half_even(Fraction(3, 2), 0) == 2.0
    assert round_half_even(Fraction(25, 1000), 2) == 0.02
    assert round_half_even(Fraction(35, 1000), 2) == 0.04


def test_iter_cover_pairs_structure():
    g, block, v = make_case_graph(CaseTag("type1", (1,), 3))
    pairs = list(iter_cover_pairs(g, block, v, 1))
    for lo, hi in pairs:
        dlo, dhi = lo.as_dict(), hi.as_dict()
        assert dhi[v] == dlo[v] + 1
        assert all(dlo[u] == dhi[u] for u in dlo if u != v)
    # k=1: pivot takes value 0 for the low side only
    assert all(lo.as_dict()[v] == 0 for lo, _ in pairs)


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
