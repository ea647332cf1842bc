from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kheights.graphs import Block, Graph
from kheights.heights import (
    BoundaryConstraint,
    CoverPair,
    KHeight,
    assignments,
    earlier_neighbours,
    enumerate_cover_pairs,
    enumerate_heights,
    is_valid,
)

from conftest import small_graphs

GRAPHS = small_graphs()


@st.composite
def graph_and_heights(draw, count=2):
    g = draw(st.sampled_from(GRAPHS))
    k = draw(st.integers(min_value=0, max_value=2))
    all_heights = list(enumerate_heights(g, k))
    picks = [draw(st.sampled_from(all_heights)) for _ in range(count)]
    return g, k, picks


@given(graph_and_heights(count=2))
@settings(max_examples=60, deadline=None)
def test_meet_join_are_heights_and_bound(data):
    g, k, (a, b) = data
    x, y = KHeight(g, k, a), KHeight(g, k, b)
    m, j = x.meet(y), x.join(y)
    assert is_valid(g, m.values, k) and is_valid(g, j.values, k)
    assert m <= x <= j and m <= y <= j


@given(graph_and_heights(count=3))
@settings(max_examples=60, deadline=None)
def test_distributive_lattice_laws(data):
    g, k, (a, b, c) = data
    x, y, z = (KHeight(g, k, v) for v in (a, b, c))
    assert x.meet(y).values == y.meet(x).values
    assert x.join(y.join(z)).values == x.join(y).join(z).values
    assert x.meet(x.join(y)).values == x.values
    assert x.join(x.meet(y)).values == x.values
    # distributivity
    assert (x.meet(y.join(z)).values
            == x.meet(y).join(x.meet(z)).values)


@given(graph_and_heights(count=2))
@settings(max_examples=60, deadline=None)
def test_delta_is_a_metric_compatible_with_lattice(data):
    g, k, (a, b) = data
    x, y = KHeight(g, k, a), KHeight(g, k, b)
    assert x.delta(y) == y.delta(x) >= 0
    assert (x.delta(y) == 0) == (a == b)
    # going through meet decomposes the distance
    m = x.meet(y)
    assert x.delta(y) == x.delta(m) + m.delta(y)


def test_kheight_validates():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        KHeight(g, 2, (0, 2))
    with pytest.raises(ValueError):
        KHeight(g, 1, (0, -1))
    assert KHeight.constant(g, 3, 2).weight() == 4


def test_cover_pair_contract(path3):
    x = KHeight(path3, 2, (0, 1, 1))
    y = x.with_value(0, 1)
    pair = CoverPair(x, y)
    assert pair.vertex == 0
    with pytest.raises(ValueError):
        CoverPair(y, x)
    with pytest.raises(ValueError):
        CoverPair(x, x)


def test_enumerate_heights_counts(path3):
    assert len(list(enumerate_heights(path3, 2))) == 17
    single = Graph.from_edges(1, [])
    assert len(list(enumerate_heights(single, 4))) == 5


def test_enumerate_heights_lexicographic(path3):
    hs = list(enumerate_heights(path3, 1))
    assert hs == sorted(hs)
    assert len(set(hs)) == len(hs)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_assignments_match_filtered_product(data):
    """The DFS lists exactly the in-range tuples that keep every edge
    within 1, in the lexicographic order of itertools.product."""
    g = data.draw(st.sampled_from(GRAPHS))
    order = data.draw(st.permutations(range(g.n)))
    ranges = []
    for _ in order:
        lo = data.draw(st.integers(0, 3))
        ranges.append((lo, data.draw(st.integers(lo - 1, 4))))
    pos = {v: i for i, v in enumerate(order)}
    want = [x for x in product(*(range(lo, hi + 1) for lo, hi in ranges))
            if all(abs(x[pos[u]] - x[pos[v]]) <= 1 for u, v in g.edges)]
    assert list(assignments(ranges, earlier_neighbours(g, order))) == want


def test_enumerate_cover_pairs_consistency(cycle4):
    k = 2
    pairs = list(enumerate_cover_pairs(cycle4, k))
    for lo, hi, v in pairs:
        assert is_valid(cycle4, lo, k) and is_valid(cycle4, hi, k)
        assert hi[v] == lo[v] + 1
        assert all(a == b for i, (a, b) in enumerate(zip(lo, hi)) if i != v)
    # every comparable-by-one pair appears exactly once
    assert len(set(pairs)) == len(pairs)


def test_boundary_constraint_allowed(path3):
    block = Block(vertices=(1,), shape="path")
    c = BoundaryConstraint(((0, 2), (2, 0)))
    allowed = c.allowed(path3, block, 2)
    assert allowed == [(1, 1)]
    c2 = BoundaryConstraint(((0, 0), (2, 2)))
    assert c2.allowed(path3, block, 2) == [(1, 1)]
    c3 = BoundaryConstraint(((0, 0),))
    assert c3.allowed(path3, block, 2) == [(0, 1)]
    # no value lies within 1 of both 0 and 3: lo > hi
    c4 = BoundaryConstraint(((0, 0), (2, 3)))
    assert c4.allowed(path3, block, 3) == [(2, 1)]


def test_boundary_constraint_from_height(path3):
    h = KHeight(path3, 2, (0, 1, 2))
    c = BoundaryConstraint.from_height(h, [2, 0])
    assert c.values == ((0, 0), (2, 2))
