from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kheights.graphs import Graph
from kheights.heights import (
    CoverPair,
    KHeight,
    assignments,
    earlier_neighbours,
    enumerate_cover_pairs,
    enumerate_heights,
    is_valid,
    value_ranges,
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
    y = KHeight(path3, 2, (1, 1, 1))
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


def _value_ranges_reference(values, nbr_lists, k):
    out = []
    for nbrs in nbr_lists:
        lo, hi = 0, k
        for u in nbrs:
            lo = max(lo, values[u] - 1)
            hi = min(hi, values[u] + 1)
        out.append((lo, hi))
    return out


@given(k=st.integers(0, 4),
       values=st.lists(st.integers(-1, 6), min_size=1, max_size=6),
       picks=st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=5),
       as_dict=st.booleans())
@settings(max_examples=200, deadline=None)
@example(k=2, values=[0], picks=[[]], as_dict=False)
@example(k=2, values=[0, 3], picks=[[0, 1], []], as_dict=True)
@example(k=0, values=[2], picks=[[0]], as_dict=False)
def test_value_ranges_match_max_min(k, values, picks, as_dict):
    """value_ranges is the max/min narrowing of [0, k], on a state list
    or a dict of pinned values: an empty list keeps (0, k), and a range
    that no value satisfies stays empty (lo > hi)."""
    nbr_lists = [[u % len(values) for u in nbrs] for nbrs in picks]
    source = dict(enumerate(values)) if as_dict else values
    assert (value_ranges(source, nbr_lists, k)
            == _value_ranges_reference(values, nbr_lists, k))


def test_enumerate_cover_pairs_consistency(cycle4):
    k = 2
    pairs = list(enumerate_cover_pairs(cycle4, k))
    for lo, hi, v in pairs:
        assert is_valid(cycle4, lo, k) and is_valid(cycle4, hi, k)
        assert hi[v] == lo[v] + 1
        assert all(a == b for i, (a, b) in enumerate(zip(lo, hi)) if i != v)
    # every comparable-by-one pair appears exactly once
    assert len(set(pairs)) == len(pairs)
