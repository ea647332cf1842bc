from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kheights import _golden
from kheights.divergence import block_divergence, round_half_even
from kheights.enumeration import EnumerationCapError
from kheights.graphs import CaseTag, make_case_graph
from kheights.tables import (
    admissible_cases,
    case_divergence,
    hex_divergence,
    maximize_gap,
    regular_aggregates,
    reproduce_table,
    type1_cases,
    type2_cases,
)

SPOT_CASES = [
    CaseTag("type1", (1,), 3),
    CaseTag("type1", (1,), 6),
    CaseTag("type1", (1, 3), 5),
    CaseTag("type1", (1, 2, 4), 7),
    CaseTag("type2", (1,)),
    CaseTag("type2", (4,)),
    CaseTag("type2", (1, 8)),
]


REFERENCE_PAIRS = [(tag, k) for tag in SPOT_CASES for k in (2, 3)
                   # the scalar reference is slow on 9-slot cases at k=3
                   if not (tag.kind == "type2" and k == 3)]


@pytest.mark.parametrize("tag,k", REFERENCE_PAIRS, ids=str)
def test_vectorized_engine_matches_scalar_reference(tag, k):
    g, block, v = make_case_graph(tag)
    ref = block_divergence(g, block, v, k)
    fast = case_divergence(tag, k)
    assert fast.e_max == ref.e_max
    assert fast.omega_block == ref.omega_block
    assert fast.omega_boundary == ref.omega_boundary
    assert fast.witness == ref.witness


@pytest.mark.parametrize("k", [2, 3])
def test_golden_rows_spot(k):
    for tag in SPOT_CASES:
        rep = case_divergence(tag, k)
        key = ((k, tag.d, tag.neighbor_labels) if tag.kind == "type1"
               else (k, tag.neighbor_labels))
        table = (_golden.TYPE1_ROWS if tag.kind == "type1"
                 else _golden.TYPE2_ROWS)
        ob, obdry, e_str = table[key]
        assert rep.omega_block == ob
        assert rep.omega_boundary == obdry
        assert abs(rep.e_max_rounded() - float(e_str)) <= 1e-6


def test_hex_rows_exact():
    for k, (ob, obdry, e_str) in _golden.HEX_ROWS.items():
        rep = hex_divergence(k)
        assert rep.omega_block == ob
        assert rep.omega_boundary == obdry
        assert abs(rep.e_max_rounded() - float(e_str)) <= 1e-6


def test_hex_k2_exact_fraction():
    assert hex_divergence(2).e_max == Fraction(119, 149)
    assert hex_divergence(3).e_max == Fraction(3847, 2100)


def test_case_catalog_shapes():
    assert len(type1_cases()) == 63
    assert len(type2_cases()) == 54
    # every type-1 case appears for each degree 3..10
    degrees = {d for d, _ in type1_cases()}
    assert degrees == set(range(3, 11))


def test_reproduce_table_k0_trivial():
    for tid in ("rect", "hex", "type1", "type2"):
        rows = reproduce_table(tid, 0)
        assert len(rows) == 1
        assert rows[0].e_max == 0
        assert rows[0].omega_block == 1


def test_admissible_cases_filtering():
    two = admissible_cases("two")
    three = admissible_cases("three")
    dual = admissible_cases("dual4")
    assert len(dual) < len(three) < len(two)
    assert all(len(labels) == 1 for _kind, _d, labels in dual)
    for kind, d, labels in three:
        assert len(labels) == 1 or (
            len(labels) == 2 and (labels[1] - labels[0] == 1
                                  or (kind == "type1" and labels[0] == 1
                                      and labels[1] == d)))
    with pytest.raises(ValueError):
        admissible_cases("four")


def test_regular_aggregates_published_within_tolerance():
    # the 2-connected k=2 and 3-connected k=3 aggregates match the
    # published values; see test_acceptance for the full comparison
    agg = regular_aggregates("two", 2)
    assert abs(float(agg["bound"]) - 10.32755) < 1e-4
    agg3 = regular_aggregates("three", 3)
    assert abs(float(agg3["bound"]) - 2.489598) < 1e-4


def test_regular_aggregates_validation():
    with pytest.raises(ValueError):
        regular_aggregates("two", 3)
    with pytest.raises(ValueError):
        regular_aggregates("three", 4)


def test_case_tensor_cap():
    with pytest.raises(EnumerationCapError):
        case_divergence(CaseTag("type1", (1,), 10), 30)


def test_rounding_direction_of_reports():
    # table text is round-half-even at 6 decimals
    rep = case_divergence(CaseTag("type1", (1,), 6), 2)
    assert rep.e_max_rounded() == round_half_even(Fraction(119, 149), 6)


@st.composite
def gap_pairs(draw):
    """Cover-pair inputs of maximize_gap: small count/weight arrays of one
    shape under distinct keys in shuffled order."""
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    keys = draw(st.permutations(range(draw(st.integers(1, 3)))))

    def side():
        return (draw(arrays(dtype, shape, elements=st.integers(0, 2))),
                draw(arrays(dtype, shape, elements=st.integers(0, 9))))

    return [(key, side(), side()) for key in keys]


def _brute_max_gap(pairs):
    gaps = [
        (Fraction(int(w2[j]), int(c2[j])) - Fraction(int(w1[j]), int(c1[j])),
         j, key)
        for key, (c1, w1), (c2, w2) in pairs
        for j in np.ndindex(c1.shape) if c1[j] > 0 and c2[j] > 0
    ]
    if not gaps:
        return None
    best = max(g for g, _, _ in gaps)
    _, j, key = min(g for g in gaps if g[0] == best)
    return best, key, j


#: (count, weight) arrays of mean weight 0 and 1 at both indices
_MEAN0 = (np.array([[1, 1]]), np.array([[0, 0]]))
_MEAN1 = (np.array([[1, 1]]), np.array([[1, 1]]))


@settings(max_examples=200, deadline=None)
@given(gap_pairs())
# no extensible pair: every low count is zero
@example([(0, (np.zeros((1, 2)), np.ones((1, 2))), _MEAN1)])
# gap 1 at index (0, 1) of key 0 and at both indices of key 1: the tie
# resolves to the smallest index first, (0, 0) of key 1
@example([(0, (np.array([[0, 1]]), np.array([[0, 0]])), _MEAN1),
          (1, _MEAN0, _MEAN1)])
def test_maximize_gap_matches_brute_force(pairs):
    want = _brute_max_gap(pairs)
    if want is None:
        with pytest.raises(ValueError):
            maximize_gap(iter(pairs))
    else:
        assert maximize_gap(iter(pairs)) == want
