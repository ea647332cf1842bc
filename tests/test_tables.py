import hashlib
import math
import tracemalloc
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kheights import _golden, tables
from kheights.divergence import block_divergence
from kheights.enumeration import (
    EnumerationCapError,
    filling_stats,
    step_matrix,
)
from kheights.graphs import (
    CaseTag,
    case_slots,
    make_case_graph,
    make_toroidal_rect,
    rect_block_family,
)
from kheights.heights import BoundaryConstraint
from kheights.tables import (
    _case_stats,
    _frontier_dp,
    admissible_cases,
    case_divergence,
    hex_divergence,
    maximize_gap,
    regular_aggregates,
    rect_stat_tensors,
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


REFERENCE_PAIRS = [(tag, k) for tag in SPOT_CASES for k in (0, 2, 3)
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


def test_reproduce_table_unknown_id():
    with pytest.raises(ValueError, match="unknown table id 'nope'"):
        reproduce_table("nope", 2)


def test_reproduce_table_k0_trivial():
    # the engines return 0 with no witness at k=0, and every row carries
    # its own id
    ids = {"rect": ["rect4x4"], "hex": ["hex"],
           "type1": [str(CaseTag("type1", labels, d))
                     for d, labels in type1_cases()],
           "type2": [str(CaseTag("type2", labels))
                     for labels in type2_cases()]}
    for tid, want in ids.items():
        rows = reproduce_table(tid, 0)
        assert [rep.case_id for rep in rows] == want
        for rep in rows:
            assert (rep.e_max, rep.omega_block, rep.omega_boundary,
                    rep.witness) == (0, 1, 1, None)


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
    # table text is E_max = 119/149 = 0.7986577... at 6 decimals
    rep = case_divergence(CaseTag("type1", (1,), 6), 2)
    assert rep.e_max == Fraction(119, 149)
    assert rep.e_max_rounded() == 0.798658


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


@settings(max_examples=100, deadline=None)
@given(gap_pairs())
def test_maximize_gap_keeps_no_array_references(pairs):
    # every pair is handed out in one buffer that is overwritten as soon
    # as the next pair is asked for, as a streaming producer may do
    want = _brute_max_gap(pairs)
    assume(want is not None)
    c1 = pairs[0][1][0]

    def reused():
        buf = np.empty((4,) + c1.shape, c1.dtype)
        for key, lo, hi in pairs:
            buf[:] = lo + hi
            yield key, (buf[0], buf[1]), (buf[2], buf[3])
            buf[:] = 1 - buf

    assert maximize_gap(reused()) == want


def test_maximize_gap_refuses_quotients_past_the_prefilter_margin():
    # mean weights near 2^45 are 2^-7 apart as floats, far coarser than
    # the margin of 1e-9 below a gap of 1
    big = float(2 ** 45)
    low = (np.array([1.0]), np.array([big]))
    high = (np.array([1.0]), np.array([big + 1]))
    with pytest.raises(EnumerationCapError, match="prefilter"):
        maximize_gap(iter([(0, low, high)]))


#: sha256 over (k, case id, exact e_max, witness) of every row below, in
#: this order; recorded before the tensor engines were merged into one
TABLE_INPUTS = ([("type1", k) for k in (2, 3)] + [("type2", k) for k in (2, 3)]
                + [("hex", k) for k in range(2, 7)]
                + [("rect", k) for k in (1, 2, 3)])
TABLE_DIGEST = (
    "0d393db35b67338dc1def152acfb764642c5abcdf623c4cdfe62b56f80f09d7c")


def test_exact_table_rows_pinned():
    h = hashlib.sha256()
    for table_id, k in TABLE_INPUTS:
        for rep in reproduce_table(table_id, k):
            h.update(repr((k, rep.case_id, str(rep.e_max),
                           rep.witness)).encode() + b"\n")
    assert h.hexdigest() == TABLE_DIGEST


@cache
def _case_graph(tag):
    return make_case_graph(tag)


@st.composite
def case_entries(draw):
    """A catalog case, k <= 3 and one (pivot, slot values) index."""
    if draw(st.booleans()):
        d, labels = draw(st.sampled_from(type1_cases()))
        tag = CaseTag("type1", labels, d)
    else:
        tag = CaseTag("type2", draw(st.sampled_from(type2_cases())))
    k = draw(st.integers(1, 3))
    m = len(case_slots(tag))
    return tag, k, draw(st.tuples(*[st.integers(0, k)] * (m + 1)))


@settings(max_examples=60, deadline=None)
@given(case_entries())
def test_case_engine_matches_scalar_dp(entry):
    tag, k, (pivot, *slot_vals) = entry
    g, block, v = _case_graph(tag)
    pins = [(v, pivot)] + [(v + 1 + a, x) for a, x in enumerate(slot_vals)]
    want = filling_stats(g, block, BoundaryConstraint(tuple(pins)), k)
    cnt, wgt = _case_stats(tag, k)
    index = (pivot, *slot_vals)
    assert (cnt[index], wgt[index]) == (want.count, want.total_weight)


_RECT = make_toroidal_rect(8, 8)
#: the block at x, y in 0..3; its rows are y = 0..3
_RECT_BLOCK = rect_block_family(_RECT).blocks[0]


@lru_cache(maxsize=16)  # a k=3 (count, weight) slice pair is 5 MB
def _rect_slice(k, top):
    rows, top_slice = rect_stat_tensors(k)
    return rows, top_slice(top)


@st.composite
def rect_entries(draw):
    """k in {1, 2} and a (top, left, right, bottom) index of the rect
    slices of that k."""
    k = draw(st.integers(1, 2))
    t = len(rect_stat_tensors(k)[0])
    return k, draw(st.tuples(*[st.integers(0, t - 1)] * 4))


@settings(max_examples=60, deadline=None)
@given(rect_entries())
def test_rect_engine_matches_scalar_dp(entry):
    k, (top_i, *rest) = entry
    rows, (cnt, wgt) = _rect_slice(k, top_i)
    top, left, right, bottom = (rows[i].tolist() for i in (top_i, *rest))
    pins = ([(7 * 8 + x, top[x]) for x in range(4)]
            + [(4 * 8 + x, bottom[x]) for x in range(4)]
            + [(y * 8 + 7, left[y]) for y in range(4)]
            + [(y * 8 + 4, right[y]) for y in range(4)])
    want = filling_stats(_RECT, _RECT_BLOCK,
                         BoundaryConstraint(tuple(sorted(pins))), k)
    assert (cnt[tuple(rest)], wgt[tuple(rest)]) == (want.count,
                                                    want.total_weight)


@cache
def _four_axis_slices(k):
    """top_slice with the left and right paths as full (t, {row: cell
    mask}) axes joined at row 0: an independent DP to check the sequence
    axes against."""
    rows = rect_stat_tensors(k)[0]
    t = len(rows)
    V = step_matrix(rows, dtype=np.int64)
    left, right = ((t, {r: step_matrix(rows[:, r], rows[:, col],
                                       dtype=np.int64) for r in range(4)})
                   for col in (0, 3))

    def top_slice(i):
        cnt, wgt = _frontier_dp(V, rows.sum(axis=1), 4,
                                [(1, {0: V[i:i + 1]}), left, right,
                                 (t, {3: V})])
        return cnt[0], wgt[0]

    return top_slice


def _assert_slice_matches_four_axis_oracle(k, i):
    cnt, wgt = rect_stat_tensors(k)[1](i)
    want_cnt, want_wgt = _four_axis_slices(k)(i)
    assert np.array_equal(cnt, want_cnt) and np.array_equal(wgt, want_wgt)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rect_half_slices_match_four_axis_oracle(k):
    rows = rect_stat_tensors(k)[0]
    for i in np.flatnonzero(rows.sum(axis=1) <= 2 * k):
        _assert_slice_matches_four_axis_oracle(k, i)


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 94))  # t = 95 top paths at k=4
def test_rect_slices_match_four_axis_oracle_k4(i):
    _assert_slice_matches_four_axis_oracle(4, i)


@st.composite
def rect_flips(draw):
    """k in 1..3, a top path index and the index of its flip x -> k - x
    among the rect slices of that k."""
    k = draw(st.integers(1, 3))
    rows = rect_stat_tensors(k)[0]
    index = {tuple(v): i for i, v in enumerate(rows.tolist())}
    flip = [index[tuple(k - v)] for v in rows]
    return k, flip, draw(st.integers(0, len(rows) - 1))


@settings(max_examples=30, deadline=None)
@given(rect_flips())
def test_rect_slice_flip_symmetry(entry):
    # the identity rect_max halves its slices by: the fillings under the
    # flipped paths are the flipped fillings, of weight 16k - w each
    k, flip, i = entry
    _, (cnt, wgt) = _rect_slice(k, i)
    _, (cnt_f, wgt_f) = _rect_slice(k, flip[i])
    at = np.ix_(flip, flip, flip)  # [l, r, b] -> [flip l, flip r, flip b]
    assert np.array_equal(cnt_f[at], cnt)
    assert np.array_equal(wgt_f[at], 16 * k * cnt - wgt)


def _rect_max_oracle(k):
    """rect_max over every top path: each cover pair of top paths that
    differ at the first or second cell, all slices computed."""
    rows, top_slice = rect_stat_tensors(k)
    paths = [tuple(v) for v in rows.tolist()]
    index = {v: i for i, v in enumerate(paths)}

    def pairs():
        window = {}  # top index -> slice, the last three computed
        for j in sorted(range(len(paths)), key=lambda i: paths[i][::-1]):
            if len(window) == 3:
                del window[next(iter(window))]
            window[j] = top_slice(j)
            for pos in (0, 1):
                low = list(paths[j])
                low[pos] -= 1
                i = index.get(tuple(low))
                if i is not None:
                    yield (pos, i), window[i], window[j]

    return maximize_gap(pairs())[0]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rect_max_matches_unhalved_oracle(k):
    assert tables.rect_max(k) == _rect_max_oracle(k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rect_divergence_computes_each_slice_once(k, monkeypatch):
    computed = []

    def counting(k):
        rows, top_slice = rect_stat_tensors(k)

        def counted(i):
            computed.append(i)
            return top_slice(i)

        return rows, counted

    monkeypatch.setattr(tables, "rect_stat_tensors", counting)
    tables.rect_max.cache_clear()  # compute, not recall
    rep = tables.rect_divergence(k)
    # only the top paths of cell sum at most 2k, none of them twice
    rows = rect_stat_tensors(k)[0]
    assert sorted(computed) == [i for i, v in enumerate(rows)
                                if v.sum() <= 2 * k]
    if k == 4:  # the exact maximum that criterion 04 pins
        assert rep.e_max == Fraction(338454163, 149011239)


def test_rect_divergence_memory_is_a_few_slices():
    # t = 68 at k=3: one (count, weight) slice pair is 5 MB, the two
    # t^4 tensors it replaced 340 MB
    tables.rect_max.cache_clear()  # compute, not recall
    tracemalloc.start()
    try:
        tables.rect_divergence(3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_type1_case_sums_its_passes_in_place():
    # 1_10[1] at k=3 is the largest case of an exact_tables pass: its
    # passes' sums reuse the first pass's arrays, ~5 tensors of 4^10
    # entries at the peak (40 MiB) where a copy of them made ~7 (56 MiB)
    case_divergence.cache_clear()  # compute, not recall
    tracemalloc.start()
    try:
        case_divergence(CaseTag("type1", (1,), 10), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 44 * 2 ** 20


def test_rect_slice_cap():
    # k=6 (t=149) is the last k whose slices _check_frontier admits;
    # neither call computes a slice
    assert len(rect_stat_tensors(6)[0]) == 149
    with pytest.raises(EnumerationCapError):
        rect_stat_tensors(7)


def test_rect_charges_its_slices_before_listing_a_row(monkeypatch):
    # rect_stat_tensors makes one _check_frontier call, before it lists
    # the rows, with the closed-form row and prefix counts
    listed, charged = [], []
    enumerate_heights = tables.enumerate_heights

    def listing(*args):
        listed.append(args)
        return enumerate_heights(*args)

    def charge(*args):
        charged.append((args, len(listed)))

    monkeypatch.setattr(tables, "enumerate_heights", listing)
    monkeypatch.setattr(tables, "_check_frontier", charge)
    for k in range(13):
        listed.clear()
        charged.clear()
        rows = rect_stat_tensors(k)[0].tolist()
        t = len(rows)
        # the side paths are charged their valid prefixes by length
        side = ([len({tuple(v[:n]) for v in rows}) for n in range(1, 5)],
                range(4))
        axes = [(1, [0]), side, side, (t, [3])]
        assert charged == [((t, 4, axes, t, "rect"), 0)]
        assert len(listed) == 1


def _brute_frontier(T, weight, layers, axes):
    """_frontier_dp by summing over every state sequence; a sequence
    axis's values are its valid cell sequences listed by product(),
    that is, in lexicographic order."""
    def cells(n):  # each value's mask row at every layer
        if np.ndim(n) == 0:
            return [(i,) * layers for i in range(n)]
        return [c for c in product(range(len(n)), repeat=layers)
                if all(n[a][b] for a, b in zip(c, c[1:]))]

    values = [cells(n) for n, _ in axes]
    shape = tuple(len(v) for v in values)
    cnt = np.zeros(shape, dtype=object)
    wgt = np.zeros(shape, dtype=object)
    for seq in product(range(len(weight)), repeat=layers):
        f = math.prod(int(T[a, b]) for a, b in zip(seq, seq[1:]))
        w = sum(int(weight[s]) for s in seq)
        for idx in np.ndindex(*shape):
            g = f * math.prod(
                int(mask[values[a][idx[a]][layer], seq[layer]])
                for a, (_, masks) in enumerate(axes)
                for layer, mask in masks.items())
            cnt[idx] += g
            wgt[idx] += g * w
    return cnt, wgt


def test_frontier_dp_matches_brute_force():
    T = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    weight = np.array([1, 7, 5])
    # a sequence axis over the cells 0, 1 with no two 0s in a row: its 8
    # values 0101, 0110, ..., 1111 join as 2, 3, 5 and 8 prefixes, and
    # each layer's mask reads its own cell
    no_00 = np.array([[0, 1], [1, 1]])
    cells = {0: np.array([[1, 0, 1], [0, 1, 1]]),
             1: np.array([[1, 2, 0], [0, 1, 1]]),
             2: np.array([[0, 1, 1], [1, 0, 1]]),
             3: np.array([[1, 1, 1], [1, 0, 0]])}
    axes = [(3, {0: T, 2: np.eye(3, dtype=int)}),  # joins, masked again
            (no_00, cells),
            (2, {1: np.array([[1, 0, 1], [0, 1, 1]])}),
            (3, {3: T}),  # two closing axes with distinct masks
            (2, {3: np.array([[1, 1, 0], [0, 0, 1]])})]
    cnt, wgt = _frontier_dp(T, weight, 4, axes)
    want_cnt, want_wgt = _brute_frontier(T, weight, 4, axes)
    assert cnt.shape == (3, 8, 2, 3, 2)
    assert np.array_equal(cnt, want_cnt) and np.array_equal(wgt, want_wgt)
    # the entry bound here is 3^4 sequences x 2, the largest entry of the
    # sequence axis's masks, x 4 layers x the heaviest state: the heaviest
    # weight that keeps it below 2^53 still runs exactly, one more is
    # refused before float64 could round
    w = (2 ** 53 - 1) // (3 ** 4 * 2 * 4)
    heavy = np.array([1, w, 5])
    cnt, wgt = _frontier_dp(T, heavy, 4, axes)
    assert np.array_equal(wgt, _brute_frontier(T, heavy, 4, axes)[1])
    with pytest.raises(EnumerationCapError, match="2\\^53"):
        _frontier_dp(T, np.array([1, w + 1, 5]), 4, axes)
