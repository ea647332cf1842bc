"""Vectorized table engines: block-divergence maximization over the full
boundary-constraint space for the case catalog (paths/cycles with pinned
boundary slots) and for 4x4 grid blocks.

One frontier DP (_frontier_dp) computes, for every assignment of the
boundary vertices, the exact (count, total weight) of admissible
fillings: the states are values for a case and valid 4-rows for the
grid, and each boundary vertex is an axis that joins the tensor where
it pins the block.  It runs in float64 and refuses (EnumerationCapError)
any input whose entries it cannot bound below 2^53.  The outermost
boundary axis is streamed: a type-1 cycle runs one pass per value of its
first vertex, and the 4x4 grid one (t, t, t) slice per top boundary
path, of which rect_max holds three at a time.  Then the
expected-weight gap is maximized over all extensible cover pairs; floats
are only a prefilter there, and every candidate maximum is confirmed
with exact integers.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np

from . import _golden
from .divergence import DivergenceReport
from .enumeration import (
    ENUMERATION_CAP,
    EnumerationCapError,
    FillingRanker,
    count_rect_extensible,
    step_matrix,
)
from .graphs import CaseTag, Graph, case_slots
from .heights import BoundaryConstraint, enumerate_heights

# relative float margin below the running maximum within which candidates
# are re-checked exactly
_PREFILTER_MARGIN = 1e-9

#: entries of one (t, t, t) float64 rect slice above which
#: rect_stat_tensors refuses to compute (2^22 entries = 32 MiB a tensor);
#: k=6 needs 149^3 = 3.3e6, k=7 already 176^3 = 5.5e6
RECT_SLICE_CAP = 1 << 22

#: multiply-adds one _frontier_dp call may spend, and a catalogue case
#: on all its passes together (_case_stats checks before it builds
#: anything).  The rate runs from ~1.5e9 a second (d=7 cycles, k=19) to
#: ~2.2e10 (d=3, k=925) on a 2-core x86 box, so 2^42 = 4.4e12 is three
#: minutes or more.  Every case within the entry cap and the 2^53 bound
#: up to k=221 fits; hex k=19 spends 1.05e11.  The rect table
#: is bounded per slice by RECT_SLICE_CAP.
FRONTIER_WORK_CAP = 1 << 42


def _frontier_cost(S: int, layers: int, axes) -> tuple[int, int]:
    """(entries of the largest tensor, multiply-adds) of one _frontier_dp
    call with S states per layer, for axes given as (size, masked
    layers): a matmul per layer on the frontier, which grows by each
    axis at its first masked layer, and one for the closing axes."""
    last = layers - 1
    closing = [a for a, (_, m) in enumerate(axes) if set(m) == {last}]
    joined = math.prod(n for a, (n, _) in enumerate(axes) if a not in closing)
    closed = math.prod(axes[a][0] for a in closing)
    work, frontier = 0, 1
    for layer in range(layers):
        if layer:
            work += 2 * frontier * S * S
        frontier *= math.prod(n for a, (n, m) in enumerate(axes)
                              if a not in closing and min(m) == layer)
    work += 2 * frontier * S * closed
    return max(joined * S, joined * closed, closed * S), work


def _check_frontier(S: int, layers: int, axes, calls: int = 1) -> None:
    """Raise EnumerationCapError when a tensor of `calls` _frontier_dp
    calls of this shape would exceed ENUMERATION_CAP entries, or the
    calls together FRONTIER_WORK_CAP multiply-adds."""
    largest, work = _frontier_cost(S, layers, axes)
    if largest > ENUMERATION_CAP:
        raise EnumerationCapError(f"frontier tensor of {largest} entries "
                                  f"exceeds the cap {ENUMERATION_CAP}")
    if calls * work > FRONTIER_WORK_CAP:
        raise EnumerationCapError(
            f"{calls * work} multiply-adds exceed the cap "
            f"{FRONTIER_WORK_CAP}")


def _frontier_dp(T, weight, layers: int, axes, checked: bool = False):
    """Exact (count, weight) float64 tensors of a layered filling DP over
    integer inputs, indexed by its boundary axes in list order.

    A filling takes one of S states per layer, T[s, r] between layers,
    and weighs the sum of weight[s] over its states.  An axis (size,
    {layer: mask}) multiplies it by mask[a, s] at each listed layer.  It
    joins the frontier at its first mask, or, if masked at the last layer
    only, is contracted with that layer by one matmul.  Raises
    EnumerationCapError before allocating (_check_frontier, unless the
    caller has `checked` this shape already) or when an entry could
    reach 2^53.
    """
    S, last = len(weight), layers - 1
    sizes = [size for size, _ in axes]
    closing = [a for a, (_, m) in enumerate(axes) if set(m) == {last}]
    if not checked:
        _check_frontier(S, layers, axes)

    def top(a):
        return int(np.abs(np.asarray(a)).max(initial=0))

    # count <= S^layers times the largest entries of T and the masks;
    # weight <= count times the heaviest filling
    count = S ** layers * top(T) ** last * math.prod(
        top(mask) for _, m in axes for mask in m.values())
    if count * max(1, layers * top(weight)) >= 1 << 53:
        raise EnumerationCapError("frontier entries may reach 2^53, past "
                                  "the exact range of float64")
    T, weight = np.asarray(T, np.float64), np.asarray(weight, np.float64)

    present, cnt, wgt = [], np.ones(S), None
    for layer in range(layers):
        if layer:
            cnt = (cnt.reshape(-1, S) @ T).reshape(cnt.shape)
            wgt = (wgt.reshape(-1, S) @ T).reshape(wgt.shape)
        here = [a for a, (_, m) in enumerate(axes)
                if layer in m and a not in closing]
        if here:
            new = [a for a in here if a not in present]
            present += new
            mask = 1
            for a in here:
                shape = [1] * len(present) + [S]
                shape[present.index(a)] = sizes[a]
                mask = mask * np.asarray(axes[a][1][layer],
                                         np.float64).reshape(shape)
            grown = cnt.shape[:-1] + (1,) * len(new) + (S,)
            if wgt is None:  # first layer: the frontier is all ones
                cnt = mask
            else:
                cnt = cnt.reshape(grown) * mask
                wgt = wgt.reshape(grown) * mask
        wgt = cnt * weight if wgt is None else wgt + cnt * weight

    close = np.ones((1, S))
    for a in closing:
        mask = np.asarray(axes[a][1][last], np.float64)
        close = (close[:, None, :] * mask[None, :, :]).reshape(-1, S)
    shape = cnt.shape[:-1] + tuple(sizes[a] for a in closing)
    cnt = (cnt.reshape(-1, S) @ close.T).reshape(shape)
    wgt = (wgt.reshape(-1, S) @ close.T).reshape(shape)
    order = present + closing
    perm = [order.index(a) for a in range(len(axes))]
    return cnt.transpose(perm), wgt.transpose(perm)


def _case_stats(tag: CaseTag, k: int):
    """(count, weight) tensors of a catalog case indexed by the pivot
    value and then the value of each slot of case_slots(tag)."""
    K, d = k + 1, tag.d
    # masked layers of the pivot axis, then of each boundary slot; the
    # budget is checked before the K x K step matrix is built
    at = [[i - 1 for i in tag.neighbor_labels]]
    at += [[bv] for bv in case_slots(tag)]
    if tag.kind == "type2":
        _check_frontier(K, d, [(K, m) for m in at])
    else:
        _check_frontier(K, d, [(K, m) for m in at] + [(1, [0, d - 1])],
                        calls=K)
    P = step_matrix(np.arange(K), dtype=np.int64)
    axes = [(K, dict.fromkeys(m, P)) for m in at]
    if tag.kind == "type2":
        return _frontier_dp(P, np.arange(K), d, axes, checked=True)
    # a cycle is summed over the value f of its first vertex, one pass
    # each: a size-1 axis pins vertex 0 to f and vertex d-1 within 1 of
    # it.  The passes count each filling once, so their sum stays below
    # the bound that _frontier_dp checks for one pass.
    I, cnt, wgt = np.eye(K, dtype=np.int64), 0, 0
    for f in range(K):
        first = (1, {0: I[f:f + 1], d - 1: P[f:f + 1]})
        c, w = _frontier_dp(P, np.arange(K), d, axes + [first],
                            checked=True)
        cnt, wgt = cnt + c[..., 0], wgt + w[..., 0]
    return cnt, wgt


def maximize_gap(pairs):
    """Exact maximum of the expected-weight gap w_hi/c_hi - w_lo/c_lo.

    `pairs` yields (key, (c_lo, w_lo), (c_hi, w_hi)): count and total
    weight arrays, all of one shape, of the low and high side of a cover
    pair at every index; an index counts only where both counts are
    positive.  A float pass keeps, of each pair, the flat indices within
    _PREFILTER_MARGIN of the running float maximum with copies of their
    four entries, so no array outlives its pair and the generator may
    free or overwrite it; the survivors are compared exactly by integer
    cross-multiplication, and only the winner becomes a Fraction.
    Returns (Fraction, key, index tuple); ties resolve to the smallest
    (index, key).  Raises ValueError when no index of any pair is
    extensible.
    """
    def floor(best):
        return best - _PREFILTER_MARGIN * max(1.0, abs(best))

    best_f = -np.inf
    kept = []  # (key, flat indices, float gaps, entries) above the floor
    for key, (c1, w1), (c2, w2) in pairs:
        shape = np.shape(c1)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.where((c1 > 0) & (c2 > 0), w2 / c2 - w1 / c1, -np.inf)
        mx = gap.max()
        best_f = max(best_f, mx)
        if mx > -np.inf and mx >= floor(best_f):
            flat = np.flatnonzero(gap >= floor(best_f))
            entries = [np.asarray(x).flat[flat] for x in (c1, w1, c2, w2)]
            kept.append((key, flat, gap.flat[flat], entries))
        del gap
    if best_f == -np.inf:
        raise ValueError("no extensible cover pair")
    # the floor only rises, so the survivors of the final floor are
    # exactly the entries a pass over all gap arrays at once would keep.
    # Flat (C-order) indices compare like index tuples.  The entries are
    # integers below 2^53 (_frontier_dp), so int() of their floats is
    # exact.
    best = None  # (numerator, denominator, flat index, key) of the gap
    for key, flat, g, entries in kept:
        near = g >= floor(best_f)
        cols = (x[near].tolist() for x in entries)
        for f, *entry in zip(flat[near].tolist(), *cols):
            # w2/c2 - w1/c1 = (c1*w2 - c2*w1) / (c1*c2)
            ca, wa, cb, wb = map(int, entry)
            num, den = ca * wb - cb * wa, ca * cb
            if best is not None:
                cross = num * best[1] - best[0] * den
                if cross < 0 or (cross == 0 and (f, key) >= best[2:]):
                    continue
            best = (num, den, f, key)
    num, den, f, key = best
    j = tuple(int(i) for i in np.unravel_index(f, shape))
    return Fraction(num, den), key, j


@cache
def case_divergence(tag: CaseTag, k: int) -> DivergenceReport:
    """Block divergence of a catalog case, maximized over all boundary
    cover pairs pivoted at the external vertex.  Memoised on (tag, k):
    the aggregates and tables ask for the same cases many times."""
    d = tag.d
    cnt, wgt = _case_stats(tag, k)
    e_max, x, slot_vals = maximize_gap(
        (p, (cnt[p], wgt[p]), (cnt[p + 1], wgt[p + 1])) for p in range(k))
    pins = [(d, x)] + [(d + 1 + a, v) for a, v in enumerate(slot_vals)]
    shape = "cycle" if tag.kind == "type1" else "path"
    return DivergenceReport(
        k=k, case_id=str(tag),
        omega_block=FillingRanker(shape, [(0, k)] * d).count,
        # the boundary vertices are independent: one entry per assignment
        omega_boundary=cnt.size, e_max=e_max,
        witness=(BoundaryConstraint(tuple(sorted(pins))), d),
    )


def hex_divergence(k: int) -> DivergenceReport:
    """Divergence row for the 6-vertex hexagonal-grid block.

    Locally the block is a 6-cycle with one distinct boundary pin per
    vertex and the pivot adjacent to a single block vertex, so the case
    engine applies verbatim.
    """
    return replace(case_divergence(CaseTag("type1", (1,), 6), k),
                   case_id="hex")


def type1_cases() -> list[tuple[int, tuple[int, ...]]]:
    """Canonical (d, labels) case list, one per symmetry class."""
    return sorted({(d, labels) for (_k, d, labels) in _golden.TYPE1_ROWS})


def type2_cases() -> list[tuple[int, ...]]:
    return sorted({labels for (_k, labels) in _golden.TYPE2_ROWS})


def reproduce_table(table_id: str, k: int,
                    cases=None) -> list[DivergenceReport]:
    """Compute one table's rows: table_id in {rect, hex, type1, type2}."""
    if k == 0:
        # the all-zero height is the only one; no cover pair exists and
        # the divergence is 0 by convention
        return [DivergenceReport(k=0, case_id=table_id, omega_block=1,
                                 omega_boundary=1, e_max=Fraction(0),
                                 witness=None)]
    if table_id == "hex":
        return [hex_divergence(k)]
    if table_id == "rect":
        return [rect_divergence(k)]
    if table_id == "type1":
        rows = cases if cases is not None else type1_cases()
        return [case_divergence(CaseTag("type1", labels, d), k)
                for d, labels in rows]
    if table_id == "type2":
        rows = cases if cases is not None else type2_cases()
        return [case_divergence(CaseTag("type2", labels), k)
                for labels in rows]
    raise ValueError(f"unknown table id {table_id!r}")


# ---------------------------------------------------------------------------
# 4x4 grid blocks


def rect_stat_tensors(k: int):
    """(rows, top_slice) of a 4x4 block: the valid 4-rows of length t,
    and a function that computes, for the top boundary path rows[i],
    the (count, weight) float64 arrays of shape (t, t, t) indexed by the
    (left, right, bottom) boundary path sequences.

    Boundary paths and block rows share the same valid-sequence list.
    Each slice is one _frontier_dp call over the four block rows, with
    the top path as a size-1 axis, so the entries are exact (that call
    checks their bound against 2^53); nothing is kept between calls.
    Raises EnumerationCapError, before computing anything, when one
    slice would hold more than RECT_SLICE_CAP entries.
    """
    # the valid 4-rows are the k-heights of a 4-vertex path
    rows = np.array(list(enumerate_heights(
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), k)))
    t = len(rows)
    if t ** 3 > RECT_SLICE_CAP:
        raise EnumerationCapError(f"rect slices of {t}^3 entries exceed "
                                  f"the cap {RECT_SLICE_CAP}")
    # V[s, r]: row r may sit below row s; pointwise |s_j - r_j| <= 1 is
    # also how the top and bottom boundary paths pin the outer rows
    V = step_matrix(rows, dtype=np.int64)
    # side axes: sequence s pins the left (right) column cell of row i
    left, right = ((t, {i: step_matrix(rows[:, i], rows[:, col],
                                       dtype=np.int64) for i in range(4)})
                   for col in (0, 3))
    bottom = (t, {3: V})

    def top_slice(i: int):
        top = (1, {0: V[i:i + 1]})
        cnt, wgt = _frontier_dp(V, rows.sum(axis=1), 4,
                                [top, left, right, bottom])
        return cnt[0], wgt[0]

    return rows, top_slice


@cache
def rect_max(k: int) -> Fraction:
    """Exact E_max of the 4x4 block: the maximum over the two
    symmetry-distinct pivot positions (path end and path middle) of the
    top boundary path.  Memoised on k, like case_divergence: the table
    and the bound ask for the same k.

    The top paths are visited in colexicographic order (last cell most
    significant), where a path's cover partners, its first or second
    cell +1, follow it within two places; so each slice is computed once
    and only the last three are held.
    """
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

    e_max, _, _ = maximize_gap(pairs())
    return e_max


def rect_divergence(k: int) -> DivergenceReport:
    """Divergence row of the 4x4 block: the memoised rect_max and the
    block and boundary counts."""
    rows, _ = rect_stat_tensors(k)
    # the block's fillings: the same DP without boundary axes
    omega_block, _ = _frontier_dp(step_matrix(rows, dtype=np.int64),
                                  rows.sum(axis=1), 4, [])
    return DivergenceReport(
        k=k, case_id="rect4x4", omega_block=int(omega_block),
        omega_boundary=count_rect_extensible(k),
        e_max=rect_max(k), witness=None,
    )


# ---------------------------------------------------------------------------
# aggregate bounds for 3-regular planar families


def _consecutive(kind: str, d: int, labels: tuple[int, ...]) -> bool:
    if len(labels) != 2:
        return False
    a, b = labels
    if kind == "type1":
        return b - a == 1 or (a == 1 and b == d)
    return b - a == 1


def admissible_cases(connectivity: str):
    """Case list for an aggregate bound: 2-connected admits everything,
    3-connected only single-neighbor and consecutive-pair cases, duals of
    4-connected triangulations only single-neighbor cases."""
    t1 = [("type1", d, labels) for d, labels in type1_cases()]
    t2 = [("type2", 8, labels) for labels in type2_cases()]
    allcases = t1 + t2
    if connectivity == "two":
        return allcases
    if connectivity == "three":
        return [
            (kind, d, labels) for kind, d, labels in allcases
            if len(labels) == 1 or _consecutive(kind, d, labels)
        ]
    if connectivity == "dual4":
        return [c for c in allcases if len(c[2]) == 1]
    raise ValueError(f"unknown connectivity class {connectivity!r}")


def regular_aggregates(connectivity: str, k: int) -> dict:
    """Per-vertex membership-minus-divergence lower bound for the block
    family of a 3-regular planar graph (all faces of degree <= 10 as
    8-fold blocks plus 8-vertex windows of larger faces).

    Every vertex lies in exactly 24 blocks.  The bound subtracts, from
    24, the worst-case sum of (E_{B,v} - 1) over the at-most-30 blocks
    whose boundary contains v, split into the per-neighbor rate E* and
    (for the more connected classes) the 6 same-face window blocks whose
    divergence is the single-end window case.
    """
    if k not in (2, 3):
        raise ValueError("aggregate tables exist for k in {2, 3} only")
    if connectivity == "two" and k != 2:
        raise ValueError("the 2-connected aggregate is stated for k=2 only")
    e_star = None
    e_star_case = None
    for kind, d, labels in admissible_cases(connectivity):
        e = case_divergence(CaseTag(kind, labels, d), k).e_max
        rate = (e - 1) / len(labels)
        if e_star is None or rate > e_star:
            e_star, e_star_case = rate, (kind, d, labels)
    report = {
        "connectivity": connectivity,
        "k": k,
        "e_star": e_star,
        "e_star_case": e_star_case,
        "m_vertex": 24,
    }
    if connectivity == "two":
        report["bound"] = Fraction(24) - 30 * e_star
    else:
        e_h = case_divergence(CaseTag("type2", (1,)), k).e_max
        report["e_window_end"] = e_h
        report["bound"] = Fraction(24) - 6 * (e_h - 1) - 24 * e_star
    return report

