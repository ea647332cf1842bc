"""Vectorized table engines: block-divergence maximization over the full
boundary-constraint space for the case catalog (paths/cycles with pinned
boundary slots) and for 4x4 grid blocks.

The engines compute, for every assignment of the non-pivot boundary
vertices and every pivot value, the exact (count, total weight) of
admissible fillings via tensor dynamic programming, then maximize the
expected-weight gap over all extensible cover pairs.  Floats are used
only as a prefilter; every candidate maximum is confirmed with exact
integer arithmetic (all DP values stay far below 2^53, so the float
tensors are themselves exact).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np

from . import _golden
from .divergence import DivergenceReport
from .enumeration import (
    ENUMERATION_CAP,
    EnumerationCapError,
    count_cycle_heights,
    count_path_heights,
    count_rect_extensible,
    step_matrix,
)
from .graphs import CaseTag, case_slots
from .heights import BoundaryConstraint

# relative float margin below the running maximum within which candidates
# are re-checked exactly
_PREFILTER_MARGIN = 1e-9

#: entries of the two (t, t, t, t) float64 rect tensors together above
#: which rect_stat_tensors refuses to allocate (2^28 entries = 2 GiB);
#: k=4 needs 2 * 95^4 = 1.6e8, k=5 already 2 * 122^4 = 4.4e8
RECT_TENSOR_CAP = 1 << 28


def _axis_mask(P: np.ndarray, axis: int, m: int) -> np.ndarray:
    """P[c, y] broadcast to (...axes..., frontier): value axis `axis`
    against the trailing frontier axis."""
    K = P.shape[0]
    shape = [1] * (m + 1)
    shape[axis] = K
    shape[m] = K
    return P.reshape(shape)


def _case_tensors(tag: CaseTag, k: int, pivot_value: int):
    """(count, weight) int64 tensors of shape (K,)*m indexed by the
    values of the m non-pivot boundary slots, for the pivot fixed at
    pivot_value."""
    K = k + 1
    d = tag.d
    slots = case_slots(tag)
    m = len(slots)
    if K ** (m + 1) > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"case tensor of {K}^{m + 1} entries exceeds the cap")
    P = step_matrix(np.arange(K), dtype=np.int64)
    labels0 = {l - 1 for l in tag.neighbor_labels}
    pins = [[a for a, bv in enumerate(slots) if bv == i] for i in range(d)]
    masks = [_axis_mask(P, a, m) for a in range(m)]
    yvals = np.arange(K, dtype=np.int64)

    def apply_pins(cnt, wgt, vertex):
        for a in pins[vertex]:
            cnt = cnt * masks[a]
            wgt = wgt * masks[a]
        if vertex in labels0:
            cnt = cnt * P[pivot_value]
            wgt = wgt * P[pivot_value]
        return cnt, wgt

    def sweep(cnt, wgt, vertices):
        for i in vertices:
            cnt = cnt @ P
            wgt = wgt @ P
            cnt, wgt = apply_pins(cnt, wgt, i)
            wgt = wgt + cnt * yvals
        return cnt, wgt

    base_shape = (K,) * m + (K,)
    if tag.kind == "type2":
        cnt = np.ones(base_shape, dtype=np.int64)
        cnt, _ = apply_pins(cnt, cnt, 0)
        wgt = cnt * yvals
        cnt, wgt = sweep(cnt, wgt, range(1, d))
        return cnt.sum(axis=-1), wgt.sum(axis=-1)

    # cycle: condition on the first vertex's value
    tot_c = np.zeros((K,) * m, dtype=np.int64)
    tot_w = np.zeros((K,) * m, dtype=np.int64)
    for first in range(K):
        cnt = np.zeros(base_shape, dtype=np.int64)
        cnt[..., first] = 1
        cnt, _ = apply_pins(cnt, cnt, 0)
        wgt = cnt * first
        cnt, wgt = sweep(cnt, wgt, range(1, d))
        close = P[:, first]
        tot_c += (cnt * close).sum(axis=-1)
        tot_w += (wgt * close).sum(axis=-1)
    return tot_c, tot_w


def maximize_gap(pairs):
    """Exact maximum of the expected-weight gap w_hi/c_hi - w_lo/c_lo.

    `pairs` yields (key, (c_lo, w_lo), (c_hi, w_hi)): count and total
    weight arrays, all of one shape, of the low and high side of a cover
    pair at every index; an index counts only where both counts are
    positive.  A float pass keeps the entries within _PREFILTER_MARGIN of
    the running float maximum, holding one gap array at a time; each
    survivor is re-checked with Fractions.  Returns (Fraction, key, index
    tuple); ties resolve to the smallest (index, key).  Raises ValueError
    when no index of any pair is extensible.
    """
    def floor(best):
        return best - _PREFILTER_MARGIN * max(1.0, abs(best))

    best_f = -np.inf
    kept = []  # (key, lo, hi, indices, float gaps) above the floor so far
    for key, lo, hi in pairs:
        (c1, w1), (c2, w2) = lo, hi
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.where((c1 > 0) & (c2 > 0), w2 / c2 - w1 / c1, -np.inf)
        mx = gap.max()
        best_f = max(best_f, mx)
        if mx > -np.inf and mx >= floor(best_f):
            near = gap >= floor(best_f)
            kept.append((key, lo, hi, np.argwhere(near), gap[near]))
        del gap
    if best_f == -np.inf:
        raise ValueError("no extensible cover pair")
    # the floor only rises, so the survivors of the final floor are
    # exactly the entries a pass over all gap arrays at once would keep
    exact = [
        (Fraction(int(w2[j]), int(c2[j])) - Fraction(int(w1[j]), int(c1[j])),
         j, key)
        for key, (c1, w1), (c2, w2), idx, g in kept
        for j in map(tuple, idx[g >= floor(best_f)].tolist())
    ]
    best = max(e for e, _, _ in exact)
    _, j, key = min(c for c in exact if c[0] == best)
    return best, key, j


@cache
def case_divergence(tag: CaseTag, k: int) -> DivergenceReport:
    """Block divergence of a catalog case, maximized over all boundary
    cover pairs pivoted at the external vertex.  Memoised on (tag, k):
    the aggregates and tables ask for the same cases many times."""
    d = tag.d
    stats = [_case_tensors(tag, k, p) for p in range(k + 1)]
    e_max, x, slot_vals = maximize_gap(
        (p, stats[p], stats[p + 1]) for p in range(k))
    m = len(case_slots(tag))
    if tag.kind == "type1":
        omega_block = count_cycle_heights(k, d)
    else:
        omega_block = count_path_heights(k, d)
    witness = (
        BoundaryConstraint(
            tuple(sorted([(d, x)] + [(d + 1 + a, v)
                                     for a, v in enumerate(slot_vals)]))),
        d,
    )
    return DivergenceReport(
        k=k, case_id=str(tag), omega_block=omega_block,
        omega_boundary=(k + 1) ** (m + 1), e_max=e_max, witness=witness,
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


def _row_vectors(k: int) -> np.ndarray:
    """All (k+1)-ary 4-vectors with adjacent entries differing by <= 1."""
    K = k + 1
    vals = np.indices((K, K, K, K)).reshape(4, -1).T
    ok = np.all(np.abs(np.diff(vals, axis=1)) <= 1, axis=1)
    return vals[ok]


def rect_stat_tensors(k: int):
    """(count, weight) float64 arrays of shape (t, t, t, t) indexed by the
    (top, left, right, bottom) boundary path sequences of a 4x4 block.

    Boundary paths and block rows share the same valid-sequence list of
    length t.  All entries are integers below 2^53, hence exact.  Raises
    EnumerationCapError, before allocating, when the two tensors would
    hold more than RECT_TENSOR_CAP entries.
    """
    rows = _row_vectors(k)
    t = len(rows)
    if 2 * t ** 4 > RECT_TENSOR_CAP:
        raise EnumerationCapError(
            f"rect tensors of 2 * {t}^4 entries exceed the cap "
            f"{RECT_TENSOR_CAP}")
    rowsum = rows.sum(axis=1).astype(np.float64)
    # V[s, r]: row r may sit below row s; pointwise |s_j - r_j| <= 1 is
    # also how the top and bottom boundary paths pin the outer rows
    V = step_matrix(rows, dtype=np.float64)
    # side masks: boundary sequence s pins the left (right) block column
    # cell of row i
    A = [step_matrix(rows[:, i], rows[:, 0], dtype=np.float64)
         for i in range(4)]
    Bm = [step_matrix(rows[:, i], rows[:, 3], dtype=np.float64)
          for i in range(4)]
    S_cnt = np.empty((t, t, t, t), dtype=np.float64)
    S_wgt = np.empty((t, t, t, t), dtype=np.float64)
    for ti in range(t):
        # axes: (left seq, right seq, current row state)
        cnt = V[ti][None, None, :] * A[0][:, None, :] * Bm[0][None, :, :]
        wgt = cnt * rowsum
        for i in range(1, 4):
            cnt = cnt @ V
            wgt = wgt @ V
            mask = A[i][:, None, :] * Bm[i][None, :, :]
            cnt = cnt * mask
            wgt = wgt * mask + cnt * rowsum
        # close with the bottom path
        S_cnt[ti] = cnt @ V.T
        S_wgt[ti] = wgt @ V.T
    return rows, S_cnt, S_wgt


def rect_divergence(k: int) -> DivergenceReport:
    """Full divergence maximization for the 4x4 block: maximum over the
    two symmetry-distinct pivot positions (path end and path middle) of
    the top boundary path."""
    rows, S_cnt, S_wgt = rect_stat_tensors(k)
    index = {tuple(v): i for i, v in enumerate(rows)}

    def pairs():
        for pos in (0, 1):
            for i, v in enumerate(rows):
                w = list(v)
                w[pos] += 1
                j = index.get(tuple(w))
                if j is not None:
                    yield (pos, i), (S_cnt[i], S_wgt[i]), (S_cnt[j], S_wgt[j])

    e_max, _, _ = maximize_gap(pairs())
    V = step_matrix(rows)
    ones = np.ones(len(rows), dtype=object)
    return DivergenceReport(
        k=k, case_id="rect4x4",
        omega_block=int(ones @ np.linalg.matrix_power(V, 3) @ ones),
        omega_boundary=count_rect_extensible(k),
        e_max=e_max, witness=None,
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

