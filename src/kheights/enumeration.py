"""Counting and enumeration engines: transfer matrices, boundary
constraints, admissible fillings and their exact (count, total weight)
statistics via dynamic programming.

All counts and weights are exact Python integers; expected weights are
Fractions.  One layered transfer DP covers the block shapes used
throughout: paths, cycles, and 4-wide grid blocks.  Anything else falls
back to brute-force enumeration under a configurable cap.  This scalar
DP is the oracle for the vectorized table engines in
:mod:`kheights.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .graphs import Block, Graph
from .heights import (  # noqa: F401  (re-exported counting entry points)
    BoundaryConstraint,
    enumerate_cover_pairs,
    enumerate_heights,
)

#: raw-assignment cap for brute-force fallbacks
ENUMERATION_CAP = 1 << 26


class EnumerationCapError(RuntimeError):
    """Raised before a computation would exceed a size cap (exit 4)."""


def step_matrix(a, b=None, span: int = 1, dtype=object) -> np.ndarray:
    """0/1 matrix M[i, j] = 1 iff every coordinate of state a[i] lies
    within `span` of the same coordinate of state b[j] (b defaults to a).

    A state is a value (1-D input) or a value vector (a row of a 2-D
    input).  On the values {0..k}, span 1 gives the step matrix P of a
    path and span 2 the corner-jump matrix Q; on the valid 4-rows of a
    grid, span 1 gives the vertical compatibility matrix.  The default
    object dtype holds Python integers, so matrix powers stay exact.
    """
    a = np.asarray(a).reshape(len(a), -1)
    b = a if b is None else np.asarray(b).reshape(len(b), -1)
    near = np.all(np.abs(a[:, None, :] - b[None, :, :]) <= span, axis=2)
    return near.astype(np.int64).astype(dtype)


def count_cycle_heights(k: int, length: int) -> int:
    """Number of k-heights of a cycle of the given length: tr(P^L)."""
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    P = step_matrix(np.arange(k + 1))
    return int(np.trace(np.linalg.matrix_power(P, length)))


def count_path_heights(k: int, length: int) -> int:
    """Number of k-heights of a path on `length` vertices: 1^T P^{L-1} 1."""
    if length < 1:
        raise ValueError("path needs at least one vertex")
    P = step_matrix(np.arange(k + 1))
    ones = np.ones(k + 1, dtype=object)
    return int(ones @ np.linalg.matrix_power(P, length - 1) @ ones)


def count_rect_extensible(k: int) -> int:
    """Number of extensible boundary constraints of a 4x4 grid block.

    The boundary is a 16-cycle of alternating corner-jump/side steps;
    extensibility reduces to the trace of (P^3 Q)^4.
    """
    vals = np.arange(k + 1)
    P, Q = step_matrix(vals), step_matrix(vals, span=2)
    M = np.linalg.matrix_power(P, 3) @ Q
    return int(np.trace(np.linalg.matrix_power(M, 4)))


def _allowed_sets(graph: Graph, block: Block,
                  constraint: BoundaryConstraint, k: int) -> list[list[int]]:
    """Sorted allowed-value lists per block vertex implied by the pins."""
    return [sorted(s) for s in constraint.allowed(graph, block, k)]


@dataclass(frozen=True)
class FillingStats:
    """Exact |Omega_{B|X}| and the total weight of all fillings."""

    count: int
    total_weight: int

    @property
    def expected_weight(self) -> Fraction:
        if self.count == 0:
            raise ZeroDivisionError("no admissible fillings")
        return Fraction(self.total_weight, self.count)

    @property
    def extensible(self) -> bool:
        return self.count > 0


def row_states(cells: list[list[int]]) -> list[tuple[int, ...]]:
    """Value tuples of one grid row whose neighbours differ by <= 1."""
    return [vec for vec in product(*cells)
            if all(abs(a - b) <= 1 for a, b in zip(vec, vec[1:]))]


def _layered_dp(layers: list[list[tuple[int, ...]]]) -> dict:
    """Transfer DP over layers of states: maps each state s of the last
    layer to the (count, total weight) of the fillings that end in s,
    where a filling picks one state per layer and consecutive states
    differ by at most 1 in every cell."""
    f = {s: (1, sum(s)) for s in layers[0]}
    for states in layers[1:]:
        g = {}
        for s in states:
            c = w = 0
            for prev in product(*[(x - 1, x, x + 1) for x in s]):
                if prev in f:
                    cp, wp = f[prev]
                    c += cp
                    w += wp
            if c:
                g[s] = (c, w + c * sum(s))
        f = g
    return f


def _transfer_stats(shape: str, allowed: list[list[int]]) -> FillingStats:
    """Filling statistics of a path, a cycle (closed through its first
    vertex) or a grid of 4-wide rows, by the layered DP."""
    if shape == "grid":
        layers = [row_states(allowed[i: i + 4])
                  for i in range(0, len(allowed), 4)]
    else:
        layers = [[(x,) for x in vals] for vals in allowed]
    if shape != "cycle":
        ends = _layered_dp(layers).values()
        return FillingStats(sum(c for c, _ in ends), sum(w for _, w in ends))
    # a cycle is the path DP started at a fixed first value and closed
    count = weight = 0
    for first in layers[0]:
        for (last,), (c, w) in _layered_dp([[first]] + layers[1:]).items():
            if abs(last - first[0]) <= 1:
                count += c
                weight += w
    return FillingStats(count, weight)


def _brute_stats(graph: Graph, block: Block,
                 allowed: list[list[int]]) -> FillingStats:
    raw = 1
    for vals in allowed:
        raw *= max(len(vals), 1)
    if raw > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{raw} raw assignments exceed cap {ENUMERATION_CAP}; "
            "declare a DP shape or use counting operations"
        )
    verts = block.vertices
    pos = {v: i for i, v in enumerate(verts)}
    internal = [
        (pos[u], pos[v]) for u, v in graph.edges if u in pos and v in pos
    ]
    count = weight = 0
    for vec in product(*allowed):
        if all(abs(vec[i] - vec[j]) <= 1 for i, j in internal):
            count += 1
            weight += sum(vec)
    return FillingStats(count, weight)


def filling_stats(graph: Graph, block: Block,
                  constraint: BoundaryConstraint, k: int) -> FillingStats:
    """Exact count and total weight of admissible fillings of the block
    under the boundary constraint."""
    allowed = _allowed_sets(graph, block, constraint, k)
    if any(not a for a in allowed):
        return FillingStats(0, 0)
    m = len(block.vertices)
    if ((block.shape == "path" and m >= 1)
            or (block.shape == "cycle" and m >= 3)
            or (block.shape == "grid" and m % 4 == 0)):
        return _transfer_stats(block.shape, allowed)
    return _brute_stats(graph, block, allowed)


def enumerate_fillings(graph: Graph, block: Block,
                       constraint: BoundaryConstraint, k: int):
    """All admissible fillings as tuples in block-vertex order,
    lexicographic."""
    allowed = _allowed_sets(graph, block, constraint, k)
    if any(not a for a in allowed):
        return []
    verts = block.vertices
    pos = {v: i for i, v in enumerate(verts)}
    internal = [
        (pos[u], pos[v]) for u, v in graph.edges if u in pos and v in pos
    ]
    by_right = [[] for _ in verts]
    for i, j in internal:
        i, j = min(i, j), max(i, j)
        by_right[j].append(i)
    out = []
    vec = [0] * len(verts)

    def rec(i):
        if i == len(verts):
            out.append(tuple(vec))
            return
        for x in allowed[i]:
            if all(abs(vec[j] - x) <= 1 for j in by_right[i]):
                vec[i] = x
                rec(i + 1)

    rec(0)
    return out


def enumerate_boundary_constraints(graph: Graph, block: Block, k: int):
    """Stream all assignments of the boundary valid on the induced
    boundary subgraph, in lexicographic order of values."""
    from .graphs import boundary

    bdry = sorted(boundary(graph, block))
    internal = [
        (i, j)
        for i in range(len(bdry))
        for j in range(i + 1, len(bdry))
        if graph.has_edge(bdry[i], bdry[j])
    ]
    by_right = [[] for _ in bdry]
    for i, j in internal:
        by_right[j].append(i)
    vec = [0] * len(bdry)

    def rec(i):
        if i == len(bdry):
            yield BoundaryConstraint(tuple(zip(bdry, vec)))
            return
        for x in range(k + 1):
            if all(abs(vec[j] - x) <= 1 for j in by_right[i]):
                vec[i] = x
                yield from rec(i + 1)

    yield from rec(0)
