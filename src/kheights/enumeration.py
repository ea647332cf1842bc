"""Counting and enumeration engines: step matrices, boundary
constraints, admissible fillings and their exact (count, total weight)
statistics.

All counts and weights are exact Python integers; expected weights are
Fractions.  One layered DP, FillingRanker, covers the block shapes used
throughout (paths, cycles and 4-wide grid blocks): it counts a block's
fillings, weighs them, and unranks one in the order of
enumerate_fillings for the block chain.  Its one table, filling_ranker,
serves the block chain, filling_stats and the case tables alike.  Any
other block falls back to brute-force enumeration under a configurable
cap.  This scalar DP is the oracle for the vectorized table engines in
:mod:`kheights.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .graphs import (  # noqa: F401  (EnumerationCapError re-exported)
    Block,
    EnumerationCapError,
    Graph,
    boundary,
)
from .heights import BoundaryConstraint, assignments, earlier_neighbours

#: raw-assignment cap for brute-force fallbacks
ENUMERATION_CAP = 1 << 26


def step_matrix(a, b=None, span: int = 1, dtype=object) -> np.ndarray:
    """0/1 matrix M[i, j] = 1 iff every coordinate of state a[i] lies
    within `span` of the same coordinate of state b[j] (b defaults to a).

    A state is a value (1-D input) or a value vector (a row of a 2-D
    input).  On the values {0..k}, span 1 gives the step matrix P of a
    path and span 2 the corner-jump matrix Q; on the valid 4-rows of a
    grid, span 1 gives the vertical compatibility matrix.  The default
    object dtype holds Python integers, so matrix powers stay exact.
    """
    def states(x):
        x = np.asarray(x)
        return x[:, None] if x.ndim == 1 else x

    a = states(a)
    b = a if b is None else states(b)
    near = np.all(np.abs(a[:, None, :] - b[None, :, :]) <= span, axis=2)
    return near.astype(np.int64).astype(dtype)


def count_rect_extensible(k: int) -> int:
    """Number of extensible boundary constraints of a 4x4 grid block.

    The boundary is a 16-cycle of alternating corner-jump/side steps;
    extensibility reduces to the trace of (P^3 Q)^4.
    """
    vals = np.arange(k + 1)
    P, Q = step_matrix(vals), step_matrix(vals, span=2)
    M = np.linalg.matrix_power(P, 3) @ Q
    return int(np.trace(np.linalg.matrix_power(M, 4)))


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


def _layers(shape: str, ranges) -> list[tuple[tuple[int, ...], ...]]:
    """The DP layers of a path or cycle (one 1-tuple state per value of
    each vertex) or of a grid (the valid rows of each 4-wide row), each
    in lexicographic order, so that concatenating one state per layer
    lists fillings in the order of enumerate_fillings."""
    if shape == "grid":
        # each cell of a row sits next to the cell before it
        return [tuple(assignments(ranges[i: i + 4], ([], [0], [1], [2])))
                for i in range(0, len(ranges), 4)]
    return [tuple((x,) for x in range(lo, hi + 1)) for lo, hi in ranges]


@lru_cache(maxsize=1024)
def _links(states: tuple, nxt: tuple) -> tuple[tuple[int, ...], ...]:
    """links[i]: the ascending indices of the states of nxt that differ
    by at most 1 from states[i] in every cell (step_matrix).  Memoised:
    a layer pair depends only on the allowed values of its cells, which
    repeat across the blocks and boundaries of one run."""
    near = step_matrix(states, nxt, dtype=bool)
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in near)


def dp_shape(graph: Graph, block: Block) -> str | None:
    """block.shape when the layered DP covers the block: its size fits
    the shape and its internal edges are exactly the shape's (path
    i~i+1; cycle, plus 0~m-1; grid, i~i+1 within a row of 4 and
    i~i+4).  None otherwise."""
    m, shape = len(block.vertices), block.shape
    if shape == "path" and m >= 1:
        want = {(i, i + 1) for i in range(m - 1)}
    elif shape == "cycle" and m >= 3:
        want = {(i, i + 1) for i in range(m - 1)} | {(0, m - 1)}
    elif shape == "grid" and m >= 4 and m % 4 == 0:
        want = ({(i, i + 1) for i in range(m - 1) if i % 4 != 3}
                | {(i, i + 4) for i in range(m - 4)})
    else:
        return None
    pos = {v: i for i, v in enumerate(block.vertices)}
    adj = graph.adjacency()
    have = {(pos[v], pos[u]) for v in block.vertices for u in adj[v]
            if pos[v] < pos.get(u, -1)}
    return shape if have == want else None


class FillingRanker:
    """Count, total weight and lexicographic unrank of the fillings of a
    path, cycle or grid block (see dp_shape) whose vertices take values
    in the given inclusive (lo, hi) ranges.

    unrank(i) is enumerate_fillings(...)[i] for the same block and
    ranges, found from suffix counts of the layered DP, one layer at a
    time, without building the list.  A cycle is split by its first
    value, in ascending order, into paths that start at that value and
    end within 1 of it; they share the links of the layers.  The weight
    is worked out from the same suffix counts and links on first use.
    """

    def __init__(self, shape: str, ranges):
        layers = _layers(shape, ranges)
        self._layers = layers
        self._links = [_links(a, b) for a, b in zip(layers, layers[1:])]
        if shape == "cycle":
            starts = [[i] for i in range(len(layers[0]))]
            ends = [[int(abs(last - first) <= 1) for (last,) in layers[-1]]
                    for (first,) in layers[0]]
        else:
            starts = [range(len(layers[0]))]
            ends = [[1] * len(layers[-1])]
        self._parts = []
        for start, end in zip(starts, ends):
            # suffix[r][i]: fillings of layers r.. that start in state i
            suffix = [end]
            for js_of in reversed(self._links):
                after = suffix[-1].__getitem__
                suffix.append([sum(map(after, js)) for js in js_of])
            suffix.reverse()
            total = sum(suffix[0][i] for i in start)
            self._parts.append((total, start, suffix))
        self.count = sum(total for total, _, _ in self._parts)

    @cached_property
    def weight(self) -> int:
        """The sum of the values of all fillings, from suffix weights
        W[r][i] = suffix[r][i] * sum(state i) + the W[r + 1] of its
        links: the fillings of layers r.. that start in state i, weighed."""
        weight = 0
        for _, start, suffix in self._parts:
            wgt = [c * sum(s) for c, s in zip(suffix[-1], self._layers[-1])]
            for r in reversed(range(len(self._links))):
                after = wgt.__getitem__
                wgt = [c * sum(s) + sum(map(after, js)) for c, s, js
                       in zip(suffix[r], self._layers[r], self._links[r])]
            weight += sum(wgt[i] for i in start)
        return weight

    def unrank(self, idx: int) -> tuple[int, ...]:
        """The idx-th filling (0 <= idx < count) in lexicographic order."""
        for total, cand, suffix in self._parts:
            if idx < total:
                break
            idx -= total
        out = []
        for r, states in enumerate(self._layers):
            counts = suffix[r]
            for i in cand:
                if idx < counts[i]:
                    break
                idx -= counts[i]
            out += states[i]
            if r < len(self._links):
                cand = self._links[r][i]
        return tuple(out)


@lru_cache(maxsize=1024)
def filling_ranker(shape: str, ranges: tuple[tuple[int, int], ...]
                   ) -> FillingRanker:
    """The process-wide ranker table: the one FillingRanker of each
    distinct (shape, ranges) key, built on first use and the only place
    a FillingRanker is built.  A ranker depends on nothing else, so the
    block samplers of every graph and k, filling_stats and the case
    tables' omega_block share it; cache_info() counts its hits and
    misses.  Measured with tracemalloc in a fresh process, its links and
    weight included (a warm process reads less: CPython's free lists
    hand back tuples untraced), a ranker of a block-chain block holds at
    most ~5.2 KiB for a hex 6-cycle and ~51 KiB for a 4x4 grid at any k
    (a grid vertex with outside neighbours allows at most 3 values).
    The oracle's keys are wider: an unpinned 4x4 grid, the widest, holds
    ~18 KiB more per unit of k, at most 104 KiB at k=6.  So the 1024
    entries hold at most ~5.2 MiB of chain cycles, ~51 MiB of chain grids
    or 104 MiB of k=6 unpinned grids."""
    return FillingRanker(shape, ranges)


def filling_stats(graph: Graph, block: Block,
                  constraint: BoundaryConstraint, k: int) -> FillingStats:
    """Exact count and total weight of admissible fillings of the block
    under the boundary constraint: from the shared ranker table
    (filling_ranker) when the block's internal edges are those of its
    declared shape (dp_shape), else by enumerating them, refused past
    ENUMERATION_CAP raw assignments."""
    ranges = constraint.allowed(graph, block, k)
    if any(lo > hi for lo, hi in ranges):
        return FillingStats(0, 0)
    shape = dp_shape(graph, block)
    if shape is not None:
        ranker = filling_ranker(shape, tuple(ranges))
        return FillingStats(ranker.count, ranker.weight)
    raw = 1
    for lo, hi in ranges:
        raw *= hi - lo + 1
    if raw > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{raw} raw assignments exceed cap {ENUMERATION_CAP}; "
            "declare a DP shape or use counting operations"
        )
    count = weight = 0
    for vec in assignments(ranges, earlier_neighbours(graph, block.vertices)):
        count += 1
        weight += sum(vec)
    return FillingStats(count, weight)


def enumerate_fillings(graph: Graph, block: Block,
                       constraint: BoundaryConstraint, k: int):
    """All admissible fillings as tuples in block-vertex order,
    lexicographic."""
    return list(assignments(constraint.allowed(graph, block, k),
                            earlier_neighbours(graph, block.vertices)))


def enumerate_boundary_constraints(graph: Graph, block: Block, k: int):
    """Stream all assignments of the boundary valid on the induced
    boundary subgraph, in lexicographic order of values."""
    bdry = sorted(boundary(graph, block))
    for vec in assignments([(0, k)] * len(bdry),
                           earlier_neighbours(graph, bdry)):
        yield BoundaryConstraint(tuple(zip(bdry, vec)))
