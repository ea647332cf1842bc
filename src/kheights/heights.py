"""k-heights: bounded graph homomorphism-like labellings and their lattice.

A k-height of a graph G is a map phi: V -> {0, ..., k} whose values differ
by at most 1 across every edge.  Under pointwise min and max the k-heights
of a connected graph form a distributive lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Block, Graph


def is_valid(graph: Graph, values, k: int) -> bool:
    """True iff values is a k-height of graph."""
    if len(values) != graph.n:
        return False
    if any(not 0 <= x <= k for x in values):
        return False
    return all(abs(values[u] - values[v]) <= 1 for u, v in graph.edges)


@dataclass(frozen=True)
class KHeight:
    """An immutable k-height; construction validates the edge constraints."""

    graph: Graph
    k: int
    values: tuple[int, ...]

    def __post_init__(self):
        if not is_valid(self.graph, self.values, self.k):
            raise ValueError("not a valid k-height")

    @classmethod
    def constant(cls, graph: Graph, k: int, value: int) -> "KHeight":
        return cls(graph, k, (value,) * graph.n)

    def weight(self) -> int:
        return sum(self.values)

    def meet(self, other: "KHeight") -> "KHeight":
        self._check_compatible(other)
        return KHeight(
            self.graph, self.k, tuple(map(min, self.values, other.values))
        )

    def join(self, other: "KHeight") -> "KHeight":
        self._check_compatible(other)
        return KHeight(
            self.graph, self.k, tuple(map(max, self.values, other.values))
        )

    def delta(self, other: "KHeight") -> int:
        """L1 distance between two k-heights."""
        self._check_compatible(other)
        return sum(abs(a - b) for a, b in zip(self.values, other.values))

    def __le__(self, other: "KHeight") -> bool:
        self._check_compatible(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def _check_compatible(self, other):
        if other.graph is not self.graph and other.graph != self.graph:
            raise ValueError("k-heights on different graphs")
        if other.k != self.k:
            raise ValueError("k-heights with different k")


@dataclass(frozen=True)
class BoundaryConstraint:
    """Fixed values on the boundary vertices of a block.

    values maps boundary vertex -> value.  A filling of the block is
    compatible when every block/boundary edge still has value gap <= 1.
    """

    values: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.values)

    def allowed(self, graph: Graph, block: Block,
                k: int) -> list[tuple[int, int]]:
        """Per block vertex (in block order), the inclusive (lo, hi) range
        of values permitted by the pinned neighbours (see value_ranges);
        lo > hi when none is."""
        fixed = self.as_dict()
        adj = graph.adjacency()
        pins = [[u for u in adj[bv] if u in fixed] for bv in block.vertices]
        return value_ranges(fixed, pins, k)


@dataclass(frozen=True)
class CoverPair:
    """Two k-heights X <= Y with delta(X, Y) = 1 (Y covers X)."""

    low: KHeight
    high: KHeight

    def __post_init__(self):
        if not (self.low <= self.high) or self.low.delta(self.high) != 1:
            raise ValueError("not a cover pair")

    @property
    def vertex(self) -> int:
        """The single vertex where the two heights differ."""
        for v, (a, b) in enumerate(zip(self.low.values, self.high.values)):
            if a != b:
                return v
        raise AssertionError("unreachable")


def value_ranges(values, nbr_lists, k: int) -> list[tuple[int, int]]:
    """Per vertex, the inclusive range (lo, hi) of the values within 1 of
    values[u] for every u in its list of nbr_lists, clipped to [0, k];
    lo > hi when no value is.  values is anything indexed by the entries
    of the lists: a state list, or a dict of pinned values."""
    out = []
    for nbrs in nbr_lists:
        lo, hi = 0, k
        for u in nbrs:
            x = values[u]
            if x - 1 > lo:
                lo = x - 1
            if x + 1 < hi:
                hi = x + 1
        out.append((lo, hi))
    return out


def earlier_neighbours(graph: Graph, order) -> list[list[int]]:
    """For each position i of the vertex list order, the positions j < i
    of its neighbours in graph."""
    pos = {v: i for i, v in enumerate(order)}
    adj = graph.adjacency()
    return [[j for u in adj[v] if (j := pos.get(u, i)) < i]
            for i, v in enumerate(order)]


def assignments(ranges, earlier):
    """Yield, in lexicographic order, every tuple x with lo_i <= x_i <=
    hi_i for ranges[i] = (lo_i, hi_i) and |x_i - x_j| <= 1 for each j in
    earlier[i] (positions below i).  Depth-first: the range of x_i is
    narrowed by the values already placed at its earlier neighbours."""
    n = len(ranges)
    vec = [0] * n

    def rec(i):
        if i == n:
            yield tuple(vec)
            return
        lo, hi = ranges[i]
        for j in earlier[i]:
            x = vec[j]
            if x - 1 > lo:
                lo = x - 1
            if x + 1 < hi:
                hi = x + 1
        for x in range(lo, hi + 1):
            vec[i] = x
            yield from rec(i + 1)

    return rec(0)


def enumerate_heights(graph: Graph, k: int):
    """Yield every k-height of graph as a tuple, in lexicographic order.

    Fine for small graphs; enumeration.FillingRanker counts the heights
    of paths and cycles.
    """
    return assignments([(0, k)] * graph.n,
                       earlier_neighbours(graph, range(graph.n)))


def enumerate_cover_pairs(graph: Graph, k: int):
    """Yield (low_values, high_values, vertex) for all cover pairs."""
    adj = graph.adjacency()
    for vals in enumerate_heights(graph, k):
        for v in range(graph.n):
            x = vals[v]
            if x < k and all(vals[u] >= x for u in adj[v]):
                hi = list(vals)
                hi[v] = x + 1
                yield vals, tuple(hi), v
