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

    def with_value(self, vertex: int, value: int) -> "KHeight":
        vals = list(self.values)
        vals[vertex] = value
        return KHeight(self.graph, self.k, tuple(vals))

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

    @classmethod
    def from_height(cls, height: KHeight, bdry) -> "BoundaryConstraint":
        return cls(tuple(sorted((v, height.values[v]) for v in bdry)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.values)

    def allowed(self, graph: Graph, block: Block, k: int) -> list[frozenset[int]]:
        """Per block vertex (in block order), the set of values permitted
        by the boundary: the intersection of [c-1, c+1] over adjacent
        boundary values c, clipped to [0, k]."""
        fixed = self.as_dict()
        adj = graph.adjacency()
        out = []
        for bv in block.vertices:
            lo, hi = 0, k
            for u in adj[bv]:
                val = fixed.get(u)
                if val is not None:
                    lo = max(lo, val - 1)
                    hi = min(hi, val + 1)
            out.append(frozenset(range(lo, hi + 1)) if lo <= hi else frozenset())
        return out


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


def enumerate_heights(graph: Graph, k: int):
    """Yield every k-height of graph as a tuple, by depth-first search.

    Fine for small graphs; the counting module has transfer-matrix
    routines for structured families.
    """
    adj = graph.adjacency()
    values = [0] * graph.n

    def rec(i):
        if i == graph.n:
            yield tuple(values)
            return
        lo, hi = 0, k
        for u in adj[i]:
            if u < i:
                lo = max(lo, values[u] - 1)
                hi = min(hi, values[u] + 1)
        for x in range(lo, hi + 1):
            values[i] = x
            yield from rec(i + 1)

    yield from rec(0)


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
