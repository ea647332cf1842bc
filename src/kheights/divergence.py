"""Block divergence: the worst-case expected filling-weight gap across a
boundary cover pair.

For a block B, external vertex v and a pair of boundary constraints
(X, Y) with Y = X except Y(v) = X(v)+1, the coupled expected L1 distance
between uniform fillings equals E[w | Y] - E[w | X]; the block divergence
E_{B,v} is the maximum of that gap over all extensible cover pairs.

This module is the exact reference implementation (arbitrary-precision
rationals, straightforward iteration).  The table engines in
:mod:`kheights.tables` vectorize the same computation for the large
case catalogs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enumeration import block_structure, filling_stats
from .graphs import Block, Graph
from .heights import (
    BoundaryConstraint,
    assignments,
    earlier_neighbours,
    value_ranges,
)


class NonExtensibleError(ValueError):
    """A constraint admits no filling where one was required."""


def expected_gap(graph: Graph, block: Block, low: BoundaryConstraint,
                 high: BoundaryConstraint, k: int) -> Fraction:
    """E[w | high] - E[w | low] for a cover pair of boundary constraints."""
    s_lo = filling_stats(graph, block, low, k)
    s_hi = filling_stats(graph, block, high, k)
    if not (s_lo.count and s_hi.count):
        raise NonExtensibleError("cover pair has a non-extensible side")
    return s_hi.expected_weight - s_lo.expected_weight


@dataclass(frozen=True)
class DivergenceReport:
    k: int
    case_id: str
    omega_block: int
    omega_boundary: int
    e_max: Fraction
    witness: tuple[BoundaryConstraint, int] | None  # (low constraint, pivot)

    def e_max_rounded(self) -> float:
        """E_max to 6 decimals, exact ties to even (Fraction.__round__)."""
        return float(round(self.e_max, 6))


def iter_cover_pairs(graph: Graph, block: Block, v: int, k: int):
    """Yield (low, high) extensible boundary cover pairs pivoted at v,
    in lexicographic order of (rest assignment, pivot value): for each
    valid assignment of the rest of the boundary, each pair x, x + 1 in
    the range that its boundary neighbours leave the pivot."""
    (bdry,) = block_structure(graph, (block,)).bdry
    if v not in bdry:
        raise ValueError("pivot vertex is not on the block boundary")
    at = bdry.index(v)
    earlier = earlier_neighbours(graph, bdry[:at] + bdry[at + 1:] + (v,))
    for env in assignments([(0, k)] * (len(bdry) - 1), earlier[:-1]):
        (lo, hi), = value_ranges(env, earlier[-1:], k)
        pinned = [tuple(zip(bdry, env[:at] + (x,) + env[at:]))
                  for x in range(lo, hi + 1)]
        for low, high in zip(pinned, pinned[1:]):
            yield BoundaryConstraint(low), BoundaryConstraint(high)


def block_divergence(graph: Graph, block: Block, v: int, k: int,
                     case_id: str = "") -> DivergenceReport:
    """Maximize expected_gap over all extensible cover pairs pivoted at v.

    Ties resolve to the first pair in iteration order (lexicographically
    smallest witness).  At k=0 the all-zero height is the only one: no
    cover pair exists, and the divergence is 0 with no witness, as in
    tables.case_divergence.
    """
    empty = BoundaryConstraint(())
    omega_block = filling_stats(graph, block, empty, k).count
    (bdry,) = block_structure(graph, (block,)).bdry
    omega_boundary = sum(1 for _ in assignments(
        [(0, k)] * len(bdry), earlier_neighbours(graph, bdry)))
    best: Fraction | None = None if k else Fraction(0)
    witness = None
    for lo, hi in iter_cover_pairs(graph, block, v, k):
        try:
            gap = expected_gap(graph, block, lo, hi, k)
        except NonExtensibleError:
            continue
        if best is None or gap > best:
            best = gap
            witness = (lo, v)
    if best is None:
        raise NonExtensibleError("no extensible cover pair at this pivot")
    return DivergenceReport(
        k=k, case_id=case_id, omega_block=omega_block,
        omega_boundary=omega_boundary, e_max=best, witness=witness,
    )

