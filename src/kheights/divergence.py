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

from .enumeration import enumerate_boundary_constraints, filling_stats
from .graphs import Block, Graph, boundary
from .heights import BoundaryConstraint


class NonExtensibleError(ValueError):
    """A constraint admits no filling where one was required."""


def expected_gap(graph: Graph, block: Block, low: BoundaryConstraint,
                 high: BoundaryConstraint, k: int) -> Fraction:
    """E[w | high] - E[w | low] for a cover pair of boundary constraints."""
    s_lo = filling_stats(graph, block, low, k)
    s_hi = filling_stats(graph, block, high, k)
    if not s_lo.extensible or not s_hi.extensible:
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

    def e_max_rounded(self, digits: int = 6) -> float:
        return round_half_even(self.e_max, digits)


def round_half_even(x: Fraction, digits: int = 6) -> float:
    """Round an exact rational to `digits` decimals, ties to even."""
    scale = 10 ** digits
    y = x * scale
    n = y.numerator // y.denominator
    rem = y - n
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and n % 2):
        n += 1
    return n / scale


def _constraint_valid(graph: Graph, values: dict[int, int]) -> bool:
    items = list(values.items())
    for i, (u, a) in enumerate(items):
        for w, b in items[i + 1:]:
            if graph.has_edge(u, w) and abs(a - b) > 1:
                return False
    return True


def iter_cover_pairs(graph: Graph, block: Block, v: int, k: int):
    """Yield (low, high) extensible boundary cover pairs pivoted at v,
    in lexicographic order of (rest assignment, pivot value)."""
    bdry = sorted(boundary(graph, block))
    if v not in bdry:
        raise ValueError("pivot vertex is not on the block boundary")
    rest = [u for u in bdry if u != v]

    def assignments(i, vec):
        if i == len(rest):
            yield dict(zip(rest, vec))
            return
        for x in range(k + 1):
            vec.append(x)
            if _constraint_valid(graph, dict(zip(rest, vec))):
                yield from assignments(i + 1, vec)
            vec.pop()

    for env in assignments(0, []):
        for x in range(k):
            lo = dict(env)
            lo[v] = x
            hi = dict(env)
            hi[v] = x + 1
            if _constraint_valid(graph, lo) and _constraint_valid(graph, hi):
                yield (
                    BoundaryConstraint(tuple(sorted(lo.items()))),
                    BoundaryConstraint(tuple(sorted(hi.items()))),
                )


def block_divergence(graph: Graph, block: Block, v: int, k: int,
                     case_id: str = "") -> DivergenceReport:
    """Maximize expected_gap over all extensible cover pairs pivoted at v.

    Ties resolve to the first pair in iteration order (lexicographically
    smallest witness).
    """
    empty = BoundaryConstraint(())
    omega_block = filling_stats(graph, block, empty, k).count
    bdry = sorted(boundary(graph, block))
    if _boundary_independent(graph, bdry):
        omega_boundary = (k + 1) ** len(bdry)
    else:
        omega_boundary = sum(
            1 for _ in enumerate_boundary_constraints(graph, block, k))
    best: Fraction | None = None
    witness = None
    for lo, hi in iter_cover_pairs(graph, block, v, k):
        s_lo = filling_stats(graph, block, lo, k)
        if not s_lo.extensible:
            continue
        s_hi = filling_stats(graph, block, hi, k)
        if not s_hi.extensible:
            continue
        gap = s_hi.expected_weight - s_lo.expected_weight
        if best is None or gap > best:
            best = gap
            witness = (lo, v)
    if best is None:
        raise NonExtensibleError("no extensible cover pair at this pivot")
    return DivergenceReport(
        k=k, case_id=case_id, omega_block=omega_block,
        omega_boundary=omega_boundary, e_max=best, witness=witness,
    )


def _boundary_independent(graph: Graph, bdry) -> bool:
    return all(
        not graph.has_edge(u, w)
        for i, u in enumerate(bdry) for w in bdry[i + 1:]
    )
