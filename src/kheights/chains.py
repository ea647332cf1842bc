"""The two Markov chains on k-heights: single-vertex up/down moves and
block resampling.

Randomness contract: chains use a counter-based generator (numpy Philox)
so that the same seed yields the same trajectory on every platform.  The
draw order per step is fixed and documented on each step function; tests
and the CLI rely on it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .enumeration import (
    EnumerationCapError,
    FillingRanker,
    dp_shape,
    enumerate_fillings,
    enumerate_heights,
)
from .graphs import BlockFamily, Graph, boundary
from .heights import BoundaryConstraint, KHeight


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class ChainState:
    """A chain's position as a plain value list; `current` wraps it in a
    validated KHeight for callers outside the hot loop."""

    graph: Graph
    k: int
    values: list[int]
    rng: np.random.Generator
    step_count: int = 0

    @property
    def current(self) -> KHeight:
        return KHeight(self.graph, self.k, tuple(self.values))


def make_chain(graph: Graph, k: int, seed: int,
               start: KHeight | None = None) -> ChainState:
    if start is None:
        start = KHeight.constant(graph, k, 0)
    return ChainState(start.graph, start.k, list(start.values),
                      make_rng(seed))


def updown_result(values: list[int], adj, k: int, v: int,
                  delta: int) -> bool:
    """The up/down move rule: set values[v] += delta in place iff the
    result is still a k-height (given that values is one); return
    whether it moved.  adj is graph.adjacency()."""
    new = values[v] + delta
    if not 0 <= new <= k:
        return False
    for u in adj[v]:
        if abs(values[u] - new) > 1:
            return False
    values[v] = new
    return True


def updown_draws(rng: np.random.Generator, n: int) -> tuple[int, int, bool]:
    """The draws of one lazy up/down step in their fixed order: vertex
    uniform over range(n), offset sign (0 -> -1, 1 -> +1), then p
    uniform in [0,1).  Returns (vertex, offset, p <= 1/2)."""
    v = int(rng.integers(n))
    delta = 1 if int(rng.integers(2)) else -1
    return v, delta, float(rng.random()) <= 0.5


def step_updown(state: ChainState) -> ChainState:
    """One lazy up/down transition: the draws of updown_draws, then the
    move iff p <= 1/2 and the result is a valid k-height."""
    v, delta, move = updown_draws(state.rng, state.graph.n)
    if move:
        updown_result(state.values, state.graph.adjacency(), state.k, v,
                      delta)
    state.step_count += 1
    return state


class BlockSampler:
    """Uniform sampling from the admissible fillings of a block.

    A block the layered DP covers (enumeration.dp_shape) is counted and
    unranked by a FillingRanker, cached by (shape, allowed value ranges)
    so that all blocks of one shape share entries; the allowed ranges
    come straight from the values of each block vertex's external
    neighbours.  Other blocks draw from the enumerated filling list,
    which fillings_for serves with a bounded cache keyed by (block
    index, boundary values); the coupled step and the exact transition
    matrix read that list for every block.
    """

    def __init__(self, graph: Graph, family: BlockFamily, k: int,
                 cache_size: int = 4096):
        self.graph = graph
        self.family = family
        self.k = k
        adj = graph.adjacency()
        self._bdry = [sorted(boundary(graph, b)) for b in family.blocks]
        self._outside = []
        for b in family.blocks:
            inside = set(b.vertices)
            self._outside.append([[u for u in adj[v] if u not in inside]
                                  for v in b.vertices])
        self._shape = [dp_shape(graph, b) for b in family.blocks]
        self._cum = list(accumulate(b.multiplicity for b in family.blocks))
        self._fillings = lru_cache(maxsize=cache_size)(self._fillings_raw)
        self._ranker = lru_cache(maxsize=cache_size)(FillingRanker)

    def _fillings_raw(self, block_idx: int, bvals: tuple[int, ...]):
        block = self.family.blocks[block_idx]
        constraint = BoundaryConstraint(
            tuple(zip(self._bdry[block_idx], bvals)))
        return enumerate_fillings(self.graph, block, constraint, self.k)

    def pick_block(self, r: int) -> int:
        """Block index for a draw r uniform in [0, total multiplicity)."""
        return bisect_right(self._cum, r)

    def fillings_for(self, block_idx: int, values):
        """Admissible fillings of the block under the boundary values."""
        bvals = tuple(values[u] for u in self._bdry[block_idx])
        return self._fillings(block_idx, bvals)

    def ranked(self, block_idx: int, values):
        """(count, unrank) of the block's admissible fillings under the
        boundary values: unrank(i) is fillings_for(block_idx, values)[i],
        for 0 <= i < count."""
        shape = self._shape[block_idx]
        if shape is None:
            fillings = self.fillings_for(block_idx, values)
            return len(fillings), fillings.__getitem__
        ranges = []
        for nbrs in self._outside[block_idx]:
            lo, hi = 0, self.k
            for u in nbrs:
                x = values[u]
                lo = max(lo, x - 1)
                hi = min(hi, x + 1)
            ranges.append((lo, hi))
        ranker = self._ranker(shape, tuple(ranges))
        return ranker.count, ranker.unrank

    def apply(self, values: list[int], block_idx: int, filling) -> None:
        """Write the filling into the block's vertices of values."""
        for v, x in zip(self.family.blocks[block_idx].vertices, filling):
            values[v] = x


def step_block(state: ChainState, sampler: BlockSampler) -> ChainState:
    """One lazy block transition.

    Draw order: block draw uniform over total multiplicity, filling index
    uniform over the admissible fillings (lexicographic, as
    enumerate_fillings lists them), then p.  The filling replaces the
    block iff p <= 1/2; only then is it unranked.  Raises
    EnumerationCapError when the count reaches 2^63, past the int64
    index draw.
    """
    r = int(state.rng.integers(sampler.family.total_count))
    b = sampler.pick_block(r)
    count, unrank = sampler.ranked(b, state.values)
    if count >= 1 << 63:
        raise EnumerationCapError(
            f"{count} fillings exceed the int64 index draw")
    idx = int(state.rng.integers(count))
    if float(state.rng.random()) <= 0.5:
        sampler.apply(state.values, b, unrank(idx))
    state.step_count += 1
    return state


def run(state: ChainState, steps: int, stepper=step_updown,
        emit_every: int = 0):
    """Iterate the chain; optionally yield intermediate states.

    With emit_every > 0, returns a list of (step, KHeight) snapshots
    (including the final state); otherwise returns the state.
    """
    snaps = []
    for i in range(steps):
        stepper(state)
        if emit_every and (i + 1) % emit_every == 0:
            snaps.append((state.step_count, state.current))
    if emit_every:
        if not snaps or snaps[-1][0] != state.step_count:
            snaps.append((state.step_count, state.current))
        return snaps
    return state


# ---------------------------------------------------------------------------
# exact transition matrices for small instances (test oracles)


def transition_matrix_updown(graph: Graph, k: int):
    """Exact up/down transition matrix over Omega as Fractions."""
    states = list(enumerate_heights(graph, k))
    index = {s: i for i, s in enumerate(states)}
    n = graph.n
    size = len(states)
    T = [[Fraction(0)] * size for _ in range(size)]
    move = Fraction(1, 4 * n)  # one (v, delta) pair, p <= 1/2
    adj = graph.adjacency()
    for i, s in enumerate(states):
        stay = Fraction(1)
        for v in range(n):
            for delta in (-1, 1):
                new = s[v] + delta
                if 0 <= new <= k and all(
                        abs(s[u] - new) <= 1 for u in adj[v]):
                    t = list(s)
                    t[v] = new
                    j = index[tuple(t)]
                    T[i][j] += move
                    stay -= move
        T[i][i] += stay
    return states, T


def transition_matrix_block(graph: Graph, k: int, family: BlockFamily):
    """Exact block-chain transition matrix over Omega as Fractions."""
    states = list(enumerate_heights(graph, k))
    index = {s: i for i, s in enumerate(states)}
    size = len(states)
    T = [[Fraction(0)] * size for _ in range(size)]
    sampler = BlockSampler(graph, family, k)
    total = family.total_count
    for i, s in enumerate(states):
        T[i][i] += Fraction(1, 2)  # p > 1/2 holds
        for bi, block in enumerate(family.blocks):
            fillings = sampler.fillings_for(bi, s)
            w = Fraction(block.multiplicity, 2 * total * len(fillings))
            for f in fillings:
                t = list(s)
                sampler.apply(t, bi, f)
                T[i][index[tuple(t)]] += w
    return states, T
