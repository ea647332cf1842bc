"""The two Markov chains on k-heights: single-vertex up/down moves and
block resampling.

Randomness contract: chains use a counter-based generator (numpy Philox)
so that the same seed yields the same trajectory on every platform.  The
draw order per step is fixed and documented on each step function; tests
and the CLI rely on it.

The up/down draws are the scalar calls of updown_draws, which stays as
the reference; updown_chunk decodes the same values for up to
UPDOWN_CHUNK steps at a time from one random_raw block of 64-bit Philox
words, mirroring numpy's internals:

- next_uint32 returns the low half of a word and keeps the high half
  for the next 32-bit draw (has_uint32, uinteger);
- integers(n) for 2 <= n < 2^32 is Lemire's method on one 32-bit draw u:
  the vertex is (u*n) >> 32, redrawn while (u*n) mod 2^32 is below
  (2^32 - n) mod n; integers(1) draws nothing;
- integers(2) is the top bit of a 32-bit draw, so after a vertex that
  took a word's low half it is bit 63 of that word;
- random() is (w >> 11) * 2^-53 of a whole word, so random() <= 1/2
  holds exactly when (w >> 11) <= 2^52.

So a step takes two words, and the chunk is decoded with numpy array
operations when 1 < n < 2^32 (the product u*n is exact in uint64 only
for n < 2^32), no high half is kept at entry and no vertex draw is
rejected; it ends in the state the scalar calls leave: counter,
buffer, buffer_pos, has_uint32 and uinteger.  Otherwise updown_chunk
puts the generator back to its entry state and returns None, and
updown_moves takes the scalar calls, drawn as its moves are visited,
as it does for chunks below UPDOWN_MIN_CHUNK steps.
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
    dp_shape,
    enumerate_fillings,
    enumerate_heights,
    filling_ranker,
)
from .graphs import BlockFamily, Graph, boundary
from .heights import BoundaryConstraint, KHeight, value_ranges


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
    whether it moved.  adj is graph.adjacency().  Every neighbour lies
    within 1 of values[v], so the move breaks an edge exactly when a
    neighbour sits at values[v] - delta."""
    old = values[v]
    new = old + delta
    if not 0 <= new <= k:
        return False
    bad = old - delta
    for u in adj[v]:
        if values[u] == bad:
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


#: up/down steps decoded per random_raw block: two 64-bit words a step,
#: 64 KiB of words
UPDOWN_CHUNK = 4096

#: fewer steps than this take the scalar updown_draws calls (~6 us a
#: step), which cost less than the fixed numpy and generator-state work
#: of one decoded chunk (~20 us on rect:16x16)
UPDOWN_MIN_CHUNK = 4

_LOW32 = 0xFFFFFFFF


def updown_chunk(rng: np.random.Generator, n: int, m: int):
    """The draws of m calls of updown_draws(rng, n) as arrays (vertices,
    offsets, moves) and a function settle(j) that puts the generator
    back to where the first j of those calls leave it; on return it is
    where all m leave it.  None, with the generator at its entry state,
    when the chunk cannot be decoded.  See the module docstring for the
    decoding."""
    bg = rng.bit_generator
    entry = bg.state
    if not 1 < n < 1 << 32 or entry["has_uint32"]:
        return None
    raw = bg.random_raw(2 * m)
    first = raw[0::2]
    prod = (first & _LOW32) * np.uint64(n)
    threshold = (1 << 32) % n
    if threshold and ((prod & _LOW32) < threshold).any():
        bg.state = entry
        return None

    def land(j: int) -> None:
        # j steps take 2j words; the offset draw of the last one used the
        # kept high half of its vertex word, which stays in uinteger
        state = bg.state
        state["has_uint32"] = 0
        state["uinteger"] = int(first[j - 1] >> 32)
        bg.state = state

    def settle(j: int) -> None:
        bg.state = entry
        if j:
            bg.random_raw(2 * j)
            land(j)

    if m:
        land(m)
    return ((prod >> 32).astype(np.int64),
            2 * (first >> 63).astype(np.int64) - 1,
            raw[1::2] >> 11 <= np.uint64(1 << 52), settle)


def updown_moves(rng: np.random.Generator, n: int, m: int):
    """The accepted moves of m up/down steps as an iterator of (step,
    vertex, offset) triples, and settle(j) for a caller that stops after
    the move at step j - 1: it leaves the generator where the draws of
    the first j steps do.  From UPDOWN_MIN_CHUNK steps on the draws come
    from updown_chunk; below it, or when the chunk cannot be decoded,
    from updown_draws, drawn as the iterator advances, so stopping leaves
    the generator there already."""
    chunk = updown_chunk(rng, n, m) if m >= UPDOWN_MIN_CHUNK else None
    if chunk is None:
        draws = (updown_draws(rng, n) for _ in range(m))
        return ((j, v, delta) for j, (v, delta, move) in enumerate(draws)
                if move), lambda j: None
    vs, ds, moves, settle = chunk
    (at,) = np.nonzero(moves)
    return zip(at.tolist(), vs[at].tolist(), ds[at].tolist()), settle


def step_updown(state: ChainState, steps: int = 1) -> ChainState:
    """`steps` lazy up/down transitions: the draws of updown_draws, then
    the move iff p <= 1/2 and the result is a valid k-height.  The draws
    come a chunk at a time from updown_moves; only accepted moves are
    visited."""
    values, adj, k = state.values, state.graph.adjacency(), state.k
    for done in range(0, steps, UPDOWN_CHUNK):
        moves, _ = updown_moves(state.rng, state.graph.n,
                                min(UPDOWN_CHUNK, steps - done))
        for _, v, delta in moves:
            updown_result(values, adj, k, v, delta)
    state.step_count += steps
    return state


class BlockSampler:
    """Uniform sampling from the admissible fillings of a block.

    A block the layered DP covers (enumeration.dp_shape) is counted and
    unranked by a FillingRanker from enumeration.filling_ranker, the
    process-wide table keyed by (shape, allowed value ranges) that the
    blocks of every sampler share; heights.value_ranges reads the allowed
    ranges straight from the values of each block vertex's external
    neighbours.  Per-layer ranker counters read filling_ranker.cache_info()
    (hits, misses, entries).  Other blocks draw from the enumerated filling list, which
    fillings_for serves with a per-sampler cache of cache_size entries
    keyed by (block index, boundary values); the coupled step and the
    exact transition matrix read that list for every block.  The cache
    wraps a closure that does not hold the sampler, so a dropped sampler
    is freed at once, not at the next full collection.
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
        blocks, bdry = family.blocks, self._bdry

        def fillings(block_idx: int, bvals: tuple[int, ...]):
            constraint = BoundaryConstraint(
                tuple(zip(bdry[block_idx], bvals)))
            return enumerate_fillings(graph, blocks[block_idx], constraint, k)

        self._fillings = lru_cache(maxsize=cache_size)(fillings)

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
        ranker = filling_ranker(shape, tuple(
            value_ranges(values, self._outside[block_idx], self.k)))
        return ranker.count, ranker.unrank

    def apply(self, values: list[int], block_idx: int, filling) -> None:
        """Write the filling into the block's vertices of values."""
        for v, x in zip(self.family.blocks[block_idx].vertices, filling):
            values[v] = x


def step_block(state: ChainState, sampler: BlockSampler,
               steps: int = 1) -> ChainState:
    """`steps` lazy block transitions.

    Draw order per step: block draw uniform over total multiplicity,
    filling index uniform over the admissible fillings (lexicographic, as
    enumerate_fillings lists them), then p.  The filling replaces the
    block iff p <= 1/2; only then is it unranked.  Raises
    EnumerationCapError when the count reaches 2^63, past the int64
    index draw.
    """
    rng = state.rng
    for _ in range(steps):
        r = int(rng.integers(sampler.family.total_count))
        b = sampler.pick_block(r)
        count, unrank = sampler.ranked(b, state.values)
        if count >= 1 << 63:
            raise EnumerationCapError(
                f"{count} fillings exceed the int64 index draw")
        idx = int(rng.integers(count))
        if float(rng.random()) <= 0.5:
            sampler.apply(state.values, b, unrank(idx))
        state.step_count += 1
    return state


def run(state: ChainState, steps: int, stepper=step_updown,
        emit_every: int = 0):
    """Iterate the chain; optionally yield intermediate states.

    stepper(state, m) makes m steps; it is called once per stretch up to
    the next snapshot.  With emit_every > 0, returns a list of (step,
    KHeight) snapshots (including the final state); otherwise returns
    the state.
    """
    snaps = []
    every = emit_every or steps or 1
    for done in range(0, steps, every):
        stepper(state, min(every, steps - done))
        if emit_every and done + every <= steps:
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
