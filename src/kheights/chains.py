"""The two Markov chains on k-heights: single-vertex up/down moves and
block resampling.

Randomness contract: chains use a counter-based generator (numpy Philox)
so that the same seed yields the same trajectory on every platform.  The
draw order per step is fixed and documented on each step function; tests
and the CLI rely on it.

The up/down draws are the scalar calls of updown_draws, which stays as
the reference; updown_moves decodes the same values for up to
UPDOWN_CHUNK steps at a time from one random_raw block of 64-bit Philox
words, mirroring numpy's internals:

- next_uint32 returns the low half of a word and keeps the high half
  for the next 32-bit draw (has_uint32, uinteger);
- integers(n) for 2 <= n < 2^32 is Lemire's method on one 32-bit draw u:
  the vertex is (u*n) >> 32, redrawn while (u*n) mod 2^32 is below
  (2^32 - n) mod n; integers(1) draws nothing (decode_integers);
- integers(2) is the top bit of a 32-bit draw, so after a vertex that
  took a word's low half it is bit 63 of that word;
- random() is (w >> 11) * 2^-53 of a whole word, so random() <= 1/2
  holds exactly when (w >> 11) <= 2^52 (decode_at_most_half).

So a step takes two words, and a chunk is decoded with numpy array
operations when 1 < n < 2^32 (the product u*n is exact in uint64 only
for n < 2^32), no high half is kept at entry and no vertex draw is
rejected; it ends in the state the scalar calls leave: counter,
buffer, buffer_pos, has_uint32 and uinteger.  Otherwise, and for
chunks below UPDOWN_MIN_CHUNK steps, updown_moves puts the generator
back to its entry state and makes the updown_draws calls.  CFTP decodes
its epoch draws with the same two functions.

A block step draws the block r from integers(total multiplicity), the
filling index from integers(count), count known only once the block
is picked, and then p from random().  block_step makes these scalar
calls and stays as the reference; block_stretch decodes up to
BLOCK_CHUNK steps from one random_raw block, one step at a time in
Python integers: each of r and the index is Lemire on a 32-bit half,
the low half of a fresh word first and then the kept high half (the
entry state's, if it keeps one); a total or count of 1 draws nothing;
p is one whole word and never touches the kept half.  So a step takes
at most two words.  At the end the generator is put back to its entry
state, the words used are drawn again and has_uint32 and uinteger are
set, which leaves it where the scalar calls do.  A step whose draw
would be rejected, or whose total or count is 2^32 or more, ends the
stretch and goes through block_step (which raises EnumerationCapError
from 2^63 on), and so does a stretch of fewer than BLOCK_MIN_STRETCH
steps.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .enumeration import (
    EnumerationCapError,
    block_structure,
    enumerate_fillings,
    filling_ranker,
)
from .graphs import BlockFamily, Graph
from .heights import (
    BoundaryConstraint,
    KHeight,
    enumerate_heights,
    value_ranges,
)


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


def make_chain(graph: Graph, k: int, seed: int) -> ChainState:
    start = KHeight.constant(graph, k, 0)  # refuses k < 0
    return ChainState(graph, k, list(start.values), make_rng(seed))


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


def updown_apply(values: list[int], adj, k: int, vs, ds) -> None:
    """Apply the moves (vs[i], ds[i]) to values in order, each by the
    rule of updown_result, inlined: one call for a stretch of moves."""
    for v, delta in zip(vs, ds):
        old = values[v]
        new = old + delta
        if 0 <= new <= k:
            bad = old - delta
            for u in adj[v]:
                if values[u] == bad:
                    break
            else:
                values[v] = new


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


def decode_integers(u, n: int):
    """numpy's integers(n), 1 < n < 2^32, on the 32-bit draws u (a uint32
    or uint64 array): Lemire's (u*n) >> 32 as uint64, or None when a draw
    would be rejected ((u*n) mod 2^32 < 2^32 mod n), which shifts every
    later draw."""
    prod = u * np.uint64(n)
    threshold = (1 << 32) % n
    if threshold and ((prod & _LOW32) < threshold).any():
        return None
    return prod >> 32


def decode_at_most_half(words):
    """random() <= 1/2 of whole 64-bit words: (w >> 11) <= 2^52."""
    return words >> 11 <= np.uint64(1 << 52)


def updown_moves(rng: np.random.Generator, n: int, m: int):
    """The accepted moves of m calls of updown_draws(rng, n) as lists
    (steps, vertices, offsets), with the generator left where those calls
    leave it.  From UPDOWN_MIN_CHUNK steps on they are decoded from one
    random_raw block when the module docstring's conditions hold;
    otherwise the generator is put back and the calls are made."""
    if m >= UPDOWN_MIN_CHUNK and 1 < n < 1 << 32:
        bg = rng.bit_generator
        entry = bg.state
        if not entry["has_uint32"]:
            raw = bg.random_raw(2 * m)
            first = raw[0::2]
            vs = decode_integers(first & _LOW32, n)
            if vs is not None:
                # the offset draw of the last step used the kept high
                # half of its vertex word, which stays in uinteger
                state = bg.state
                state["has_uint32"] = 0
                state["uinteger"] = int(first[-1] >> 32)
                bg.state = state
                (at,) = np.nonzero(decode_at_most_half(raw[1::2]))
                return (at.tolist(), vs[at].tolist(),
                        (2 * (first[at] >> 63).astype(np.int64) - 1).tolist())
            bg.state = entry
    steps, vertices, offsets = [], [], []
    for j in range(m):
        v, delta, move = updown_draws(rng, n)
        if move:
            steps.append(j)
            vertices.append(v)
            offsets.append(delta)
    return steps, vertices, offsets


def step_updown(state: ChainState, steps: int = 1) -> ChainState:
    """`steps` lazy up/down transitions: the draws of updown_draws, then
    the move iff p <= 1/2 and the result is a valid k-height.  Each chunk
    of up to UPDOWN_CHUNK steps is one updown_moves call, whose accepted
    moves updown_apply makes in one call."""
    values, adj, k = state.values, state.graph.adjacency(), state.k
    rng, n = state.rng, state.graph.n
    for done in range(0, steps, UPDOWN_CHUNK):
        updown_apply(values, adj, k, *updown_moves(
            rng, n, min(UPDOWN_CHUNK, steps - done))[1:])
    state.step_count += steps
    return state


#: entries of a BlockSampler's filling-list cache
FILLINGS_CACHE_SIZE = 4096

#: support entries (filling pairs of positive mass) that a BlockSampler's
#: joint memo holds in all.  An entry costs 12 bytes of integer rows; a
#: joint also keeps its two filling lists, which have at most as many
#: fillings as it has entries each.
JOINT_MEMO_ENTRIES = 1 << 20


class BlockSampler:
    """Uniform sampling from the admissible fillings of a block.

    The boundaries, outside-neighbour lists, dp_shapes and cumulative
    multiplicities are enumeration.block_structure of the family's
    blocks, which the samplers of equal graphs share.  A block the
    layered DP covers is counted and unranked by the FillingRanker of
    its allowed value ranges (heights.value_ranges of its outside
    neighbours' values) from enumeration.filling_ranker, the process-
    wide table it shares with the scalar oracle; cache_info() counts its
    hits and misses.  Other blocks draw from the enumerated filling
    list, which fillings_for serves from a per-sampler cache of
    FILLINGS_CACHE_SIZE entries keyed by (block index, boundary values);
    the coupled step and the exact transition matrix read that list for
    every block.  The cache wraps a closure that does not hold the
    sampler, so a dropped sampler is freed at once, not at the next full
    collection.  joint memoises the coupled step's joints.
    """

    def __init__(self, graph: Graph, family: BlockFamily, k: int):
        self.graph = graph
        self.family = family
        self.k = k
        self.structure = structure = block_structure(graph, family.blocks)
        self._bdry, self._outside, self._shape, self._cum = structure
        blocks, bdry = family.blocks, self._bdry

        def fillings(block_idx: int, bvals: tuple[int, ...]):
            constraint = BoundaryConstraint(
                tuple(zip(bdry[block_idx], bvals)))
            return enumerate_fillings(graph, blocks[block_idx], constraint, k)

        self._fillings = lru_cache(maxsize=FILLINGS_CACHE_SIZE)(fillings)
        self._joints = OrderedDict()
        self._joint_entries = 0

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

    def joint(self, low, high):
        """coupling.strassen_joint(low, high) on the two filling lists as
        tuples, memoised by their content (the blocks of a vertex-
        transitive graph give equal lists) up to JOINT_MEMO_ENTRIES
        support entries in all, least recently used out first.  The
        builder is read from coupling, which imports this module."""
        key = (tuple(low), tuple(high))
        joint = self._joints.get(key)
        if joint is not None:
            self._joints.move_to_end(key)
            return joint
        from . import coupling
        joint = self._joints[key] = coupling.strassen_joint(*key)
        self._joint_entries += len(joint)
        while self._joint_entries > JOINT_MEMO_ENTRIES:
            self._joint_entries -= len(self._joints.popitem(last=False)[1])
        return joint

    def apply(self, values: list[int], block_idx: int, filling) -> None:
        """Write the filling into the block's vertices of values."""
        for v, x in zip(self.family.blocks[block_idx].vertices, filling):
            values[v] = x


#: block steps decoded per random_raw block: at most two 64-bit words a
#: step, 64 KiB of words
BLOCK_CHUNK = 4096

#: fewer steps than this take the scalar block_step calls: on hex:8x8
#: at k=2, 2 steps took 19 us decoded and 16 us scalar, 3 took 23 and
#: 24 us, 300 took 1.5 and 2.4 ms (the fixed cost of a stretch is the
#: generator-state work)
BLOCK_MIN_STRETCH = 3


def block_step(values: list[int], sampler: BlockSampler,
               rng: np.random.Generator) -> None:
    """One lazy block step by the scalar Generator calls, in step_block's
    draw order; the reference and the fallback of block_stretch."""
    r = int(rng.integers(sampler.family.total_count))
    b = sampler.pick_block(r)
    count, unrank = sampler.ranked(b, values)
    if count >= 1 << 63:
        raise EnumerationCapError(
            f"{count} fillings exceed the int64 index draw")
    idx = int(rng.integers(count))
    if float(rng.random()) <= 0.5:
        sampler.apply(values, b, unrank(idx))


def block_stretch(values: list[int], sampler: BlockSampler,
                  rng: np.random.Generator, m: int) -> int:
    """Make up to m block_step steps, decoded from one random_raw block
    as the module docstring says, and return how many it made.  It
    stops before a step that needs the scalar calls, and leaves the
    generator where the scalar calls of the steps it made leave it."""
    total = sampler.family.total_count
    if total >= 1 << 32:
        return 0
    total_low = (1 << 32) % total
    bg = rng.bit_generator
    entry = bg.state
    words = bg.random_raw(2 * m).tolist()
    # kept: the 32-bit half next_uint32 returns next, or None; high: the
    # last high half it kept, which stays in uinteger once used
    high = entry["uinteger"]
    kept = high if entry["has_uint32"] else None
    i = r = 0
    cum, ranked, apply = sampler.structure.cum, sampler.ranked, sampler.apply
    for j in range(m):
        at = i, kept, high
        if total > 1:
            if kept is None:
                w = words[i]
                i += 1
                u, kept = (w & _LOW32) * total, w >> 32
                high = kept
            else:
                u, kept = kept * total, None
            if u & _LOW32 < total_low:
                break
            r = u >> 32
        b = bisect_right(cum, r)
        count, unrank = ranked(b, values)
        idx = 0
        if count != 1:
            if not 1 < count < 1 << 32:
                break
            if kept is None:
                w = words[i]
                i += 1
                u, kept = (w & _LOW32) * count, w >> 32
                high = kept
            else:
                u, kept = kept * count, None
            if u & _LOW32 < (1 << 32) % count:
                break
            idx = u >> 32
        if words[i] >> 11 <= 1 << 52:
            apply(values, b, unrank(idx))
        i += 1
    else:
        j, at = m, (i, kept, high)
    i, kept, high = at
    entry["has_uint32"] = int(kept is not None)
    entry["uinteger"] = high
    bg.state = entry
    bg.random_raw(i)
    return j


def step_block(state: ChainState, sampler: BlockSampler,
               steps: int = 1) -> ChainState:
    """`steps` lazy block transitions.

    Draw order per step: block draw uniform over total multiplicity,
    filling index uniform over the admissible fillings (lexicographic, as
    enumerate_fillings lists them), then p.  The filling replaces the
    block iff p <= 1/2; only then is it unranked.  Raises
    EnumerationCapError when the count reaches 2^63, past the int64
    index draw.  Stretches of up to BLOCK_CHUNK steps are decoded by
    block_stretch; a step it stops before goes through block_step, and
    the stretches then double again from BLOCK_MIN_STRETCH steps, so a
    graph whose steps keep falling back decodes few draws in vain.
    """
    values, rng = state.values, state.rng
    size = BLOCK_CHUNK
    while steps > 0:
        m = min(size, steps)
        made = (block_stretch(values, sampler, rng, m)
                if m >= BLOCK_MIN_STRETCH else 0)
        state.step_count += made
        steps -= made
        if made < m:
            block_step(values, sampler, rng)
            state.step_count += 1
            steps -= 1
            size = BLOCK_MIN_STRETCH
        else:
            size = min(2 * size, BLOCK_CHUNK)
    return state


def run(state: ChainState, steps: int, stepper, emit_every: int):
    """Make `steps` steps in stretches of emit_every >= 1, each one
    stepper(state, m) call; yield the (step, KHeight) after each."""
    for done in range(0, steps, emit_every):
        stepper(state, min(emit_every, steps - done))
        yield state.step_count, state.current


# ---------------------------------------------------------------------------
# exact transition matrices for small instances (test oracles)


def transition_matrix_updown(graph: Graph, k: int):
    """Exact up/down transition matrix over Omega as Fractions, by the
    move rule of updown_result."""
    states = list(enumerate_heights(graph, k))
    index = {s: i for i, s in enumerate(states)}
    n = graph.n
    size = len(states)
    T = [[Fraction(0)] * size for _ in range(size)]
    move = Fraction(1, 4 * n)  # one (v, delta) pair, p <= 1/2
    adj = graph.adjacency()
    for i, s in enumerate(states):
        T[i][i] += Fraction(1, 2)  # p > 1/2 holds
        for v in range(n):
            for delta in (-1, 1):
                t = list(s)
                updown_result(t, adj, k, v, delta)  # a refused move holds
                T[i][index[tuple(t)]] += move
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
