"""Couplings of the k-height chains: stochastic-dominance joints via
max-flow, the monotone coupled steps, shortest-path decomposition into
cover pairs, coupling from the past, and empirical coalescence-time
estimation.

All joint distributions are exact rationals; sampling from them uses
integer draws only, so trajectories are exactly reproducible.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import count

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .chains import (
    UPDOWN_CHUNK,
    BlockSampler,
    decode_at_most_half,
    decode_integers,
    make_rng,
    updown_apply,
    updown_draws,
    updown_moves,
    updown_result,
)
from .enumeration import ENUMERATION_CAP, EnumerationCapError
from .graphs import Graph
from .heights import KHeight


class DominanceError(ValueError):
    """The low filling set is not stochastically dominated by the high one."""


class JointCoupling:
    """Exact joint distribution of the uniform laws on two filling lists,
    supported on pointwise-comparable pairs.

    It is kept as integer rows, one per low filling in list order: row a
    is entries offsets[a]:offsets[a + 1] of `high`, the indices into
    high_set of the fillings paired with low_set[a], and of `cum`, the
    cumulative integer flow of the row, in the lexicographic order of
    the high fillings.  A pair's probability is its flow over
    low_size * high_size, and each row's flows sum to high_size.
    support and expected_delta are built from the rows when asked for;
    len() is the number of support entries.
    """

    def __init__(self, low_set: tuple, high_set: tuple, offsets: array,
                 high: array, cum: array):
        self.low_set, self.high_set = low_set, high_set
        self.offsets, self.high, self.cum = offsets, high, cum

    @property
    def low_size(self) -> int:
        return len(self.low_set)

    @property
    def high_size(self) -> int:
        return len(self.high_set)

    def __len__(self) -> int:
        return len(self.high)

    @property
    def support(self) -> tuple:
        """(low filling, high filling, probability) sorted by the pair;
        the probabilities have denominator low_size * high_size."""
        denom = self.low_size * self.high_size
        offsets, high, cum = self.offsets, self.high, self.cum
        out = []
        for a in sorted(range(self.low_size), key=self.low_set.__getitem__):
            prev = 0
            for t in range(offsets[a], offsets[a + 1]):
                out.append((self.low_set[a], self.high_set[high[t]],
                            Fraction(cum[t] - prev, denom)))
                prev = cum[t]
        return tuple(out)

    def expected_delta(self) -> Fraction:
        lo, hi = np.array(self.low_set), np.array(self.high_set)
        offsets = np.frombuffer(self.offsets, np.int64)
        cum = np.frombuffer(self.cum, np.int64)
        flow = np.diff(cum, prepend=0)
        flow[offsets[1:-1]] = cum[offsets[1:-1]]
        rows = np.repeat(np.arange(self.low_size), np.diff(offsets))
        dist = np.abs(lo[rows] - hi[np.frombuffer(self.high, np.int32)])
        return Fraction(int(flow @ dist.sum(axis=1)),
                        self.low_size * self.high_size)

    def marginal_low(self) -> dict:
        out = {}
        for lo, _hi, p in self.support:
            out[lo] = out.get(lo, Fraction(0)) + p
        return out

    def marginal_high(self) -> dict:
        out = {}
        for _lo, hi, p in self.support:
            out[hi] = out.get(hi, Fraction(0)) + p
        return out


def check_joint_size(L: int, H: int, m: int) -> None:
    """Raise EnumerationCapError when a joint of L x H fillings of m
    vertices would compare more than ENUMERATION_CAP entries."""
    if L * H * m > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{L} x {H} filling pairs of {m} vertices exceed "
            f"cap {ENUMERATION_CAP}")


def strassen_joint(low_set, high_set) -> JointCoupling:
    """Joint distribution of the uniform laws on two filling sets, with
    support only on pointwise-comparable pairs.

    Built as an integer max-flow in the bipartite comparability network
    with denominators cleared: source -> each low filling at capacity
    |high_set|, each low filling -> each comparable high filling at
    capacity |high_set|, each high filling -> sink at capacity
    |low_set|.  The network is one CSR matrix, with nodes 0 = source,
    1..L = low fillings, L+1..L+H = high fillings and L+H+1 = sink in
    list order and each row's edges in column order, solved by scipy's
    Dinic (named, so that a change of scipy's default method cannot
    change the flow).  Any maximum flow of full value is a valid joint;
    which one this returns, and so every block-coupling trajectory,
    depends on that node and edge order and on the scipy version (the
    benchmark records it in its provenance).

    Raises ValueError for an empty set, fillings of no vertex (a joint
    of equal lists is never needed) or a repeated filling,
    DominanceError when no comparable joint exists, and
    EnumerationCapError, before the comparison array is built, when its
    L * H * m entries (m vertices a filling) pass ENUMERATION_CAP; the
    cap also keeps the flow value L * H inside the int32 capacities.
    """
    low_set, high_set = tuple(low_set), tuple(high_set)
    L, H = len(low_set), len(high_set)
    if L == 0 or H == 0 or not low_set[0]:
        raise ValueError("empty filling set, or fillings of no vertex")
    m = len(low_set[0])
    check_joint_size(L, H, m)
    if len(set(low_set)) < L or len(set(high_set)) < H:
        raise ValueError("repeated filling in a filling set")
    lo, hi = np.array(low_set), np.array(high_set)
    ok = np.ones((L, H), bool)
    for c in range(m):
        ok &= lo[:, None, c] <= hi[None, :, c]
    # rows: source, low fillings (their comparable high fillings in
    # order), high fillings, sink
    n = L + H + 2
    j = np.nonzero(ok)[1]
    per_row = np.concatenate(([L], ok.sum(axis=1), np.ones(H, int), [0]))
    graph = csr_matrix((
        np.concatenate((np.full(L, H), np.full(len(j), H), np.full(H, L)))
        .astype(np.int32),
        np.concatenate((1 + np.arange(L), 1 + L + j, np.full(H, n - 1)))
        .astype(np.int32),
        np.concatenate(([0], np.cumsum(per_row))).astype(np.int32),
    ), shape=(n, n))
    result = maximum_flow(graph, 0, n - 1, method="dinic")
    if result.flow_value != L * H:
        raise DominanceError(
            f"max flow {result.flow_value} < {L * H}: dominance fails")
    # the flow matrix adds the reverse edges, with negative flows; a low
    # row's positive entries past column L are its flows to the high
    # fillings
    flow = result.flow
    first, last = flow.indptr[1], flow.indptr[L + 1]
    cols, f = flow.indices[first:last], flow.data[first:last]
    rows = np.repeat(np.arange(L), np.diff(flow.indptr[1:L + 2]))
    keep = (cols > L) & (f > 0)
    cols, f, rows = cols[keep] - (L + 1), f[keep], rows[keep]
    rank = np.empty(H, np.int64)
    rank[np.lexsort(hi.T[::-1])] = np.arange(H)
    order = np.lexsort((rank[cols], rows))
    cols, f, rows = cols[order], f[order], rows[order]
    offsets = np.searchsorted(rows, np.arange(L + 1))
    # every row's flows sum to H
    cum = np.cumsum(f, dtype=np.int64) - H * rows
    return JointCoupling(low_set, high_set,
                         array("q", offsets.astype(np.int64).tobytes()),
                         array("i", cols.astype(np.int32).tobytes()),
                         array("q", cum.tobytes()))


def conditional_high_draw(joint: JointCoupling, low, r: int):
    """High-side filling given the low side, using an integer draw
    r uniform in [0, high_size): the first high filling, in
    lexicographic order, of the low filling's row whose cumulative flow
    passes r (the row's flows sum to high_size).  Raises ValueError
    when low is not a low filling of the joint."""
    a = joint.low_set.index(low)
    end = joint.offsets[a + 1]
    t = bisect_right(joint.cum, r, joint.offsets[a], end)
    if t == end:
        raise AssertionError("conditional draw ran past the support")
    return joint.high_set[joint.high[t]]


# ---------------------------------------------------------------------------
# lattice paths


def path_decompose(x, y) -> list[tuple[int, ...]]:
    """Shortest lattice path between the values x and y of two k-heights
    of one graph: the states after each step, delta(x, y) of them.

    From x down to their meet w = min(x, y), then up to y.  The way up
    from w to z makes the raises (a, v), w_v <= a < z_v, in the
    lexicographic order of (a, v): each raises a vertex of lowest
    current value (smallest index on ties) among those still below z,
    and that lowest value never falls.  So every state is a k-height: a
    raised vertex v at value a has every neighbour at >= a, as one still
    below z is at >= a and one already at z_u is within 1 of z_v > a.
    The way down runs the way up from w to x backwards.
    """
    meet = tuple(map(min, x, y))

    def up(z):
        cur, states = list(meet), []
        for _a, v in sorted((a, v) for v, (lo, hi) in enumerate(zip(meet, z))
                            for a in range(lo, hi)):
            cur[v] += 1
            states.append(tuple(cur))
        return states

    return [meet, *up(x)][-2::-1] + up(y)


# ---------------------------------------------------------------------------
# coupled steps


class CoupledState:
    """Two coupled trajectories as value lists; the constructor takes
    KHeights and checks low <= high once."""

    def __init__(self, low: KHeight, high: KHeight,
                 rng: np.random.Generator):
        if not (low <= high):
            raise ValueError("coupled state must satisfy low <= high")
        self.graph = low.graph
        self.k = low.k
        self.low = list(low.values)
        self.high = list(high.values)
        self.rng = rng
        self.step_count = 0

    @property
    def coalesced(self) -> bool:
        return self.low == self.high


#: accepted moves that coupled_updown_step makes with chains.updown_apply
#: between two low == high checks: max(COUPLED_STRETCH,
#: COUPLED_STRETCH_PER_VERTEX * n) on a graph of n vertices, so that the
#: O(n) copy and compare at each check stays a fixed share of a stretch.
#: Tests patch both to make stretches of a few moves.  On coalescence
#: trials of rect:3x3 to rect:16x16 (2-core box, in-process, interleaved
#: medians), floors of 16 to 128 moves and 1n to 4n were within 5% of
#: this; without the n term, a stretch of rect:32x32 would copy and
#: compare 3n entries every 64 moves.
COUPLED_STRETCH = 64
COUPLED_STRETCH_PER_VERTEX = 2


def coupled_updown_step(coupled: CoupledState,
                        steps: int = 1) -> CoupledState:
    """Up to `steps` coupled up/down transitions with shared draws
    (chains.updown_draws, a chunk at a time from chains.updown_moves);
    each side accepts by its own validity test.  Stops right after a
    step at which low == high.

    The step is monotone.  Where low[v] < high[v], one move of either
    side keeps low[v] <= high[v].  Where low[v] == high[v] = x, a side
    that can move forces the other's move: low can raise v only if no
    neighbour of v in low sits at x - 1, and then none in high does, as
    high's neighbours are at least low's, which are at least x; and high
    can lower v only if none of its neighbours sits at x + 1, and then
    none of low's does.  Equal sides stay equal, as they make the same
    moves by the same rule.

    So a chunk's accepted moves are made on each side with one
    chains.updown_apply call a stretch (COUPLED_STRETCH), and the sides
    are compared after each stretch: they first meet inside the first
    stretch after which they agree.  That stretch alone is made again,
    from copies taken at its entry, move by move with
    chains.updown_result to find the meeting step.  Unless that step
    ends its chunk, the generator is then put back to its state before
    the chunk and draws again the chunk's steps up to that one, so it is
    left where the scalar draws of the steps made leave it.  The first
    chunk has sum(high - low) steps, at most UPDOWN_CHUNK: a step
    changes one vertex's gap by at most 1, so the sides cannot meet
    sooner.  Chunks then double up to UPDOWN_CHUNK steps, so a pair
    that meets early decodes few draws past its meeting.  A one-step
    call and a pair that has met make one step with the per-move rule
    and no chunk."""
    low, high, k = coupled.low, coupled.high, coupled.k
    adj, n, rng = coupled.graph.adjacency(), coupled.graph.n, coupled.rng
    if steps < 1:
        return coupled
    if steps == 1 or low == high:
        v, delta, move = updown_draws(rng, n)
        if move:
            updown_result(low, adj, k, v, delta)
            updown_result(high, adj, k, v, delta)
        coupled.step_count += 1
        return coupled
    stretch = max(COUPLED_STRETCH, COUPLED_STRETCH_PER_VERTEX * n)
    done = 0
    size = min(UPDOWN_CHUNK, sum(high) - sum(low))
    while done < steps:
        m = min(size, steps - done)
        size = min(2 * size, UPDOWN_CHUNK)
        entry = rng.bit_generator.state
        js, vs, ds = updown_moves(rng, n, m)
        for a in range(0, len(vs), stretch):
            sv, sd = vs[a:a + stretch], ds[a:a + stretch]
            low_entry, high_entry = low[:], high[:]
            updown_apply(low, adj, k, sv, sd)
            updown_apply(high, adj, k, sv, sd)
            if low != high:
                continue
            low[:], high[:] = low_entry, high_entry
            differ = sum(x != y for x, y in zip(low, high))
            for j, v, delta in zip(js[a:a + stretch], sv, sd):
                was = low[v] != high[v]
                updown_result(low, adj, k, v, delta)
                updown_result(high, adj, k, v, delta)
                differ += (low[v] != high[v]) - was
                if not differ:
                    break
            if j + 1 < m:
                rng.bit_generator.state = entry
                updown_moves(rng, n, j + 1)
            coupled.step_count += done + j + 1
            return coupled
        done += m
    coupled.step_count += done
    return coupled


def coupled_block_step(coupled: CoupledState,
                       sampler: BlockSampler) -> CoupledState:
    """One monotone coupled block transition.

    Draw order: p first (shared laziness), then the block draw, then the
    filling randomness.  For cover pairs whose pivot lies on the block
    boundary the two fillings are drawn from the Strassen joint; distant
    pairs go through the cover-chain decomposition with the same block,
    linking conditional draws so the endpoints stay comparable.

    Two links with L != H fillings have different filling lists, so
    strassen_joint would refuse them by check_joint_size.  That check
    is made first on the BlockSampler.ranked counts, which list nothing
    for a ranker-shaped block (enumeration.dp_shape).  Links with L == H
    may have equal lists, which need no joint, and are left to
    strassen_joint.  The joints come from the sampler's memo
    (BlockSampler.joint), which calls strassen_joint on each miss.
    """
    rng = coupled.rng
    p = float(rng.random())
    if p > 0.5:
        coupled.step_count += 1
        return coupled
    r = int(rng.integers(sampler.family.total_count))
    b = sampler.pick_block(r)
    chain = [tuple(coupled.low)] + path_decompose(coupled.low, coupled.high)
    m = len(sampler.family.blocks[b].vertices)
    sizes = [sampler.ranked(b, z)[0] for z in chain]
    for L, H in zip(sizes, sizes[1:]):
        if L != H:
            check_joint_size(L, H, m)
    fillings = [sampler.fillings_for(b, z) for z in chain]
    f = f_low = fillings[0][int(rng.integers(len(fillings[0])))]
    for i in range(1, len(chain)):
        # equal filling lists (identical constraints) reuse the filling
        if fillings[i] != fillings[i - 1]:
            joint = sampler.joint(fillings[i - 1], fillings[i])
            f = conditional_high_draw(
                joint, f, int(rng.integers(len(fillings[i]))))
    sampler.apply(coupled.low, b, f_low)
    sampler.apply(coupled.high, b, f)
    coupled.step_count += 1
    return coupled


def expected_coupled_updown_distance(x: KHeight, y: KHeight) -> Fraction:
    """Exact E[delta(X', Y')] after one coupled up/down step from (x, y).

    Each (vertex, offset) pair fires with probability 1/(4n) (laziness
    accounts for the other half); both sides then accept or hold by
    their own validity test.
    """
    n = x.graph.n
    adj = x.graph.adjacency()
    total = Fraction(1, 2) * x.delta(y)  # p > 1/2: both hold
    for v in range(n):
        for delta in (-1, 1):
            nx, ny = list(x.values), list(y.values)
            updown_result(nx, adj, x.k, v, delta)
            updown_result(ny, adj, y.k, v, delta)
            total += Fraction(1, 4 * n) * sum(
                abs(a - b) for a, b in zip(nx, ny))
    return total


# ---------------------------------------------------------------------------
# coupling from the past


#: time slots cftp_sample may cover before it gives up; it stores the
#: accepted ones only, 5 bytes each (an int32 vertex and an int8 sign):
#: at most 160 MiB at the cap, about half that as half the slots are
#: lazy, plus ~16 bytes a slot while an epoch is drawn (256 MiB for the
#: last); rect:128x128 at k=3 coalesced at the cap with seed 0
CFTP_MAX_SLOTS = 1 << 25

#: epochs of up to this many slots decode their draws from raw Philox
#: words (~40 bytes a slot while decoding); longer ones, where the fixed
#: cost of the Generator calls no longer counts, take those calls
CFTP_RAW_SLOTS = 1 << 16

#: coalescence epochs cftp_sample remembers per (graph, k) key, and keys
CFTP_MEMO_EPOCHS = 16
CFTP_MEMO_KEYS = 64

#: coupled steps per coalescence trial before coupling_time_estimate
#: gives up; a trial stores nothing per step, so this bounds time only
COALESCENCE_MAX_STEPS = 10 ** 7


def cftp_epoch_draws(seed: int, e: int, n: int):
    """The draws of CFTP epoch e, 1 slot for e = 0 and 2^(e-1) after:
    vertices, signs in {0, 1} and p <= 1/2 flags, equal to the calls

        rng = Generator(Philox(SeedSequence((seed, e))))
        rng.integers(0, n, size), rng.integers(0, 2, size),
        rng.random(size) <= 0.5

    Up to CFTP_RAW_SLOTS slots and for 1 < n < 2^32 they are decoded from
    2 * size raw words with chains.decode_integers and
    chains.decode_at_most_half: those calls read the 2 * size 32-bit
    halves of the first size words, low half first, for the vertices and
    then the signs (the top bit), and the last size words for p.  When a
    vertex draw would be rejected the calls are made instead."""
    size = 1 if e == 0 else 1 << (e - 1)
    entropy = np.random.SeedSequence(entropy=(seed, e))
    if 1 < n < 1 << 32 and size <= CFTP_RAW_SLOTS:
        raw = np.random.Philox(entropy).random_raw(2 * size)
        halves = raw[:size].astype("<u8", copy=False).view("<u4")
        vs = decode_integers(halves[:size], n)
        if vs is not None:
            return vs, halves[size:] >> 31, decode_at_most_half(raw[size:])
    # narrowed as soon as drawn: ~14 bytes a slot at the peak
    rng = np.random.Generator(np.random.Philox(entropy))
    return (rng.integers(0, n, size=size, dtype=np.int64)
            .astype(np.int32 if n <= 1 << 31 else np.int64),
            rng.integers(0, 2, size=size, dtype=np.int64).astype(np.int8),
            rng.random(size=size) <= 0.5)


def cftp_first_epoch(epochs) -> int:
    """The epoch g at which to start, given earlier coalescence epochs:
    the one that minimises the summed slot cost of the runs, 2^g for an
    epoch e < g and 2^g + ... + 2^e = 2^(e+1) - 2^g otherwise; 0 with no
    history.  Between two remembered epochs that cost is a multiple of
    2^g plus a constant, so the least lies at a remembered epoch; the
    smallest one wins a tie."""
    return min(sorted(set(epochs)), default=0, key=lambda g: sum(
        (1 << g) if g > e else (2 << e) - (1 << g) for e in epochs))


@lru_cache(maxsize=CFTP_MEMO_KEYS)
def _remembered_epochs(n: int, edges_hash: int, k: int) -> deque:
    """The last CFTP_MEMO_EPOCHS coalescence epochs of cftp_sample on the
    graphs of n vertices whose edge set hashes to edges_hash, at k."""
    return deque(maxlen=CFTP_MEMO_EPOCHS)


def cftp_sample(graph: Graph, k: int, seed: int) -> KHeight:
    """Exact uniform sample over the k-heights of a connected graph.

    Monotone grand coupling of the up/down chain run from the all-zero
    and all-k states, from time -T to 0 with T doubling per epoch; the
    randomness of each time slot is fixed once and reused by every
    epoch: epoch e covers slots [-2^e, -2^(e-1)) and draws them from
    its own key (seed, e) (cftp_epoch_draws).  Only the accepted slots
    are kept.  A run steps the two chains one segment at a time with
    chains.updown_apply, the low one first; they do not interact inside
    a segment, so this is the same as stepping them in turn, and once
    they meet at a segment boundary the rest of the run steps one.

    The first run starts at a guessed epoch g, not at 0: all segments
    0..g are drawn, and T doubles from 2^g on failure.  Once the run
    from -2^e* coalesces, every run from -2^e with e >= e* coalesces to
    the same state (Propp & Wilson 1996).  So a run from -2^g that
    coalesces returns the sample of the run from -2^e*, and one that
    does not shows e* > g: the skipped runs, from -2^e with e < g, would
    not have coalesced either.  The sample does not depend on g.
    g is cftp_first_epoch of the coalescence epochs of earlier samples
    of the same (n, edges, k), kept in a process-wide memo of
    CFTP_MEMO_KEYS keys (least recently used first out) of the last
    CFTP_MEMO_EPOCHS epochs each.  The key holds the hash of the edge
    set, not the set, so the memo holds no graph; two graphs that share
    a key share a history, which again moves only the time, as does
    the record that one of two threads meeting a new key at once may
    lose.  A first run that coalesces shows only e* <= g; it records
    g - 1, so that the guess can come down again (recording g would
    ratchet it up for good: every record would be >= g).  A later epoch
    that coalesces is e*.

    Raises ValueError for k < 0, and EnumerationCapError before drawing
    an epoch that would cover more than CFTP_MAX_SLOTS slots.  g is
    clamped to the last epoch the cap allows, so it raises exactly where
    a start at 0 does.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n = graph.n
    adj = graph.adjacency()
    epochs = _remembered_epochs(n, hash(graph.edges), k)
    first = min(cftp_first_epoch(tuple(epochs)),  # another thread may append
                CFTP_MAX_SLOTS.bit_length() - 1)
    segments = []
    for e in count():
        if 1 << e > CFTP_MAX_SLOTS:
            raise EnumerationCapError(
                f"no coalescence within {CFTP_MAX_SLOTS} steps")
        vs, ds, acc = cftp_epoch_draws(seed, e, n)
        segments.append((
            array("i", vs[acc].astype(np.int32, copy=False).tobytes()),
            array("b", (2 * ds[acc].astype(np.int8, copy=False) - 1)
                  .tobytes())))
        if e < first:
            continue
        lo, hi = [0] * n, [k] * n
        for vs, ds in reversed(segments):  # oldest randomness first
            updown_apply(lo, adj, k, vs, ds)
            if hi is not lo:
                updown_apply(hi, adj, k, vs, ds)
                if lo == hi:  # coalesced: the rest of the run is one chain
                    hi = lo
        if hi is lo:
            epochs.append(e - 1 if e == first > 0 else e)
            return KHeight(graph, k, tuple(lo))


# ---------------------------------------------------------------------------
# empirical coalescence times


def coupling_time_estimate(graph: Graph, k: int, trials: int = 100,
                           seed: int = 0, family=None) -> dict:
    """Coalescence-time statistics of the monotone coupling started from
    (bottom, top): of the block chain on `family` if one is given, else
    of the up/down chain.  Deterministic given the seed.  Raises
    EnumerationCapError when a trial reaches COALESCENCE_MAX_STEPS."""
    times = []
    sampler = None if family is None else BlockSampler(graph, family, k)
    for t in range(trials):
        coupled = CoupledState(
            low=KHeight.constant(graph, k, 0),
            high=KHeight.constant(graph, k, k),
            rng=make_rng(np.random.SeedSequence(
                entropy=(seed, t)).generate_state(1)[0].item()),
        )
        while not coupled.coalesced:
            left = COALESCENCE_MAX_STEPS - coupled.step_count
            if left <= 0:
                raise EnumerationCapError(f"no coalescence within "
                                          f"{COALESCENCE_MAX_STEPS} steps")
            if sampler is None:
                coupled_updown_step(coupled, left)
            else:
                coupled_block_step(coupled, sampler)
        times.append(coupled.step_count)
    arr = np.array(times)
    return {
        "trials": trials,
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "q10": float(np.quantile(arr, 0.1)),
        "q90": float(np.quantile(arr, 0.9)),
        "max": int(arr.max()),
        "times": times,
    }
