"""Couplings of the k-height chains: stochastic-dominance joints via
max-flow, the monotone coupled steps, shortest-path decomposition into
cover pairs, coupling from the past, and empirical coalescence-time
estimation.

All joint distributions are exact rationals; sampling from them uses
integer draws only, so trajectories are exactly reproducible.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .chains import (
    UPDOWN_CHUNK,
    UPDOWN_MIN_CHUNK,
    BlockSampler,
    make_rng,
    updown_moves,
    updown_result,
)
from .enumeration import ENUMERATION_CAP, EnumerationCapError
from .graphs import Graph
from .heights import KHeight


class DominanceError(ValueError):
    """The low filling set is not stochastically dominated by the high one."""


@dataclass(frozen=True)
class JointCoupling:
    """Exact joint distribution on comparable filling pairs.

    support holds (low filling, high filling, probability); the
    probabilities have common denominator |low_set| * |high_set|.
    """

    support: tuple[tuple[tuple[int, ...], tuple[int, ...], Fraction], ...]
    low_size: int
    high_size: int

    def expected_delta(self) -> Fraction:
        return sum(
            (p * sum(abs(a - b) for a, b in zip(lo, hi))
             for lo, hi, p in self.support),
            Fraction(0),
        )

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


def strassen_joint(low_set, high_set) -> JointCoupling:
    """Joint distribution of the uniform laws on two filling sets, with
    support only on pointwise-comparable pairs.

    Built as an integer max-flow in the bipartite comparability network
    with denominators cleared: source -> each low filling at capacity
    |high_set|, each high filling -> sink at capacity |low_set|.  Any
    maximum flow of full value is accepted.  Raises EnumerationCapError,
    before the comparison array is built, when its L * H * m entries (m
    vertices a filling) pass ENUMERATION_CAP; the cap also keeps the
    flow value L * H inside the int32 capacities.
    """
    low_set = list(low_set)
    high_set = list(high_set)
    L, H = len(low_set), len(high_set)
    if L == 0 or H == 0:
        raise ValueError("empty filling set")
    denom = L * H
    if L == 1 and H == 1:
        lo, hi = low_set[0], high_set[0]
        if any(a > b for a, b in zip(lo, hi)):
            raise DominanceError("singleton pair not comparable")
        return JointCoupling(((lo, hi, Fraction(1)),), 1, 1)
    if L * H * len(low_set[0]) > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{L} x {H} filling pairs of {len(low_set[0])} vertices exceed "
            f"cap {ENUMERATION_CAP}")
    # nodes: 0 = source, 1..L = low, L+1..L+H = high, L+H+1 = sink;
    # comparability edges come in (i, j) order
    n = L + H + 2
    lo, hi = np.array(low_set), np.array(high_set)
    i, j = np.nonzero(np.all(lo[:, None, :] <= hi[None, :, :], axis=2))
    rows = np.concatenate([np.zeros(L, int), 1 + L + np.arange(H), 1 + i])
    cols = np.concatenate([1 + np.arange(L), np.full(H, n - 1), 1 + L + j])
    caps = np.concatenate([np.full(L, H), np.full(H, L), np.full(len(i), H)])
    graph = csr_matrix((caps, (rows, cols)), shape=(n, n), dtype=np.int32)
    result = maximum_flow(graph, 0, n - 1)
    if result.flow_value != denom:
        raise DominanceError(
            f"max flow {result.flow_value} < {denom}: dominance fails")
    flow = np.asarray(result.flow[1 + i, 1 + L + j]).ravel()
    support = sorted((low_set[a], high_set[b], Fraction(int(f), denom))
                     for a, b, f in zip(i, j, flow) if f > 0)
    return JointCoupling(tuple(support), L, H)


def conditional_high_draw(joint: JointCoupling, low, r: int):
    """High-side filling given the low side, using an integer draw
    r uniform in [0, high_size): walks the scaled conditional weights
    flow(low, .) which sum to high_size."""
    acc = 0
    for lo, hi, p in joint.support:
        if lo == low:
            acc += p.numerator * (joint.low_size * joint.high_size
                                  // p.denominator)
            if r < acc:
                return hi
    raise AssertionError("conditional draw ran past the support")


# ---------------------------------------------------------------------------
# lattice paths


def path_decompose(x: KHeight, y: KHeight) -> list[tuple[KHeight, KHeight]]:
    """Shortest lattice path between two k-heights as a chain of cover
    pairs; its length is exactly delta(x, y).

    For x <= y the path repeatedly raises, among the vertices where the
    two still differ, one of minimal current value (smallest index on
    ties); minimality guarantees the raise stays valid.  Incomparable
    pairs route through the meet.
    """
    if x.values == y.values:
        return []
    if not (x <= y):
        if y <= x:
            return [(lo, hi) for lo, hi in reversed(path_decompose(y, x))]
        m = x.meet(y)
        down = [(lo, hi) for lo, hi in reversed(path_decompose(m, x))]
        return down + path_decompose(m, y)
    pairs = []
    cur = x
    while cur.values != y.values:
        cand = [v for v in range(cur.graph.n) if cur.values[v] < y.values[v]]
        v = min(cand, key=lambda u: (cur.values[u], u))
        nxt = cur.with_value(v, cur.values[v] + 1)
        pairs.append((cur, nxt))
        cur = nxt
    return pairs


# ---------------------------------------------------------------------------
# coupled steps


class CoupledState:
    """Two coupled trajectories as value lists; the constructor takes
    KHeights and checks low <= high once."""

    def __init__(self, low: KHeight, high: KHeight,
                 rng: np.random.Generator, step_count: int = 0):
        if not (low <= high):
            raise ValueError("coupled state must satisfy low <= high")
        self.graph = low.graph
        self.k = low.k
        self.low = list(low.values)
        self.high = list(high.values)
        self.rng = rng
        self.step_count = step_count

    @property
    def coalesced(self) -> bool:
        return self.low == self.high


def coupled_updown_step(coupled: CoupledState,
                        steps: int = 1) -> CoupledState:
    """Up to `steps` coupled up/down transitions with shared draws
    (chains.updown_draws, a chunk at a time from chains.updown_moves);
    each side accepts by its own validity test.  Monotone in practice
    (verified by tests).  Stops right after a step at which low == high;
    the generator is then left where the scalar draws of the steps made
    leave it.  Chunks double from UPDOWN_MIN_CHUNK to UPDOWN_CHUNK steps,
    so a pair that meets early decodes few draws past its meeting."""
    low, high, k = coupled.low, coupled.high, coupled.k
    adj, n = coupled.graph.adjacency(), coupled.graph.n
    differ = sum(a != b for a, b in zip(low, high))
    done, size = 0, UPDOWN_MIN_CHUNK
    while done < steps:
        m = min(size, steps - done) if differ else 1
        size = min(2 * size, UPDOWN_CHUNK)
        moves, settle = updown_moves(coupled.rng, n, m)
        for j, v, delta in moves:
            was = low[v] != high[v]
            updown_result(low, adj, k, v, delta)
            updown_result(high, adj, k, v, delta)
            differ += (low[v] != high[v]) - was
            if not differ:
                m = j + 1
                settle(m)
                break
        done += m
        if not differ:
            break
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
    """
    rng = coupled.rng
    p = float(rng.random())
    if p > 0.5:
        coupled.step_count += 1
        return coupled
    r = int(rng.integers(sampler.family.total_count))
    b = sampler.pick_block(r)
    low = KHeight(coupled.graph, coupled.k, tuple(coupled.low))
    high = KHeight(coupled.graph, coupled.k, tuple(coupled.high))
    chain = [low.values] + [hi.values for _lo, hi in path_decompose(low, high)]
    fillings = [sampler.fillings_for(b, z) for z in chain]
    f = f_low = fillings[0][int(rng.integers(len(fillings[0])))]
    for i in range(1, len(chain)):
        if fillings[i] == fillings[i - 1]:
            pass  # identical boundary constraints: reuse the filling
        else:
            joint = strassen_joint(fillings[i - 1], fillings[i])
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

#: coupled steps per coalescence trial before coupling_time_estimate
#: gives up; a trial stores nothing per step, so this bounds time only
COALESCENCE_MAX_STEPS = 10 ** 7


def cftp_sample(graph: Graph, k: int, seed: int) -> KHeight:
    """Exact uniform sample over the k-heights of a connected graph.

    Monotone grand coupling of the up/down chain run from the all-zero
    and all-k states, from time -T to 0 with T doubling per epoch; the
    randomness of each time slot is fixed once and reused by every
    epoch (slot arrays are keyed by the epoch that created them).  Only
    the accepted slots are kept, and once the two chains meet at a
    segment boundary the rest of that run steps one of them.  Raises
    EnumerationCapError before drawing an epoch that would cover more
    than CFTP_MAX_SLOTS slots.
    """
    if k == 0:
        return KHeight.constant(graph, k, 0)
    n = graph.n
    adj = graph.adjacency()
    segments = []  # epoch e covers time slots [-2^e, -2^(e-1))

    def epoch_slots(e: int, length: int):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=(seed, e))))
        vs = rng.integers(0, n, size=length, dtype=np.int64).astype(np.int32)
        ds = rng.integers(0, 2, size=length, dtype=np.int64).astype(np.int8)
        acc = rng.random(size=length) <= 0.5
        return array("i", vs[acc].tobytes()), array("b", (2 * ds[acc] - 1)
                                                     .tobytes())

    for e in count():
        if 1 << e > CFTP_MAX_SLOTS:
            raise EnumerationCapError(
                f"no coalescence within {CFTP_MAX_SLOTS} steps")
        length = 1 if e == 0 else 1 << (e - 1)
        segments.append(epoch_slots(e, length))
        lo = [0] * n
        hi = [k] * n
        # oldest randomness first: epoch e covers the earliest slots
        for vs, ds in reversed(segments):
            if lo == hi:  # coalesced: the rest of the run is one chain
                hi = lo
                for v, delta in zip(vs, ds):
                    updown_result(lo, adj, k, v, delta)
            else:
                for v, delta in zip(vs, ds):
                    updown_result(lo, adj, k, v, delta)
                    updown_result(hi, adj, k, v, delta)
        if lo == hi:
            return KHeight(graph, k, tuple(lo))


# ---------------------------------------------------------------------------
# empirical coalescence times


def coupling_time_estimate(graph: Graph, k: int, mode: str = "updown",
                           trials: int = 100, seed: int = 0,
                           family=None) -> dict:
    """Coalescence-time statistics of the monotone coupling started from
    (bottom, top).  Deterministic given the seed.  Raises
    EnumerationCapError when a trial reaches COALESCENCE_MAX_STEPS."""
    times = []
    sampler = None
    if mode == "block":
        if family is None:
            raise ValueError("block mode needs a block family")
        sampler = BlockSampler(graph, family, k)
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
            if mode == "updown":
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
