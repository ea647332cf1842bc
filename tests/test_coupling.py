import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from conftest import rng_fields, small_graphs
from kheights import chains, coupling
from kheights.chains import BlockSampler, make_rng, updown_draws, updown_result
from kheights.coupling import (
    CoupledState,
    DominanceError,
    cftp_sample,
    conditional_high_draw,
    coupled_block_step,
    coupled_updown_step,
    coupling_time_estimate,
    expected_coupled_updown_distance,
    path_decompose,
    strassen_joint,
)
from kheights.divergence import expected_gap, iter_cover_pairs
from kheights.enumeration import EnumerationCapError, enumerate_fillings
from kheights.graphs import (
    CaseTag,
    Graph,
    boundary,
    make_case_graph,
    make_complete,
    make_toroidal_rect,
    singleton_family,
)
from kheights.heights import KHeight, enumerate_heights, is_valid

from conftest import small_graphs


def _cover_pair_fillings(tag, k, seed, tries=60):
    g, block, v = make_case_graph(tag)
    bdry = sorted(boundary(g, block))
    rnd = random.Random(seed)
    for _ in range(tries):
        vals = {u: rnd.randrange(k + 1) for u in bdry}
        if vals[v] >= k:
            continue
        lo = dict(vals)
        hi = dict(vals)
        hi[v] += 1
        from kheights.heights import BoundaryConstraint

        fl = enumerate_fillings(
            g, block, BoundaryConstraint(tuple(sorted(lo.items()))), k)
        fh = enumerate_fillings(
            g, block, BoundaryConstraint(tuple(sorted(hi.items()))), k)
        if fl and fh:
            yield g, block, lo, hi, fl, fh


def test_strassen_marginals_exact():
    for tag, k in [(CaseTag("type1", (1,), 6), 2),
                   (CaseTag("type1", (1, 3), 5), 3)]:
        seen = 0
        for _g, _b, _lo, _hi, fl, fh in _cover_pair_fillings(tag, k, 0):
            joint = strassen_joint(fl, fh)
            assert joint.marginal_low() == {
                f: Fraction(1, len(fl)) for f in fl}
            assert joint.marginal_high() == {
                f: Fraction(1, len(fh)) for f in fh}
            for lo, hi, p in joint.support:
                assert p > 0
                assert all(a <= b for a, b in zip(lo, hi))
            seen += 1
        assert seen > 5


def test_strassen_expected_delta_equals_marginal_gap():
    """The coupling's expected L1 distance equals the expected-weight gap
    (the comparable-support coupling realizes exactly the marginal gap)."""
    tag, k = CaseTag("type1", (1,), 5), 2
    g, block, v = make_case_graph(tag)
    from kheights.heights import BoundaryConstraint

    count = 0
    for lo, hi in iter_cover_pairs(g, block, v, k):
        fl = enumerate_fillings(g, block, lo, k)
        fh = enumerate_fillings(g, block, hi, k)
        if not fl or not fh:
            continue
        joint = strassen_joint(fl, fh)
        assert joint.expected_delta() == expected_gap(g, block, lo, hi, k)
        count += 1
    assert count > 20
    assert BoundaryConstraint  # imported for clarity above


def test_strassen_rejects_non_dominated_sets():
    with pytest.raises(DominanceError):
        strassen_joint([(2,)], [(0,)])
    # {0, 2} vs {1}: expectation equal but no comparable coupling of the
    # uniform laws exists with mass 1/2 on (2, 1)
    with pytest.raises(DominanceError):
        strassen_joint([(0, 2), (2, 0)], [(1, 0), (0, 1)])


def test_conditional_high_draw_consistency():
    fl = [(0,), (1,)]
    fh = [(1,), (2,)]
    joint = strassen_joint(fl, fh)
    for lo in fl:
        draws = Counter(conditional_high_draw(joint, lo, r)
                        for r in range(len(fh)))
        total = sum(draws.values())
        assert total == len(fh)
        # conditional distribution matches the flow proportions
        for hi, cnt in draws.items():
            p = next(p for a, b, p in joint.support
                     if a == lo and b == hi)
            assert Fraction(cnt, total) == p / Fraction(1, len(fl))


def test_path_decompose_properties():
    for g in small_graphs(4):
        k = 2
        states = [KHeight(g, k, v) for v in enumerate_heights(g, k)]
        rnd = random.Random(3)
        for _ in range(20):
            x, y = rnd.choice(states), rnd.choice(states)
            path = path_decompose(x, y)
            assert len(path) == x.delta(y)
            cur = x.values
            for lo, hi in path:
                assert lo.delta(hi) == 1 and lo <= hi
                assert is_valid(g, lo.values, k) and is_valid(g, hi.values, k)
                assert cur in (lo.values, hi.values)
                cur = hi.values if cur == lo.values else lo.values
            assert cur == y.values


def test_coupled_updown_monotone(path3):
    st = CoupledState(
        low=KHeight.constant(path3, 2, 0),
        high=KHeight.constant(path3, 2, 2),
        rng=make_rng(0),
    )
    while not st.coalesced:
        coupled_updown_step(st)
        assert all(a <= b for a, b in zip(st.low, st.high))
        assert is_valid(path3, st.low, 2) and is_valid(path3, st.high, 2)
    assert st.low == st.high


def _scalar_coupled_step(st):
    v, delta, move = updown_draws(st.rng, st.graph.n)
    if move:
        adj = st.graph.adjacency()
        updown_result(st.low, adj, st.k, v, delta)
        updown_result(st.high, adj, st.k, v, delta)
    st.step_count += 1


@settings(max_examples=60, deadline=None)
@given(g=strategies.sampled_from(small_graphs() + [make_toroidal_rect(3, 3)]),
       k=strategies.integers(1, 3), seed=strategies.integers(0, 2 ** 32 - 1),
       chunk=strategies.sampled_from([1, 3, 64, 4096]),
       least=strategies.sampled_from([1, 4]),
       pieces=strategies.lists(strategies.integers(1, 300), min_size=1,
                               max_size=20))
def test_chunked_coupled_step_matches_scalar(g, k, seed, chunk, least,
                                             pieces):
    """Chunked coupled steps, interleaved with single ones, follow the
    scalar draws and stop right after the step at which the two sides
    meet, with the generator where the scalar steps leave it."""
    def start():
        return CoupledState(low=KHeight.constant(g, k, 0),
                            high=KHeight.constant(g, k, k),
                            rng=make_rng(seed))

    fast, slow = start(), start()
    with mock.patch.object(coupling, "UPDOWN_CHUNK", chunk), \
            mock.patch.object(coupling, "UPDOWN_MIN_CHUNK", least), \
            mock.patch.object(chains, "UPDOWN_MIN_CHUNK", least):
        for m in pieces:
            for steps in (m, 1):
                if fast.coalesced:
                    break
                coupled_updown_step(fast, steps)
                for _ in range(steps):
                    _scalar_coupled_step(slow)
                    if slow.coalesced:
                        break
                assert (fast.low, fast.high) == (slow.low, slow.high)
                assert fast.step_count == slow.step_count
                assert rng_fields(fast.rng) == rng_fields(slow.rng)


def test_coalescence_cap_is_exact(monkeypatch):
    # a trial that meets at step t passes with the cap at t and exits 4
    # with the cap at t - 1, as the one-step-at-a-time loop did
    g = make_toroidal_rect(3, 3)
    t = coupling_time_estimate(g, 2, trials=1, seed=5)["times"][0]
    monkeypatch.setattr(coupling, "COALESCENCE_MAX_STEPS", t)
    assert coupling_time_estimate(g, 2, trials=1, seed=5)["times"] == [t]
    monkeypatch.setattr(coupling, "COALESCENCE_MAX_STEPS", t - 1)
    with pytest.raises(EnumerationCapError):
        coupling_time_estimate(g, 2, trials=1, seed=5)


def test_coupled_step_from_a_met_pair_makes_one_step(path3):
    h = KHeight.constant(path3, 2, 1)
    st = CoupledState(low=h, high=h, rng=make_rng(4))
    coupled_updown_step(st, 50)
    assert st.step_count == 1 and st.coalesced


def test_coupled_state_requires_order(path3):
    with pytest.raises(ValueError):
        CoupledState(low=KHeight.constant(path3, 2, 2),
                     high=KHeight.constant(path3, 2, 0), rng=make_rng(0))


def test_coupled_block_step_monotone_and_valid():
    g = make_complete(3)
    k = 2
    sampler = BlockSampler(g, singleton_family(g), k)
    st = CoupledState(low=KHeight.constant(g, k, 0),
                      high=KHeight.constant(g, k, k), rng=make_rng(5))
    for _ in range(400):
        coupled_block_step(st, sampler)
        assert all(a <= b for a, b in zip(st.low, st.high))
        assert is_valid(g, st.low, k)
        assert is_valid(g, st.high, k)


def test_single_vertex_coalescence_time_is_two():
    """With shared (vertex, offset, p) both chains move together whenever
    the move is accepted, so coalescence is geometric with rate 1/2."""
    g = Graph.from_edges(1, [])
    est = coupling_time_estimate(g, 1, trials=4000, seed=0)
    assert abs(est["mean"] - 2.0) < 0.1


def test_coupling_time_deterministic(path3):
    a = coupling_time_estimate(path3, 2, trials=20, seed=9)
    b = coupling_time_estimate(path3, 2, trials=20, seed=9)
    assert a == b


def test_cftp_deterministic_and_valid(cycle4):
    h1 = cftp_sample(cycle4, 2, seed=77)
    h2 = cftp_sample(cycle4, 2, seed=77)
    assert h1.values == h2.values
    assert is_valid(cycle4, h1.values, 2)
    assert cftp_sample(cycle4, 0, seed=1).values == (0, 0, 0, 0)


def test_cftp_uniform_small(path3):
    states = list(enumerate_heights(path3, 2))
    n = 1700
    cnt = Counter(cftp_sample(path3, 2, seed=s).values for s in range(n))
    assert set(cnt) <= set(states)
    expected = n / len(states)
    chi2 = sum((cnt.get(s, 0) - expected) ** 2 / expected for s in states)
    assert chi2 < 39.25  # df=16 at 99.9%


def test_noncontraction_witness_13_6(path3):
    x = KHeight(path3, 3, (1, 0, 1))
    y = KHeight(path3, 3, (1, 2, 1))
    assert expected_coupled_updown_distance(x, y) == Fraction(13, 6)


def test_one_step_distance_oracle_via_enumeration(path3):
    """Cross-check the exact formula against explicit (v, offset) draws."""
    k = 2
    x = KHeight(path3, k, (0, 1, 1))
    y = KHeight(path3, k, (1, 1, 2))
    adj = path3.adjacency()

    total = Fraction(1, 2) * x.delta(y)
    n = path3.n
    for v in range(n):
        for d in (-1, 1):
            nx, ny = list(x.values), list(y.values)
            updown_result(nx, adj, k, v, d)
            updown_result(ny, adj, k, v, d)
            total += Fraction(1, 4 * n) * KHeight(path3, k, tuple(nx)).delta(
                KHeight(path3, k, tuple(ny)))
    assert expected_coupled_updown_distance(x, y) == total


def test_coupling_time_seedsequence_isolation(path3):
    # distinct seeds give distinct trajectories almost surely
    a = coupling_time_estimate(path3, 2, trials=10, seed=1)
    b = coupling_time_estimate(path3, 2, trials=10, seed=2)
    assert a["times"] != b["times"]


def test_strassen_singleton_shortcut():
    j = strassen_joint([(0, 1)], [(1, 1)])
    assert j.support == (((0, 1), (1, 1), Fraction(1)),)
    assert isinstance(np.int64(1), np.integer)  # numpy available


def test_strassen_cap_exit_before_allocating():
    # 2049 x 2049 pairs of 16-vertex fillings is the first square past
    # ENUMERATION_CAP = 2048^2 * 16; the ~64 MiB comparison array is never
    # built
    low = [(0,) * 16] * 2049
    high = [(1,) * 16] * 2049
    assert 2049 * 2049 * 16 > coupling.ENUMERATION_CAP >= 2048 * 2048 * 16
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError):
            strassen_joint(low, high)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
