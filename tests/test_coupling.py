import gc
import random
import tracemalloc
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from unittest import mock

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow
from hypothesis import given, settings, strategies

from conftest import rng_fields, small_graphs
from kheights import chains, coupling, heights
from kheights.chains import (
    BlockSampler,
    make_chain,
    make_rng,
    step_updown,
    updown_draws,
    updown_result,
)
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
from kheights.cli import main
from kheights.divergence import expected_gap, iter_cover_pairs
from kheights.enumeration import EnumerationCapError, enumerate_fillings
from kheights.graphs import (
    Block,
    BlockFamily,
    CaseTag,
    Graph,
    boundary,
    hex_block_family,
    make_case_graph,
    make_complete,
    make_toroidal_hex,
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


# ---------------------------------------------------------------------------
# the per-entry Strassen joint, kept as the oracle of the integer rows


@dataclass(frozen=True)
class _OracleJoint:
    support: tuple
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


def _oracle_strassen_joint(low_set, high_set) -> _OracleJoint:
    """The joint as a sorted tuple of (low, high, Fraction): the network
    from one L x H x m broadcast and COO triples, scipy's default method."""
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
        return _OracleJoint(((lo, hi, Fraction(1)),), 1, 1)
    if L * H * len(low_set[0]) > coupling.ENUMERATION_CAP:
        raise EnumerationCapError("cap")
    n = L + H + 2
    lo, hi = np.array(low_set), np.array(high_set)
    i, j = np.nonzero(np.all(lo[:, None, :] <= hi[None, :, :], axis=2))
    rows = np.concatenate([np.zeros(L, int), 1 + L + np.arange(H), 1 + i])
    cols = np.concatenate([1 + np.arange(L), np.full(H, n - 1), 1 + L + j])
    caps = np.concatenate([np.full(L, H), np.full(H, L), np.full(len(i), H)])
    graph = csr_matrix((caps, (rows, cols)), shape=(n, n), dtype=np.int32)
    result = maximum_flow(graph, 0, n - 1)
    if result.flow_value != denom:
        raise DominanceError("dominance fails")
    flow = np.asarray(result.flow[1 + i, 1 + L + j]).ravel()
    support = sorted((low_set[a], high_set[b], Fraction(int(f), denom))
                     for a, b, f in zip(i, j, flow) if f > 0)
    return _OracleJoint(tuple(support), L, H)


def _oracle_conditional_high_draw(joint: _OracleJoint, low, r: int):
    acc = 0
    for lo, hi, p in joint.support:
        if lo == low:
            acc += p.numerator * (joint.low_size * joint.high_size
                                  // p.denominator)
            if r < acc:
                return hi
    raise AssertionError("conditional draw ran past the support")


def _assert_joint_matches_oracle(low, high):
    try:
        want = _oracle_strassen_joint(low, high)
    except (DominanceError, EnumerationCapError) as exc:
        with pytest.raises(type(exc)):
            strassen_joint(low, high)
        return
    got = strassen_joint(low, high)
    assert (got.low_size, got.high_size) == (want.low_size, want.high_size)
    assert got.support == want.support
    assert got.marginal_low() == want.marginal_low()
    assert got.marginal_high() == want.marginal_high()
    assert got.expected_delta() == want.expected_delta()
    assert len(got) == len(want.support)
    for lo in low:
        assert [conditional_high_draw(got, lo, r)
                for r in range(len(high))] == [
            _oracle_conditional_high_draw(want, lo, r)
            for r in range(len(high))]


def _block_cover_fillings(graph, family, k, seed, tries=30):
    """Filling lists of a block under the two sides of a cover pair at
    one of its boundary vertices, from a k-height the chain reached."""
    sampler = BlockSampler(graph, family, k)
    st = make_chain(graph, k, seed)
    step_updown(st, 20 * graph.n)
    rnd = random.Random(seed)
    for _ in range(tries):
        b = rnd.randrange(len(family.blocks))
        u = rnd.choice(sorted(boundary(graph, family.blocks[b])))
        high = list(st.values)
        high[u] += 1
        if not is_valid(graph, high, k):
            continue
        fl = sampler.fillings_for(b, st.values)
        fh = sampler.fillings_for(b, high)
        if fl and fh:
            yield fl, fh


def _rect_windows(graph, w, h):
    """Every w x h window of a toroidal rect graph as an enumerated block."""
    g, gh = graph.dims
    return BlockFamily(tuple(
        Block(tuple(((y + j) % gh) * g + (x + i) % g
                    for j in range(h) for i in range(w)))
        for y in range(gh) for x in range(g)))


_HEX = make_toroidal_hex(4, 4)
_RECT = make_toroidal_rect(8, 8)
_ORACLE_SOURCES = [
    CaseTag("type1", (1,), 6), CaseTag("type1", (1, 3), 5),
    CaseTag("type1", (2,), 4), CaseTag("type2", (1,)),
    CaseTag("type2", (2, 5)),
    (_HEX, hex_block_family(_HEX)), (_RECT, _rect_windows(_RECT, 2, 2)),
    (_RECT, _rect_windows(_RECT, 3, 2)),
]


@settings(max_examples=60, deadline=None)
@given(source=strategies.sampled_from(_ORACLE_SOURCES),
       k=strategies.integers(1, 3), seed=strategies.integers(0, 2 ** 16),
       shuffle=strategies.booleans())
def test_strassen_joint_matches_the_oracle(source, k, seed, shuffle):
    """Integer rows against the per-entry joint on cover pairs of case
    graphs and of hex and rect blocks, in enumeration order or shuffled,
    both ways round (the reversed pair mostly fails dominance), and with
    the cap one entry short of the pair."""
    if isinstance(source, CaseTag):
        pairs = (p[-2:] for p in _cover_pair_fillings(source, k, seed))
    else:
        pairs = _block_cover_fillings(*source, k, seed)
    # the oracle draw walks the whole support for every (lo, r)
    pairs = [p for p in islice(pairs, 10) if len(p[0]) * len(p[1]) <= 12000]
    rnd = random.Random(seed)
    for fl, fh in pairs[:2]:
        if shuffle:
            fl, fh = rnd.sample(fl, len(fl)), rnd.sample(fh, len(fh))
        _assert_joint_matches_oracle(fl, fh)
        _assert_joint_matches_oracle(fh, fl)
        size = len(fl) * len(fh) * len(fl[0])
        if size > len(fl[0]):
            with mock.patch.object(coupling, "ENUMERATION_CAP", size - 1):
                _assert_joint_matches_oracle(fl, fh)


def test_strassen_joint_matches_the_oracle_on_small_sets():
    for low, high in [([(0,)], [(1,)]), ([(2,)], [(0,)]),
                      ([(1, 0), (0, 0)], [(1, 1)]),
                      ([(0, 2), (2, 0)], [(1, 0), (0, 1)]),
                      ([(1,), (0,)], [(2,), (1,)]),
                      ([(0, 1), (1, 0), (0, 0)], [(1, 1), (0, 1), (1, 0)])]:
        _assert_joint_matches_oracle(low, high)


def test_strassen_refuses_repeated_fillings():
    for low, high in [([(0,), (0,)], [(1,), (2,)]),
                      ([(0,), (1,)], [(2,), (2,)]),
                      ([(0, 0), (0, 1), (0, 0)], [(1, 1)])]:
        with pytest.raises(ValueError, match="repeated") as caught:
            strassen_joint(low, high)
        assert type(caught.value) is ValueError


def test_block_couple_time_calls_strassen_in_every_op(capsys):
    """Each couple-time op has its own sampler and joint memo: a second
    op in the process calls strassen_joint as often as the first (the
    benchmark's tracer counts it per op), and less often than it draws
    a conditional filling."""
    argv = ["couple-time", "--chain", "block", "--graph", "hex:4x4",
            "--k", "2", "--trials", "1", "--seed", "0"]
    counts = []
    for _ in range(2):
        with mock.patch.object(coupling, "strassen_joint",
                               wraps=strassen_joint) as joint, \
                mock.patch.object(coupling, "conditional_high_draw",
                                  wraps=conditional_high_draw) as draw:
            assert main(argv) == 0
        counts.append((joint.call_count, draw.call_count))
    assert counts[0] == counts[1]
    assert 0 < counts[0][0] < counts[0][1]
    capsys.readouterr()


def test_joint_memo_evicts_least_recently_used(monkeypatch):
    # the identity lists [(0,), ..., (n-1,)] on both sides force the
    # diagonal joint: n support entries
    monkeypatch.setattr(chains, "JOINT_MEMO_ENTRIES", 5)
    g = make_toroidal_hex(4, 4)
    sampler = BlockSampler(g, hex_block_family(g), 2)
    built = []

    def build(low, high):
        built.append(len(low))
        return strassen_joint(low, high)

    monkeypatch.setattr(coupling, "strassen_joint", build)

    def joint(n):
        fillings = [(i,) for i in range(n)]
        return sampler.joint(fillings, list(fillings))

    assert len(joint(1)) == 1 and len(joint(2)) == 2
    joint(1)  # equal content, new lists: a hit that makes 1 the newest
    assert built == [1, 2]
    joint(3)  # 6 entries: 2, the least recently used, goes
    joint(1)
    joint(3)
    assert built == [1, 2, 3]
    joint(2)  # 1 is now the least recently used
    joint(3)
    assert built == [1, 2, 3, 2]
    joint(1)
    assert built == [1, 2, 3, 2, 1]


def test_block_sampler_with_joints_is_freed_without_the_cycle_collector():
    g = make_toroidal_hex(4, 4)
    sampler = BlockSampler(g, hex_block_family(g), 2)
    coupled = CoupledState(KHeight.constant(g, 2, 0),
                           KHeight.constant(g, 2, 2), make_rng(3))
    gc.disable()
    try:
        with mock.patch.object(coupling, "strassen_joint",
                               wraps=strassen_joint) as joint:
            for _ in range(30):
                coupled_block_step(coupled, sampler)
        assert joint.call_count > 0
        ref = weakref.ref(sampler)
        del sampler
        assert ref() is None
    finally:
        gc.enable()


def _path_decompose_oracle(x: KHeight, y: KHeight) -> list:
    """The greedy cover path on KHeights: cover pairs (lo, hi) from x to
    y, each raise of a vertex of minimal current value (smallest index
    on ties) among those below y; incomparable pairs through the meet."""
    if x.values == y.values:
        return []
    if not (x <= y):
        if y <= x:
            return [(lo, hi) for lo, hi
                    in reversed(_path_decompose_oracle(y, x))]
        m = x.meet(y)
        down = [(lo, hi) for lo, hi in reversed(_path_decompose_oracle(m, x))]
        return down + _path_decompose_oracle(m, y)
    pairs = []
    cur = x
    while cur.values != y.values:
        cand = [v for v in range(cur.graph.n) if cur.values[v] < y.values[v]]
        v = min(cand, key=lambda u: (cur.values[u], u))
        vals = list(cur.values)
        vals[v] += 1
        nxt = KHeight(cur.graph, cur.k, tuple(vals))
        pairs.append((cur, nxt))
        cur = nxt
    return pairs


def test_path_decompose_matches_the_oracle():
    for g in small_graphs(4):
        for k in range(4):
            hs = [KHeight(g, k, v) for v in enumerate_heights(g, k)]
            for x in hs:
                for y in hs:
                    path = path_decompose(x.values, y.values)
                    want, cur = [], x.values
                    for lo, hi in _path_decompose_oracle(x, y):
                        cur = hi.values if cur == lo.values else lo.values
                        want.append(cur)
                    assert path == want
                    assert len(path) == x.delta(y)
                    assert path[-1:] == ([y.values] if x != y else [])
                    for a, b in zip([x.values] + path, path):
                        assert is_valid(g, b, k)
                        assert sum(abs(s - t) for s, t in zip(a, b)) == 1


def test_block_coalescence_validates_only_the_start_heights(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return is_valid(*args)

    monkeypatch.setattr(heights, "is_valid", counted)
    g = make_toroidal_hex(4, 4)
    coupling_time_estimate(g, 2, trials=1, seed=0,
                           family=hex_block_family(g))
    assert len(calls) <= 2


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


def _scalar_steps(st, steps):
    """The scalar steps of one coupled_updown_step(st, steps) call: at
    most `steps`, stopping right after the step at which the sides
    meet, and one step for a pair that has met."""
    for _ in range(steps):
        _scalar_coupled_step(st)
        if st.coalesced:
            break


def test_stretch_boundaries_match_scalar():
    """With stretches of 1, 2 and 3 moves, coupled steps follow the
    scalar ones byte for byte, generator fields included, wherever the
    meeting falls: on a stretch's first or last move, on a chunk's last
    step (no rewind), in a first chunk sized by the distance, and for
    pairs that met at entry."""
    seen = Counter()
    graphs = small_graphs() + [make_toroidal_rect(3, 3)]
    moves = mock.patch.object(coupling, "updown_moves",
                              wraps=chains.updown_moves)
    rule = mock.patch.object(coupling, "updown_result",
                             wraps=chains.updown_result)
    for stretch in (1, 2, 3):
        with mock.patch.object(coupling, "COUPLED_STRETCH", stretch), \
                mock.patch.object(coupling, "COUPLED_STRETCH_PER_VERTEX", 0), \
                moves as drawn, rule as ruled:
            for g, k, seed in product(graphs, (1, 2, 3), range(4)):
                fast, slow = (CoupledState(low=KHeight.constant(g, k, 0),
                                           high=KHeight.constant(g, k, k),
                                           rng=make_rng(seed))
                              for _ in range(2))
                pieces = random.Random(seed).choices((2, 3, 5, 40, 300), k=12)
                for steps in pieces:
                    met = fast.coalesced
                    distance = sum(fast.high) - sum(fast.low)
                    before = fast.step_count
                    drawn.reset_mock()
                    ruled.reset_mock()
                    coupled_updown_step(fast, steps)
                    _scalar_steps(slow, steps)
                    assert (fast.low, fast.high) == (slow.low, slow.high)
                    assert fast.step_count == slow.step_count
                    assert rng_fields(fast.rng) == rng_fields(slow.rng)
                    if met:
                        seen["met at entry"] += 1
                        continue
                    sizes = [c.args[2] for c in drawn.call_args_list]
                    if steps > distance:
                        assert sizes[0] == min(distance, chains.UPDOWN_CHUNK)
                        seen["first chunk sized by the distance"] += 1
                    if not fast.coalesced:
                        assert ruled.call_count == 0
                        continue
                    replayed = ruled.call_count // 2
                    assert 1 <= replayed <= stretch
                    if stretch > 1:
                        seen[f"first move of {stretch}"] += replayed == 1
                        seen[f"last move of {stretch}"] += replayed == stretch
                    # no rewind: the steps drawn are the steps made
                    seen["last step of a chunk"] += (
                        sum(sizes) == fast.step_count - before)
    assert set(seen) == {
        "met at entry", "first chunk sized by the distance",
        "first move of 2", "last move of 2", "first move of 3",
        "last move of 3", "last step of a chunk"}
    assert all(seen.values()), seen


def test_coupled_trial_makes_its_moves_with_updown_apply():
    """One coalescing rect:6x6 trial calls updown_result only to replay
    the stretch in which the sides meet, at least once and at most twice
    a stretch, and updown_apply makes every other move."""
    g, k, seed = make_toroidal_rect(6, 6), 2, 3
    stretch = max(coupling.COUPLED_STRETCH,
                  coupling.COUPLED_STRETCH_PER_VERTEX * g.n)

    def start():
        return CoupledState(low=KHeight.constant(g, k, 0),
                            high=KHeight.constant(g, k, k),
                            rng=make_rng(seed))

    slow, accepted = start(), 0
    while not slow.coalesced:
        v, delta, move = updown_draws(slow.rng, g.n)
        accepted += move
        if move:
            updown_result(slow.low, g.adjacency(), k, v, delta)
            updown_result(slow.high, g.adjacency(), k, v, delta)
        slow.step_count += 1
    fast = start()
    with mock.patch.object(coupling, "updown_result",
                           wraps=chains.updown_result) as ruled, \
            mock.patch.object(coupling, "updown_apply",
                              wraps=chains.updown_apply) as applied:
        coupled_updown_step(fast, 10 ** 6)
    assert fast.coalesced and fast.step_count == slow.step_count
    assert accepted > 2 * stretch
    assert 1 <= ruled.call_count <= 2 * stretch
    # updown_apply made each side's moves up to the meeting stretch and
    # that whole stretch, whose moves up to the meeting were replayed
    applied_moves = sum(len(c.args[3]) for c in applied.call_args_list)
    replayed = ruled.call_count // 2
    whole = applied_moves // 2 - (accepted - replayed)
    assert replayed <= whole <= stretch


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


def test_cftp_refuses_negative_k_before_drawing(cycle4):
    with mock.patch.object(coupling, "cftp_epoch_draws",
                           side_effect=AssertionError("drew an epoch")):
        with pytest.raises(ValueError):
            cftp_sample(cycle4, -1, seed=0)


def test_cftp_uniform_small(path3):
    states = list(enumerate_heights(path3, 2))
    n = 1700
    cnt = Counter(cftp_sample(path3, 2, seed=s).values for s in range(n))
    assert set(cnt) <= set(states)
    expected = n / len(states)
    chi2 = sum((cnt.get(s, 0) - expected) ** 2 / expected for s in states)
    assert chi2 < 39.25  # df=16 at 99.9%


def _cftp_doubling(graph, k, seed):
    """The doubling loop cftp_sample replaced, kept as its oracle: runs
    from -2^e for e = 0, 1, ... with the Generator draws of each epoch
    and one updown_result call per accepted move and chain.  Returns the
    sample and the coalescence epoch e*."""
    n, adj = graph.n, graph.adjacency()
    segments = []
    for e in range(64):
        if 1 << e > coupling.CFTP_MAX_SLOTS:
            raise EnumerationCapError("no coalescence")
        size = 1 if e == 0 else 1 << (e - 1)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=(seed, e))))
        vs = rng.integers(0, n, size=size, dtype=np.int64)
        ds = rng.integers(0, 2, size=size, dtype=np.int64)
        acc = rng.random(size=size) <= 0.5
        segments.append([(int(v), 2 * int(d) - 1)
                         for v, d, a in zip(vs, ds, acc) if a])
        lo, hi = [0] * n, [k] * n
        for seg in reversed(segments):
            for v, delta in seg:
                updown_result(lo, adj, k, v, delta)
                updown_result(hi, adj, k, v, delta)
        if lo == hi:
            return tuple(lo), e
    raise AssertionError("no coalescence in 64 epochs")


@pytest.fixture
def cold_cftp_memo():
    coupling._remembered_epochs.cache_clear()
    yield coupling._remembered_epochs
    coupling._remembered_epochs.cache_clear()


def _epochs_of(graph, k):
    return coupling._remembered_epochs(graph.n, hash(graph.edges), k)


def _remember(graph, k, epochs):
    coupling._remembered_epochs.cache_clear()
    _epochs_of(graph, k).extend(epochs)


@settings(max_examples=120, deadline=None)
@given(g=strategies.sampled_from(small_graphs()), k=strategies.integers(1, 3),
       seed=strategies.integers(0, 2 ** 63 - 1),
       start=strategies.sampled_from(["cold", "below", "at", "above",
                                      "far above"]))
def test_cftp_matches_the_doubling_loop(g, k, seed, start):
    """cftp_sample returns the oracle's sample with the memo cold and
    with it seeded so that the first run starts below, at or above e*,
    and records e*, or g - 1 when the first run at g > 0 coalesces."""
    want, estar = _cftp_doubling(g, k, seed)
    g0 = {"cold": None, "below": max(estar - 2, 0), "at": estar,
          "above": estar + 1, "far above": estar + 4}[start]
    try:
        _remember(g, k, [] if g0 is None else [g0])
        assert cftp_sample(g, k, seed).values == want
        first = g0 or 0
        recorded = estar if estar > first else max(first - 1, 0)
        assert _epochs_of(g, k)[-1] == recorded
    finally:
        coupling._remembered_epochs.cache_clear()


def test_cftp_first_epoch_minimises_the_slot_cost():
    def cost(g, epochs):
        return sum((1 << g) if g > e else (2 << e) - (1 << g)
                   for e in epochs)

    rnd = random.Random(3)
    assert coupling.cftp_first_epoch([]) == 0
    for _ in range(300):
        epochs = [rnd.randrange(12) for _ in range(rnd.randrange(1, 17))]
        best = min(range(14), key=lambda g: cost(g, epochs))
        assert coupling.cftp_first_epoch(epochs) == best


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 36, 64, 256, 1000])
def test_cftp_epoch_draws_decode_the_generator_calls(n):
    """Epochs of up to CFTP_RAW_SLOTS slots are decoded from raw words
    without a Generator and equal its calls draw for draw."""
    for seed in (0, 1, 2 ** 40 + 7, 2 ** 63 + 5):
        for e in range(12):
            size = 1 if e == 0 else 1 << (e - 1)
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=(seed, e))))
            want = (rng.integers(0, n, size=size, dtype=np.int64),
                    rng.integers(0, 2, size=size, dtype=np.int64),
                    rng.random(size=size) <= 0.5)
            with mock.patch.object(np.random, "Generator",
                                   side_effect=AssertionError("fallback")):
                got = coupling.cftp_epoch_draws(seed, e, n)
            for a, b in zip(got, want):
                assert a.tolist() == b.tolist()


def test_cftp_epoch_draws_fall_back_on_a_rejected_vertex(monkeypatch):
    # at n = 3 * 2^30 a quarter of the vertex draws are rejected and
    # redrawn, which shifts every later draw; n = 1 draws no vertex, and
    # epochs past CFTP_RAW_SLOTS make the calls too
    def generator_calls(seed, e, n):
        size = 1 if e == 0 else 1 << (e - 1)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=(seed, e))))
        return (rng.integers(0, n, size=size, dtype=np.int64).tolist(),
                rng.integers(0, 2, size=size, dtype=np.int64).tolist(),
                (rng.random(size=size) <= 0.5).tolist())

    n = 3 * 2 ** 30
    raw = np.random.Philox(np.random.SeedSequence(
        entropy=(5, 6))).random_raw(32)[:16]
    halves = raw.astype("<u8").view("<u4")[:32].astype(np.uint64)
    assert ((halves * np.uint64(n)) % 2 ** 32 < 2 ** 32 % n).any()
    for seed, e, m in ((5, 6, n), (5, 0, 1), (9, 7, 1)):
        got = coupling.cftp_epoch_draws(seed, e, m)
        assert [a.tolist() for a in got] == list(generator_calls(seed, e, m))
    monkeypatch.setattr(coupling, "CFTP_RAW_SLOTS", 4)
    got = coupling.cftp_epoch_draws(3, 5, 36)
    assert [a.tolist() for a in got] == list(generator_calls(3, 5, 36))


def test_cftp_cap_raises_where_a_cold_start_does(monkeypatch,
                                                 cold_cftp_memo):
    # with a warm memo of high epochs the guess is clamped to the last
    # epoch the cap allows: the sample passes with the cap at 2^e* slots
    # and raises one slot below, as the cold loop does
    g = make_toroidal_rect(4, 4)
    want, estar = _cftp_doubling(g, 2, 21)
    for epochs in ([], [estar + 3] * 16, [30] * 16):
        for slots, passes in ((1 << estar, True), ((1 << estar) - 1, False),
                              (0, False)):
            _remember(g, 2, epochs)
            monkeypatch.setattr(coupling, "CFTP_MAX_SLOTS", slots)
            if passes:
                assert cftp_sample(g, 2, 21).values == want
            else:
                with pytest.raises(EnumerationCapError):
                    cftp_sample(g, 2, 21)


def test_cftp_memo_is_bounded(cold_cftp_memo):
    graphs = [Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
              for n in range(2, 2 + coupling.CFTP_MEMO_KEYS + 6)]
    for g in graphs:
        for seed in range(coupling.CFTP_MEMO_EPOCHS + 2 if g.n > 66 else 1):
            cftp_sample(g, 1, seed)
    info = cold_cftp_memo.cache_info()
    assert info.currsize == info.maxsize == coupling.CFTP_MEMO_KEYS
    assert [len(_epochs_of(g, 1)) for g in graphs[-5:]] == \
        [coupling.CFTP_MEMO_EPOCHS] * 5
    # the least recently used keys went first: n = 8 is still held, and
    # n = 7 comes back empty
    hits, misses = info.hits + 5, info.misses
    assert list(_epochs_of(graphs[6], 1)) and graphs[6].n == 8
    assert cold_cftp_memo.cache_info()[:2] == (hits + 1, misses)
    assert not _epochs_of(graphs[5], 1)
    assert cold_cftp_memo.cache_info()[:2] == (hits + 1, misses + 1)


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


def test_strassen_single_fillings_take_the_flow_path():
    j = strassen_joint([(0, 1)], [(1, 1)])
    assert j.support == (((0, 1), (1, 1), Fraction(1)),)
    assert (list(j.offsets), list(j.high), list(j.cum)) == ([0, 1], [0], [1])
    assert j.expected_delta() == 1
    with pytest.raises(ValueError, match="no vertex"):
        strassen_joint([()], [()])
    with pytest.raises(DominanceError):
        strassen_joint([(0, 2)], [(1, 1)])


@pytest.mark.parametrize("g", [
    Graph.from_edges(1, []), Graph.from_edges(3, [(0, 1), (1, 2)]),
    Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
    make_complete(4)], ids=["path:1", "path:3", "cycle:5", "complete:4"])
def test_cftp_at_k0_is_the_all_zero_height(g):
    for seed in (0, 1, 2 ** 40):
        h = cftp_sample(g, 0, seed)
        assert (h.k, h.values) == (0, (0,) * g.n)


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
