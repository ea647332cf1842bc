import gc
import weakref
from array import array
from contextlib import nullcontext
from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies

from conftest import rng_fields, small_graphs
from kheights import chains
from kheights.chains import (
    BlockSampler,
    make_chain,
    make_rng,
    run,
    step_block,
    step_updown,
    transition_matrix_block,
    transition_matrix_updown,
    updown_draws,
    updown_apply,
    updown_moves,
    updown_result,
)
from kheights.enumeration import EnumerationCapError, dp_shape, filling_ranker
from kheights.graphs import (
    Block,
    BlockFamily,
    Graph,
    boundary,
    hex_block_family,
    make_complete,
    make_toroidal_hex,
    make_toroidal_rect,
    rect_block_family,
    singleton_family,
)
from kheights.heights import enumerate_heights, is_valid


def test_updown_matrix_single_vertex():
    g = Graph.from_edges(1, [])
    states, T = transition_matrix_updown(g, 1)
    assert states == [(0,), (1,)]
    assert T == [[Fraction(3, 4), Fraction(1, 4)],
                 [Fraction(1, 4), Fraction(3, 4)]]


def test_updown_matrix_doubly_stochastic(path3):
    states, T = transition_matrix_updown(path3, 2)
    assert len(states) == 17
    for i in range(17):
        assert sum(T[i]) == 1
        assert sum(T[j][i] for j in range(17)) == 1  # uniform stationary
        for j in range(17):
            assert T[i][j] == T[j][i]  # symmetric (reversible wrt uniform)


def test_block_matrix_uniform_stationary(path3):
    fam = singleton_family(path3)
    states, T = transition_matrix_block(path3, 2, fam)
    n = len(states)
    for i in range(n):
        assert sum(T[i]) == 1
    for j in range(n):
        assert sum(T[i][j] for i in range(n)) == 1
    # laziness: at least 1/2 self-loop
    assert all(T[i][i] >= Fraction(1, 2) for i in range(n))


def test_updown_result_rules(path3):
    adj = path3.adjacency()
    x = [1, 1, 1]
    assert updown_result(x, adj, 2, 0, 1) and x == [2, 1, 1]
    y = [0, 1, 2]
    assert not updown_result(y, adj, 2, 0, -1)  # below range
    assert not updown_result(y, adj, 2, 1, -1)  # would break edge
    assert not updown_result(y, adj, 2, 1, 1)  # breaks edge to 0
    assert y == [0, 1, 2]
    assert updown_result(y, adj, 2, 0, 1) and y == [1, 1, 2]


@settings(max_examples=200, deadline=None)
@given(strategies.data())
def test_updown_result_matches_is_valid(data):
    """The kernel moves exactly when the moved vector is a k-height and
    leaves the list untouched otherwise."""
    g = data.draw(strategies.sampled_from(small_graphs()))
    k = data.draw(strategies.integers(0, 4))
    heights = list(enumerate_heights(g, k))
    start = data.draw(strategies.sampled_from(heights))
    adj = g.adjacency()
    for v in range(g.n):
        for delta in (-1, 1):
            moved = list(start)
            moved[v] += delta
            values = list(start)
            if updown_result(values, adj, k, v, delta):
                assert values == moved and is_valid(g, moved, k)
            else:
                assert values == list(start) and not is_valid(g, moved, k)


@settings(max_examples=150, deadline=None)
@given(strategies.data())
def test_updown_apply_matches_successive_updown_result(data):
    """One updown_apply call over a stretch of moves, from an array or a
    list, ends where one updown_result call per move does."""
    g = data.draw(strategies.sampled_from(small_graphs()))
    k = data.draw(strategies.integers(0, 3))
    start = data.draw(strategies.sampled_from(list(enumerate_heights(g, k))))
    moves = data.draw(strategies.lists(strategies.tuples(
        strategies.integers(0, g.n - 1), strategies.sampled_from((-1, 1))),
        max_size=60))
    adj = g.adjacency()
    want = list(start)
    for v, delta in moves:
        updown_result(want, adj, k, v, delta)
    vs, ds = [v for v, _ in moves], [d for _, d in moves]
    for cols in ((vs, ds), (array("i", vs), array("b", ds))):
        values = list(start)
        updown_apply(values, adj, k, *cols)
        assert values == want


def test_chain_determinism(path3):
    a = step_updown(make_chain(path3, 2, seed=42), 500)
    b = step_updown(make_chain(path3, 2, seed=42), 500)
    assert a.current.values == b.current.values
    c = step_updown(make_chain(path3, 2, seed=43), 500)
    assert a.step_count == c.step_count == 500


def test_run_snapshots(path3):
    snaps = list(run(make_chain(path3, 2, seed=1), 10, step_updown, 4))
    assert [s for s, _ in snaps] == [4, 8, 10]
    assert all(is_valid(path3, h.values, 2) for _, h in snaps)


def test_chain_stays_valid_every_step(path3):
    st = make_chain(path3, 2, seed=7)
    for _ in range(2000):
        step_updown(st)
        assert is_valid(path3, st.current.values, 2)


#: vertex counts for the draw decoder: n=1 draws no vertex, 36 and 256
#: are the benchmark grids, 3 * 2^30 and 2^31 + 1 reject a quarter and
#: about half of the vertex draws, and 2^32 and past take the scalar path
DECODER_NS = [1, 2, 3, 36, 256, 3 * 2 ** 30, 2 ** 31 + 1, 2 ** 32,
              2 ** 33 + 5]


def _entry_rng(seed, skip, kept):
    rng = make_rng(seed)
    rng.bit_generator.random_raw(skip)  # any buffer position
    if kept:
        rng.integers(7)  # a high half kept for the next 32-bit draw
    return rng


def _accepted(draws):
    """(steps, vertices, offsets) of the accepted updown_draws results."""
    at = [j for j, (_, _, move) in enumerate(draws) if move]
    return at, [draws[j][0] for j in at], [draws[j][1] for j in at]


@settings(max_examples=150, deadline=None)
@given(n=strategies.sampled_from(DECODER_NS),
       seed=strategies.integers(0, 2 ** 32 - 1),
       skip=strategies.integers(0, 5), kept=strategies.booleans(),
       m=strategies.integers(0, 300), data=strategies.data())
def test_updown_moves_match_scalar_draws(n, seed, skip, kept, m, data):
    """updown_moves(rng, n, m) gives the accepted moves of m updown_draws
    calls and leaves the generator, field by field, where they do; put
    back to its entry state and called for j <= m steps, it gives and
    leaves what the first j calls do.  With no high half kept at entry,
    1 < n < 2^32 and no rejection possible (2^32 % n == 0) it decodes,
    without a scalar call."""
    a, b = _entry_rng(seed, skip, kept), _entry_rng(seed, skip, kept)
    want = [updown_draws(a, n) for _ in range(m)]
    entry = b.bit_generator.state
    decodes = (m >= chains.UPDOWN_MIN_CHUNK and not kept
               and 1 < n < 2 ** 32 and not 2 ** 32 % n)
    no_calls = mock.patch.object(chains, "updown_draws",
                                 side_effect=AssertionError("scalar call"))
    with no_calls if decodes else nullcontext():
        assert updown_moves(b, n, m) == _accepted(want)
    assert rng_fields(b) == rng_fields(a)
    j = data.draw(strategies.integers(0, m))
    b.bit_generator.state = entry
    assert updown_moves(b, n, j) == _accepted(want[:j])
    c = _entry_rng(seed, skip, kept)
    for _ in range(j):
        updown_draws(c, n)
    assert rng_fields(b) == rng_fields(c)


def test_updown_moves_follow_rejections_in_order():
    # at n = 3 * 2^30 a quarter of the vertex draws are rejected: the
    # decode gives up, and updown_moves follows the scalar calls draw
    # for draw
    a, b = make_rng(3), make_rng(3)
    n = 3 * 2 ** 30
    words = make_rng(3).bit_generator.random_raw(4000)
    assert chains.decode_integers(words[0::2] & 0xFFFFFFFF, n) is None
    want = [updown_draws(a, n) for _ in range(2000)]
    assert updown_moves(b, n, 2000) == _accepted(want)
    assert rng_fields(a) == rng_fields(b)


@pytest.mark.parametrize("n", [36, 256])
def test_updown_moves_decode_benchmark_grids_without_scalar_calls(n):
    # the grids the benchmark runs take the vector decode, not the
    # scalar fallback, and so does a rewind to step 100
    rng = make_rng(1)
    entry = rng.bit_generator.state
    with mock.patch.object(chains, "updown_draws",
                           side_effect=AssertionError("scalar call")):
        steps, vs, ds = updown_moves(rng, n, 4096)
        rng.bit_generator.state = entry
        assert updown_moves(rng, n, 100)[0] == [j for j in steps if j < 100]
    assert len(steps) == len(vs) == len(ds) > 1500


def _scalar_updown(state, steps):
    adj = state.graph.adjacency()
    for _ in range(steps):
        v, delta, move = updown_draws(state.rng, state.graph.n)
        if move:
            updown_result(state.values, adj, state.k, v, delta)
    state.step_count += steps


@settings(max_examples=60, deadline=None)
@given(g=strategies.sampled_from(small_graphs() + [make_toroidal_rect(4, 4)]),
       k=strategies.integers(1, 3), seed=strategies.integers(0, 2 ** 32 - 1),
       chunk=strategies.sampled_from([1, 3, 64, 4096]),
       least=strategies.sampled_from([1, 4]),
       pieces=strategies.lists(strategies.integers(0, 400), max_size=8))
def test_chunked_updown_matches_scalar_trajectory(g, k, seed, chunk, least,
                                                  pieces):
    """step_updown over chunks, interleaved with single steps, follows the
    scalar draws step by step and leaves the generator where they do."""
    fast, slow = make_chain(g, k, seed), make_chain(g, k, seed)
    with mock.patch.object(chains, "UPDOWN_CHUNK", chunk), \
            mock.patch.object(chains, "UPDOWN_MIN_CHUNK", least):
        for m in pieces:
            step_updown(fast, m)
            step_updown(fast)
            _scalar_updown(slow, m + 1)
            assert fast.values == slow.values
            assert fast.step_count == slow.step_count
            assert rng_fields(fast.rng) == rng_fields(slow.rng)


def test_run_steps_in_stretches_between_snapshots(path3):
    calls = []

    def stepper(state, m):
        calls.append(m)
        step_updown(state, m)

    snaps = list(run(make_chain(path3, 2, seed=1), 10, stepper, 4))
    assert calls == [4, 4, 2]
    assert [s for s, _ in snaps] == [4, 8, 10]
    assert list(run(make_chain(path3, 2, seed=1), 0, stepper, 4)) == []
    assert calls == [4, 4, 2]


def test_block_sampler_uniform_fillings(path3):
    fam = singleton_family(path3)
    sampler = BlockSampler(path3, fam, 2)
    fills = sampler.fillings_for(1, [0, 1, 2])
    assert fills == [(1,)]
    h2 = [1, 1, 1]
    assert sampler.fillings_for(1, h2) == [(0,), (1,), (2,)]
    sampler.apply(h2, 1, (2,))
    assert h2 == [1, 2, 1]


def test_block_chain_on_hex_graph():
    g = make_toroidal_hex(4, 4)
    fam = hex_block_family(g)
    sampler = BlockSampler(g, fam, 2)
    st = make_chain(g, 2, seed=3)
    for _ in range(300):
        step_block(st, sampler)
        assert is_valid(g, st.current.values, 2)
    assert st.step_count == 300


def test_empirical_matches_matrix(path3):
    """Long-run state frequencies approach the uniform distribution."""
    states = list(enumerate_heights(path3, 2))
    counts = dict.fromkeys(states, 0)
    st = make_chain(path3, 2, seed=11)
    burn = 200
    n = 40000
    step_updown(st, burn)
    for _ in range(n):
        step_updown(st)
        counts[st.current.values] += 1
    expected = n / len(states)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # df=16; autocorrelated samples inflate chi2, so use a loose ceiling
    assert chi2 < 150, chi2


def test_make_rng_reproducible():
    a = make_rng(5).integers(0, 1000, size=8)
    b = make_rng(5).integers(0, 1000, size=8)
    assert (a == b).all()


def _small_dp_blocks():
    """Every path and cycle block of the small oracle graphs whose
    internal edges match its shape (singletons are 1-vertex paths)."""
    out = []
    for g in small_graphs():
        for m in range(1, g.n + 1):
            for verts in permutations(range(g.n), m):
                for shape in ("path", "cycle"):
                    block = Block(verts, shape=shape)
                    if dp_shape(g, block) == shape:
                        out.append((g, block))
    return out


def _ranker_cases():
    small = [(g, b, k) for g, b in _small_dp_blocks() for k in range(4)]
    hex4 = make_toroidal_hex(4, 4)
    small += [(hex4, b, k) for b in hex_block_family(hex4).blocks
              for k in (1, 2, 3)]
    rect = make_toroidal_rect(8, 8)
    grids = [(rect, b, k) for b in rect_block_family(rect).blocks[:8]
             for k in (1, 2)]
    return small, grids


SMALL_CASES, GRID_CASES = _ranker_cases()


def _warm_ranker_table():
    """Run block chains of other graphs and other k (hex:4x4 at k=3,
    rect:8x8 at k=2), so that the process-wide ranker table holds their
    rankers when a case asks for its own."""
    for g, family, k in [(make_toroidal_hex(4, 4), hex_block_family, 3),
                         (make_toroidal_rect(8, 8), rect_block_family, 2)]:
        step_block(make_chain(g, k, seed=2), BlockSampler(g, family(g), k),
                   40)


def _check_ranked(data, cases):
    """The DP count and unrank agree with the enumerated filling list
    under random boundary values: arbitrary ones (often inconsistent)
    or one constant value (many fillings).  The ranker table is warmed
    by other samplers first, so a table key that leaves out something a
    ranker depends on hands this case a wrong ranker."""
    _warm_ranker_table()
    g, block, k = data.draw(strategies.sampled_from(cases))
    assert dp_shape(g, block) == block.shape
    values = data.draw(strategies.one_of(
        strategies.lists(strategies.integers(0, k), min_size=g.n,
                         max_size=g.n),
        strategies.integers(0, k).map(lambda c: [c] * g.n)))
    sampler = BlockSampler(g, BlockFamily((block,)), k)
    count, unrank = sampler.ranked(0, values)
    fillings = sampler.fillings_for(0, values)
    assert count == len(fillings)
    idx = range(count)
    if count > 64:
        idx = data.draw(strategies.lists(
            strategies.integers(0, count - 1), min_size=32, max_size=32))
        idx += [0, count - 1]
    for i in idx:
        assert unrank(i) == fillings[i]


@settings(max_examples=150, deadline=None)
@given(data=strategies.data())
def test_ranked_matches_enumerated_fillings(data):
    """Path, cycle and singleton blocks of the small graphs, and the
    hex:4x4 blocks at k <= 3."""
    _check_ranked(data, SMALL_CASES)


@settings(max_examples=8, deadline=None)
@given(data=strategies.data())
def test_ranked_grid_matches_enumerated_fillings(data):
    """4x4 blocks of rect:8x8 at k <= 2 (up to ~9e4 fillings each, so
    few examples and a sample of indices)."""
    _check_ranked(data, GRID_CASES)


def test_ranker_table_is_shared_across_samplers():
    """A path and a cycle with the same value ranges (no outside
    neighbours, so every range is (0, k)) get their own rankers; a
    sampler of another graph with the same key hits the first one's."""
    k, m = 2, 6
    path = Graph.from_edges(m, [(i, i + 1) for i in range(m - 1)])
    cycle = Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])
    pendant = Graph.from_edges(m + 1, [(i, i + 1) for i in range(m)])
    cases = [(path, Block(tuple(range(m)), shape="path")),
             (cycle, Block(tuple(range(m)), shape="cycle")),
             (cycle, Block(tuple(range(m)), shape="cycle"))]
    counts = []
    for g, block in cases:
        sampler = BlockSampler(g, BlockFamily((block,)), k)
        before = filling_ranker.cache_info()
        count, unrank = sampler.ranked(0, [1] * g.n)
        after = filling_ranker.cache_info()
        fillings = sampler.fillings_for(0, [1] * g.n)
        assert count == len(fillings)
        assert [unrank(i) for i in range(count)] == fillings
        counts.append(count)
        assert after.hits + after.misses == before.hits + before.misses + 1
    assert counts[0] != counts[1] == counts[2]
    assert after.hits == before.hits + 1  # the second cycle sampler's
    # one outside neighbour at 1 gives vertex 6 of the pendant path the
    # range (0, 2), like every vertex of the path: same key, other graph
    sampler = BlockSampler(pendant, BlockFamily((Block(
        tuple(range(m)), shape="path"),)), k)
    hits = filling_ranker.cache_info().hits
    assert sampler.ranked(0, [1] * (m + 1))[0] == counts[0]
    assert filling_ranker.cache_info().hits == hits + 1


def test_block_structure_is_shared_by_equal_graphs():
    """Samplers of two separately parsed equal graphs, at any k, read one
    structure object, also after the first has listed fillings (as the
    coupled step does); the table holds one entry, so a sampler of
    another graph evicts it and the next one of the first graph
    rebuilds it."""
    from kheights.cli import parse_graph

    a, b, c = (parse_graph(spec) for spec in ("hex:8x8", "hex:8x8",
                                              "hex:4x4"))
    assert a is not b and a == b
    sampler = BlockSampler(a, hex_block_family(a), 2)
    first = sampler.structure
    assert len(sampler.fillings_for(0, [0] * a.n)) == 2 ** 6  # 0s and 1s
    assert BlockSampler(b, hex_block_family(b), 3).structure is first
    assert first.bdry[0] == tuple(sorted(boundary(a, hex_block_family(
        a).blocks[0])))
    assert sampler.family.cum == tuple(range(1, 65))
    assert BlockSampler(c, hex_block_family(c), 2).structure is not first
    again = BlockSampler(a, hex_block_family(a), 2).structure
    assert again is not first and again == first


def _block_cases():
    """(graph, family, k) of the decoder tests by name: hex:4x4 at k <= 3,
    the 4x4 blocks of rect:8x8, singletons of K4 at k=3 (counts of 1),
    one 4-cycle block (total 1), multiplicities 2^31 and 1 (total
    2^31 + 1: about half the block draws are rejected), a k=2 path of 24
    vertices as one block (count 1855077841: 14% of the index draws are
    rejected) and a k=1 path of 33 vertices as one block (count 2^33,
    past the 32-bit draw)."""
    hex4, rect8, k4 = (make_toroidal_hex(4, 4), make_toroidal_rect(8, 8),
                       make_complete(4))
    cycle4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

    def path(m, k):
        g = Graph.from_edges(m, [(i, i + 1) for i in range(m - 1)])
        return g, BlockFamily((Block(tuple(range(m)), shape="path"),)), k

    path3 = path(3, 2)[0]
    return {
        **{f"hex k={k}": (hex4, hex_block_family(hex4), k)
           for k in (1, 2, 3)},
        "rect": (rect8, rect_block_family(rect8), 2),
        "K4 singletons": (k4, singleton_family(k4), 3),
        "one block": (cycle4, BlockFamily((Block((0, 1, 2, 3),
                                                 shape="cycle"),)), 2),
        "total 2^31+1": (path3, BlockFamily((Block((0, 1), 2 ** 31, "path"),
                                             Block((2,), 1, "path"))), 2),
        "count 1855077841": path(24, 2),
        "count 2^33": path(33, 1),
    }


BLOCK_CASES = _block_cases()


def _block_chains(case, seed, skip, kept):
    g, family, k = BLOCK_CASES[case]
    chains_ = [make_chain(g, k, seed) for _ in range(2)]
    for st in chains_:
        st.rng = _entry_rng(seed, skip, kept)
    return BlockSampler(g, family, k), *chains_


def _scalar_block(state, sampler, steps):
    for _ in range(steps):
        chains.block_step(state.values, sampler, state.rng)
    state.step_count += steps


@settings(max_examples=80, deadline=None)
@given(case=strategies.sampled_from(sorted(BLOCK_CASES)),
       seed=strategies.integers(0, 2 ** 32 - 1),
       skip=strategies.integers(0, 5), kept=strategies.booleans(),
       stretches=strategies.lists(strategies.integers(1, 70), min_size=1,
                                  max_size=4))
def test_block_stretches_match_scalar_steps(case, seed, skip, kept,
                                            stretches):
    """step_block, decoding stretches from raw words, follows the scalar
    block_step calls: after every stretch the value list and every field
    of the generator state are theirs.  The entry state may keep a
    32-bit half."""
    sampler, fast, slow = _block_chains(case, seed, skip, kept)
    for m in stretches:
        step_block(fast, sampler, m)
        _scalar_block(slow, sampler, m)
        assert fast.values == slow.values
        assert fast.step_count == slow.step_count
        assert rng_fields(fast.rng) == rng_fields(slow.rng)


@pytest.mark.parametrize("case, decoded", [
    ("total 2^31+1", True), ("count 1855077841", True),
    ("count 2^33", False)])
def test_step_block_falls_back_step_by_step(case, decoded):
    # rejected block or index draws fall back one step at a time, and
    # the rest is decoded; a count of 2^33 always falls back
    sampler, fast, slow = _block_chains(case, seed=3, skip=0, kept=False)
    _scalar_block(slow, sampler, 200)
    with mock.patch.object(chains, "block_step",
                           wraps=chains.block_step) as scalar:
        step_block(fast, sampler, 200)
    assert 0 < scalar.call_count
    assert (scalar.call_count < 150) == decoded
    assert fast.values == slow.values
    assert rng_fields(fast.rng) == rng_fields(slow.rng)


@pytest.mark.parametrize("multiplicity", [2 ** 31, 2 ** 32])
def test_total_past_32_bits_goes_step_by_step(multiplicity):
    """A family whose total multiplicity is 2^32 or more decodes no
    stretch: block_stretch makes no step and leaves the generator alone,
    and step_block makes every step through block_step.  At 2^33 numpy
    draws the block from a whole 64-bit word; at 2^32 from one 32-bit
    draw, which is where the guard alone keeps the stretch scalar."""
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    family = BlockFamily((Block((0, 1), multiplicity, "path"),
                          Block((2,), multiplicity, "path")))
    sampler = BlockSampler(path3, family, 2)
    fast, slow = make_chain(path3, 2, seed=6), make_chain(path3, 2, seed=6)
    entry = rng_fields(fast.rng)
    assert chains.block_stretch(fast.values, sampler, fast.rng, 10) == 0
    assert rng_fields(fast.rng) == entry
    _scalar_block(slow, sampler, 100)
    with mock.patch.object(chains, "block_step",
                           wraps=chains.block_step) as scalar:
        step_block(fast, sampler, 100)
    assert scalar.call_count == 100
    assert fast.values == slow.values
    assert rng_fields(fast.rng) == rng_fields(slow.rng)


def test_step_block_decodes_the_benchmark_graph_without_scalar_calls():
    g = make_toroidal_hex(8, 8)
    st = make_chain(g, 2, seed=1)
    sampler = BlockSampler(g, hex_block_family(g), 2)
    with mock.patch.object(chains, "block_step",
                           side_effect=AssertionError("scalar call")):
        step_block(st, sampler, 300)
    assert st.step_count == 300


def test_block_sampler_is_freed_without_the_cycle_collector(cycle4):
    """A sampler that has stepped and cached fillings dies with its last
    reference: nothing it holds refers back to it."""
    g = make_toroidal_hex(4, 4)
    samplers = [BlockSampler(g, hex_block_family(g), 2),
                BlockSampler(cycle4, BlockFamily((Block((0, 1, 2, 3),
                                                        shape="path"),)), 2)]
    refs = []
    gc.disable()
    try:
        for sampler in samplers:
            st = make_chain(sampler.graph, 2, seed=4)
            step_block(st, sampler, 50)
            assert sampler.fillings_for(0, st.values)
            refs.append(weakref.ref(sampler))
        del samplers, sampler
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_dp_shape_checks_internal_edges(cycle4):
    assert dp_shape(cycle4, Block((0, 1, 2, 3), shape="cycle")) == "cycle"
    # the closing edge 0~3 is not a path edge; order 0,2 is no edge
    assert dp_shape(cycle4, Block((0, 1, 2, 3), shape="path")) is None
    assert dp_shape(cycle4, Block((0, 2, 1, 3), shape="cycle")) is None
    assert dp_shape(cycle4, Block((0, 1, 2), shape="path")) == "path"
    assert dp_shape(cycle4, Block((0, 1), shape=None)) is None
    rect = make_toroidal_rect(8, 8)
    assert {dp_shape(rect, b) for b in rect_block_family(rect).blocks} == {
        "grid"}


def test_step_block_unranks_without_enumerating(monkeypatch):
    def forbidden(*args):
        raise AssertionError("enumerate_fillings called")

    monkeypatch.setattr(chains, "enumerate_fillings", forbidden)
    for g, k in [(make_toroidal_hex(4, 4), 2), (make_toroidal_rect(8, 8), 2),
                 (make_complete(4), 3)]:
        fam = {"hex": hex_block_family, "rect": rect_block_family}.get(
            g.kind, singleton_family)(g)
        st = make_chain(g, k, seed=5)
        sampler = BlockSampler(g, fam, k)
        for _ in range(60):
            step_block(st, sampler)
        assert is_valid(g, st.values, k)


def test_step_block_falls_back_to_the_list_off_shape(cycle4):
    # declared a path, but 0~3 closes a cycle: the enumerated list rules
    block = Block((0, 1, 2, 3), shape="path")
    sampler = BlockSampler(cycle4, BlockFamily((block,)), 2)
    count, _ = sampler.ranked(0, [0] * 4)
    assert count == len(sampler.fillings_for(0, [0] * 4))
    st = make_chain(cycle4, 2, seed=1)
    for _ in range(50):
        step_block(st, sampler)
        assert is_valid(cycle4, st.values, 2)


def test_step_block_refuses_counts_past_int64():
    # at k=1 every assignment of a path is a filling: 2^m of them
    for m in (62, 63):
        g = Graph.from_edges(m, [(i, i + 1) for i in range(m - 1)])
        sampler = BlockSampler(
            g, BlockFamily((Block(tuple(range(m)), shape="path"),)), 1)
        assert sampler.ranked(0, [0] * m)[0] == 1 << m
        st = make_chain(g, 1, seed=0)
        if m == 62:
            step_block(st, sampler)
            assert st.step_count == 1
        else:
            with pytest.raises(EnumerationCapError):
                step_block(st, sampler)
