import gc
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from kheights.chains import BlockSampler
from kheights.enumeration import (
    FillingRanker,
    count_rect_extensible,
    enumerate_boundary_constraints,
    enumerate_fillings,
    filling_ranker,
    filling_stats,
    step_matrix,
)
from kheights.graphs import Block, BlockFamily, CaseTag, Graph, boundary, make_case_graph, make_toroidal_rect, rect_block_family
from kheights.heights import BoundaryConstraint, enumerate_heights
from kheights.tables import case_divergence


def test_transfer_matrices_small():
    P = step_matrix(np.arange(3))
    Q = step_matrix(np.arange(3), span=2)
    assert P.tolist() == [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    assert Q.tolist() == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
    assert P.dtype == object  # exact integer arithmetic
    # on value vectors: every coordinate within 1
    rows = np.array([[0, 0], [0, 1], [2, 1]])
    assert step_matrix(rows).tolist() == [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    assert step_matrix(rows[:, 1], rows[:, 0]).tolist() == [
        [1, 1, 0], [1, 1, 1], [1, 1, 1]]
    # a layer with no state, as a contradictory boundary leaves it
    assert step_matrix((), rows).shape == (0, 3)
    assert step_matrix(rows, ()).shape == (3, 0)
    assert FillingRanker("grid", [(1, 1), (3, 3)] + [(0, 3)] * 14).count == 0


def test_count_cycle_vs_enumeration():
    for L in (3, 4, 5, 6):
        for k in (1, 2, 3):
            g = Graph.from_edges(L, [(i, (i + 1) % L) for i in range(L)])
            assert FillingRanker("cycle", [(0, k)] * L).count == len(
                list(enumerate_heights(g, k)))


def test_count_path_vs_enumeration():
    for L in (1, 2, 4, 7):
        for k in (1, 2, 3):
            g = Graph.from_edges(L, [(i, i + 1) for i in range(L - 1)])
            assert FillingRanker("path", [(0, k)] * L).count == len(
                list(enumerate_heights(g, k)))


def test_rect_extensible_trace_counts():
    assert count_rect_extensible(0) == 1
    assert count_rect_extensible(2) == 2825761
    assert count_rect_extensible(3) == 15784802


def test_rect_extensible_matches_boundary_feasibility():
    """Small-k cross-check: the trace equals the number of boundary
    assignments with at least one admissible filling."""
    k = 1
    g = make_toroidal_rect(8, 8)
    fam = rect_block_family(g)
    block = fam.blocks[0]
    feasible = sum(
        1
        for c in enumerate_boundary_constraints(g, block, k)
        if filling_stats(g, block, c, k).count > 0
    )
    assert feasible == count_rect_extensible(k)


def _brute(graph, block, constraint, k):
    fills = enumerate_fillings(graph, block, constraint, k)
    return len(fills), sum(sum(f) for f in fills)


def test_dp_matches_brute_force_on_cases():
    rnd = random.Random(5)
    for tag in (CaseTag("type1", (1,), 5), CaseTag("type1", (1, 3), 6),
                CaseTag("type2", (1,)), CaseTag("type2", (4, 5))):
        g, block, _v = make_case_graph(tag)
        bdry = sorted(boundary(g, block))
        for k in (1, 2):
            # the unpinned block, then random pins
            cons = [BoundaryConstraint(())] + [
                BoundaryConstraint(tuple(
                    (u, rnd.randrange(k + 1)) for u in bdry))
                for _ in range(8)]
            for c in cons:
                stats = filling_stats(g, block, c, k)
                assert (stats.count, stats.total_weight) == _brute(
                    g, block, c, k)


def test_grid_dp_matches_brute_force():
    g = make_toroidal_rect(8, 8)
    block = rect_block_family(g).blocks[0]
    bdry = sorted(boundary(g, block))
    rnd = random.Random(7)
    for k in (1, 2):
        for _ in range(5):
            vals = [(u, rnd.randrange(k + 1)) for u in bdry]
            c = BoundaryConstraint(tuple(vals))
            stats = filling_stats(g, block, c, k)
            assert (stats.count, stats.total_weight) == _brute(g, block, c, k)


def test_unconstrained_hex_block_stats():
    g, block, _v = make_case_graph(CaseTag("type1", (1,), 6))
    stats = filling_stats(g, block, BoundaryConstraint(()), 2)
    assert stats.count == 199
    assert stats.expected_weight == Fraction(6)  # symmetry: mean k/2 per vertex


def test_filling_stats_checks_declared_shape(cycle4):
    # the closing edge 0~3 makes this "path" a 4-cycle: 35 fillings at
    # k=2, where the path DP alone would count 41
    block = Block((0, 1, 2, 3), shape="path")
    empty = BoundaryConstraint(())
    stats = filling_stats(cycle4, block, empty, 2)
    fillings = enumerate_fillings(cycle4, block, empty, 2)
    assert stats.count == len(fillings) == 35
    assert stats.total_weight == sum(map(sum, fillings))


def test_expected_weight_errors_when_empty():
    g = Graph.from_edges(2, [(0, 1)])
    block = Block(vertices=(0,), shape="path")
    c = BoundaryConstraint(((1, 0),))
    s = filling_stats(g, block, c, 0)
    assert s.count == 1
    # contradictory pin
    g3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    block3 = Block(vertices=(1,), shape="path")
    c3 = BoundaryConstraint(((0, 0), (2, 2)))
    s3 = filling_stats(g3, block3, c3, 2)
    assert s3.count == 1 and s3.total_weight == 1


def test_enumerate_boundary_constraints_valid_and_sorted(path3=None):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    block = Block(vertices=(0,), shape="path")
    cons = list(enumerate_boundary_constraints(g, block, 2))
    # boundary is {1, 3}, unconstrained between themselves (no edge)
    assert len(cons) == 9
    vals = [tuple(v for _u, v in c.values) for c in cons]
    assert vals == sorted(vals)


def test_cycle_count_golden_hex_sequence():
    assert [FillingRanker("cycle", [(0, k)] * 6).count
            for k in (2, 3, 4, 5, 6)] == [199, 340, 481, 622, 763]


def test_oracle_chain_and_case_tables_share_the_ranker_table():
    """filling_stats and BlockSampler.ranked with one (shape, ranges) key
    make one miss, then one hit; case_divergence's omega_block is read
    from the same table."""
    k, m = 3, 8
    g = Graph.from_edges(m, [(i, i + 1) for i in range(m - 1)])
    block = Block(tuple(range(1, m - 1)), shape="path")
    values = [2] + [0] * (m - 2) + [1]
    filling_ranker.cache_clear()
    stats = filling_stats(g, block, BoundaryConstraint(((0, 2), (7, 1))), k)
    info = filling_ranker.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    sampler = BlockSampler(g, BlockFamily((block,)), k)
    count, _ = sampler.ranked(0, values)
    info = filling_ranker.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert count == stats.count == len(sampler.fillings_for(0, values))
    # past the case memo, which would answer without the table
    rep = case_divergence.__wrapped__(CaseTag("type1", (1,), 6), 2)
    info = filling_ranker.cache_info()
    assert filling_ranker("cycle", ((0, 2),) * 6).count == rep.omega_block
    assert filling_ranker.cache_info().hits == info.hits + 1


def _reached_bytes(obj) -> int:
    """sys.getsizeof summed over every object reachable from obj, the
    cached small ints left out."""
    seen, todo, total = set(), [obj], 0
    while todo:
        o = todo.pop()
        if id(o) in seen or (type(o) is int and -5 <= o <= 256):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        todo.extend(gc.get_referents(o))
    return total


def test_unpinned_grid_ranker_holds_the_stated_bound():
    """The widest key the oracle brings, an unpinned 4x4 grid, at k=6
    holds at most 104 KiB (filling_ranker's docstring) with its links
    and weight.  Counted by walking the ranker's objects: tracemalloc
    misses the tuples that CPython's free lists hand back in a warm
    process."""
    ranker = FillingRanker("grid", ((0, 6),) * 16)
    assert ranker.weight == ranker.count * 16 * 3  # mean k/2 per vertex
    held = _reached_bytes(vars(ranker)) + sys.getsizeof(ranker)
    assert held <= 104 * 1024


def test_matrix_power_object_exactness():
    # object dtype avoids int64 overflow for large powers
    P = step_matrix(np.arange(7))
    M = np.linalg.matrix_power(P, 60)
    assert M.dtype == object
    assert int(np.trace(M)) > 2 ** 63
