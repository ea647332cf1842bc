"""Acceptance gate: the eleven published-value and property criteria.

Each test emits exactly one "criterion NN ...: PASS|FAIL" line (echoed
in the terminal summary).  Criteria that compare freshly computed exact
values against published numbers hold the published number to its
tolerance wherever the published tables support it.  Where a published
intermediate contradicts the paper's own table rows (two aggregates in
criterion 05), the criterion asserts that the pipeline flags it and names
it with its exact value; see README, "Tests and acceptance status".
"""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from conftest import ACCEPTANCE_LINES, small_graphs
from kheights import _golden
from kheights.bounds import family_report
from kheights.coupling import (
    cftp_sample,
    coupled_block_step,
    coupled_updown_step,
    CoupledState,
    expected_coupled_updown_distance,
    strassen_joint,
)
from kheights.chains import BlockSampler, make_rng
from kheights.divergence import expected_gap, iter_cover_pairs
from kheights.enumeration import count_rect_extensible, enumerate_fillings
from kheights.graphs import (
    CaseTag,
    Graph,
    boundary,
    make_case_graph,
    make_complete,
    singleton_family,
)
from kheights.heights import (
    BoundaryConstraint,
    KHeight,
    enumerate_heights,
)
from kheights.tables import (
    admissible_cases,
    case_divergence,
    hex_divergence,
    rect_divergence,
    rect_max,
    type1_cases,
    type2_cases,
)


def _report(num: int, name: str, failures: list[str], detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    extra = detail if not failures else "; ".join(failures)
    line = f"criterion {num:02d} [{name}]: {status}" + (
        f" ({extra})" if extra else "")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert not failures, line


def test_criterion_01_hex_table_exact():
    expected = {
        2: (199, 729, 0.798658),
        3: (340, 4096, 1.831905),
        4: (481, 15625, 2.892857),
        5: (622, 46656, 3.000000),
        6: (763, 117649, 3.000000),
    }
    failures = []
    for k, (ob, obdry, e6) in expected.items():
        rep = hex_divergence(k)
        if rep.omega_block != ob or rep.omega_boundary != obdry:
            failures.append(f"k={k} counts {rep.omega_block}/"
                            f"{rep.omega_boundary}")
        if abs(rep.e_max_rounded() - e6) > 1e-6:
            failures.append(f"k={k} e_max {rep.e_max_rounded()}")
    _report(1, "hex divergence table exact", failures, "k=2..6")


def test_criterion_02_trace_counts():
    failures = []
    if count_rect_extensible(2) != 2825761:
        failures.append("k=2 trace")
    if count_rect_extensible(3) != 15784802:
        failures.append("k=3 trace")
    _report(2, "extensible boundary trace counts", failures,
            "2825761 / 15784802")


def _check_case_rows(rows, failures):
    for tag, k in rows:
        rep = case_divergence(tag, k)
        key = ((k, tag.d, tag.neighbor_labels) if tag.kind == "type1"
               else (k, tag.neighbor_labels))
        table = (_golden.TYPE1_ROWS if tag.kind == "type1"
                 else _golden.TYPE2_ROWS)
        ob, obdry, e_str = table[key]
        if (rep.omega_block != ob or rep.omega_boundary != obdry
                or abs(rep.e_max_rounded() - float(e_str)) > 1e-6):
            failures.append(f"{tag} k={k}")


def test_criterion_03_case_spot_suite():
    rows = [(CaseTag("type1", labels, d), k)
            for d, labels in type1_cases() if d <= 7
            for k in (2, 3)]
    rows += [(CaseTag("type2", labels), k)
             for labels in type2_cases() if len(labels) == 1
             for k in (2, 3)]
    failures = []
    _check_case_rows(rows, failures)
    _report(3, "case catalog spot suite", failures, f"{len(rows)} rows")


@pytest.mark.extended
def test_criterion_03x_case_full_suite():
    rows = [(CaseTag("type1", labels, d), k)
            for d, labels in type1_cases() for k in (2, 3)]
    rows += [(CaseTag("type2", labels), k)
             for labels in type2_cases() for k in (2, 3)]
    failures = []
    _check_case_rows(rows, failures)
    _report(3, "case catalog full suite (extended)", failures,
            f"{len(rows)} rows")


#: exact E_max of the 4x4 grid block past the paper's table
_RECT_EXACT = {4: Fraction(338454163, 149011239),
               5: Fraction(321052187, 131916261),
               6: Fraction(508032, 207499)}


@pytest.mark.extended
def test_criterion_04_rect_table():
    failures = []
    for k, want in ((2, 1.225092), (3, 1.752678)):
        rep = rect_divergence(k)
        if abs(rep.e_max_rounded() - want) > 1e-6:
            failures.append(f"k={k}: {rep.e_max_rounded()}")
    # the paper gives only a witness above 2.27 at k=4, and nothing past
    # it; the exact maxima settle both.  The slices stream, so k=4 stays
    # far below the 1.3 GB its two t^4 tensors took.
    rect_max.cache_clear()  # measure a computation, not a recall
    for k, want in _RECT_EXACT.items():
        tracemalloc.start()
        try:
            e = rect_divergence(k).e_max
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if e != want:
            failures.append(f"k={k}: {e} != {want}")
        if k == 4 and peak >= 300 * 2 ** 20:
            failures.append(f"k=4 peaked at {peak / 2 ** 20:.0f} MiB")
    _report(4, "grid block divergence table (extended)", failures,
            "k=2, k=3 maxima and exact k=4..6 maxima "
            + ", ".join(map(str, _RECT_EXACT.values())))


#: half a unit in the sixth decimal: how far a published table row can lie
#: from the exact divergence it rounds
_ROW_RADIUS = Fraction(5, 10 ** 7)
#: an aggregate subtracts at most 30 row values (30 E*, or 6 E_h + 24 E*),
#: so one derived from the rows lies this close to the exact aggregate
_AGGREGATE_RADIUS = 30 * _ROW_RADIUS


def _row_e_max(kind: str, d: int, labels: tuple[int, ...], k: int):
    if kind == "type1":
        return Fraction(_golden.TYPE1_ROWS[(k, d, labels)][2])
    return Fraction(_golden.TYPE2_ROWS[(k, labels)][2])


def _aggregate_from_rows(connectivity: str, k: int) -> Fraction:
    """The aggregate lower bound derived from the published table rows
    alone, by the formula of regular_aggregates: 24 - 30 E* for the
    2-connected class, else 24 - 6 (E_h - 1) - 24 E*, where E* is the
    worst rate (E - 1) / |labels| over the admissible cases and E_h the
    single-end window case."""
    e_star = max((_row_e_max(kind, d, labels, k) - 1) / len(labels)
                 for kind, d, labels in admissible_cases(connectivity))
    if connectivity == "two":
        return 24 - 30 * e_star
    e_h = _row_e_max("type2", 8, (1,), k)
    return 24 - 6 * (e_h - 1) - 24 * e_star


def _row_verdict(slack: Fraction, radius: Fraction) -> bool | None:
    """Validity of a published bound whose slack against a row-derived
    value is `slack`, when the exact value lies within `radius` of the
    row-derived one: True or False where the rows settle it, None where
    the slack is inside the rounding radius."""
    if slack >= radius:
        return True
    if slack < -radius:
        return False
    return None


def _check_published_c(name: str, pub: dict, failures: list[str]):
    rel = abs(float(pub["c_from_published_exact"]) - pub["c"]) / pub["c"]
    if rel > 1e-6:
        failures.append(f"{name} c off by {rel:.1e}")


def test_criterion_05_constant_pipeline():
    """Every published mixing constant follows from its published
    intermediate; every exact E_max and aggregate agrees with the
    published table rows; and family_report flags exactly the published
    intermediates that the table rows refute (the 3-connected and dual
    k=2 aggregates), naming each with its exact value."""
    failures = []
    flagged = []
    for fam, k in (("hex", 2), ("hex", 3), ("rect", 2), ("rect", 3)):
        name = f"{fam} k={k}"
        rep = family_report(fam, k)
        pub = rep["published"]
        _check_published_c(name, pub, failures)
        row = Fraction(_golden.HEX_ROWS[k][2] if fam == "hex"
                       else _golden.RECT_ROWS[k])
        if abs(rep["e_max"] - row) > _ROW_RADIUS:
            failures.append(f"{name} E_max {float(rep['e_max']):.7f} "
                            f"does not round to the table row {row}")
        verdict = _row_verdict(pub["e_max_bound"] - row, _ROW_RADIUS)
        if verdict is None:
            # the published bound is the rounded row itself; only the
            # exact E_max, checked against the row above, settles it
            verdict = pub["e_max_bound"] >= rep["e_max"]
        if pub["e_max_bound_valid"] is not verdict:
            failures.append(f"{name} e_max_bound_valid is "
                            f"{pub['e_max_bound_valid']}, rows say {verdict}")
        if not pub["e_max_bound_valid"]:
            flagged.append(f"{name} E_max bound "
                           f"{float(pub['e_max_bound'])} < exact "
                           f"{float(rep['e_max']):.6f}")

    family = {"two": "regular2", "three": "regular3", "dual4": "dual4"}
    for (conn, k), published in _golden.REGULAR_PUBLISHED_BOUND.items():
        name = f"{conn} k={k}"
        rep = family_report(family[conn], k)
        exact = rep["aggregate_exact"]
        from_rows = _aggregate_from_rows(conn, k)
        if abs(exact - from_rows) > _AGGREGATE_RADIUS:
            failures.append(f"{name} aggregate {float(exact):.6f} vs "
                            f"{float(from_rows):.6f} from the table rows")
        pub = rep["published"]
        _check_published_c(name, pub, failures)
        verdict = _row_verdict(from_rows - Fraction(published),
                               _AGGREGATE_RADIUS)
        if verdict is None:
            failures.append(f"{name} published {published} is not settled "
                            f"by the table rows ({float(from_rows):.6f})")
        elif pub["aggregate_valid"] is not verdict:
            failures.append(f"{name} aggregate_valid is "
                            f"{pub['aggregate_valid']}, rows say {verdict}")
        if verdict and abs(float(exact) - float(published)) > 1e-4:
            failures.append(f"{name} aggregate {float(exact):.6f} != "
                            f"{published}")
        if not pub["aggregate_valid"]:
            flagged.append(f"{name} aggregate {published} > exact "
                           f"{float(exact):.6f}")
    _report(5, "mixing-constant pipeline", failures,
            "9 published constants + 5 aggregates; flagged: "
            + ("; ".join(flagged) or "none"))


def test_criterion_06_flow_coupling_identity():
    g, block, v = make_case_graph(CaseTag("type1", (1,), 6))
    failures = []
    checked = 0
    for k in (1, 2, 3):
        for lo, hi in iter_cover_pairs(g, block, v, k):
            fl = enumerate_fillings(g, block, lo, k)
            fh = enumerate_fillings(g, block, hi, k)
            if not fl or not fh:
                continue
            joint = strassen_joint(fl, fh)
            if joint.expected_delta() != expected_gap(g, block, lo, hi, k):
                failures.append(f"k={k} pair {dict(lo.values)}")
                break
            checked += 1
    _report(6, "coupling distance equals marginal gap", failures,
            f"{checked} hex cover pairs, exact")


def test_criterion_07_dominance_certificate():
    tags = [CaseTag("type1", (1,), 6), CaseTag("type1", (1,), 3),
            CaseTag("type1", (1, 3), 5), CaseTag("type1", (2,), 4),
            CaseTag("type1", (1, 2), 6)]
    rnd = random.Random(0)
    cache = {}
    failures = []
    done = 0
    while done < 10000 and not failures:
        tag = rnd.choice(tags)
        k = rnd.choice((1, 2, 3))
        g, block, v = make_case_graph(tag)
        bdry = sorted(boundary(g, block))
        vals = {u: rnd.randrange(k + 1) for u in bdry}
        if vals[v] >= k:
            continue
        key = (str(tag), k, tuple(sorted(vals.items())))
        if key not in cache:
            hi_vals = dict(vals)
            hi_vals[v] += 1
            fl = enumerate_fillings(g, block, BoundaryConstraint(
                tuple(sorted(vals.items()))), k)
            fh = enumerate_fillings(g, block, BoundaryConstraint(
                tuple(sorted(hi_vals.items()))), k)
            if not fl or not fh:
                cache[key] = True  # non-extensible side: nothing to couple
            else:
                try:
                    strassen_joint(fl, fh)
                    cache[key] = True
                except Exception as exc:
                    cache[key] = False
                    failures.append(f"{tag} k={k}: {exc}")
        done += 1
    _report(7, "stochastic dominance certificate", failures,
            f"{done} sampled cover pairs, 0 failures")


def test_criterion_08_distance_is_transition_metric():
    failures = []
    pairs_checked = 0
    for g in small_graphs(5):
        for k in (1, 2):
            states = list(enumerate_heights(g, k))
            index = {s: i for i, s in enumerate(states)}
            adj = [[] for _ in states]
            gadj = g.adjacency()
            for i, s in enumerate(states):
                for v in range(g.n):
                    for d in (-1, 1):
                        w = s[v] + d
                        if 0 <= w <= k and all(
                                abs(s[u] - w) <= 1 for u in gadj[v]):
                            t = list(s)
                            t[v] = w
                            adj[i].append(index[tuple(t)])
            for i, s in enumerate(states):
                dist = {i: 0}
                frontier = [i]
                while frontier:
                    nxt = []
                    for a in frontier:
                        for b in adj[a]:
                            if b not in dist:
                                dist[b] = dist[a] + 1
                                nxt.append(b)
                    frontier = nxt
                x = KHeight(g, k, s)
                for j, t in enumerate(states):
                    if dist.get(j) != x.delta(KHeight(g, k, t)):
                        failures.append(f"n={g.n} k={k}")
                        break
                pairs_checked += len(states)
                if failures:
                    break
            if failures:
                break
    _report(8, "L1 distance equals transition-graph distance", failures,
            f"{pairs_checked} state pairs over {len(small_graphs(5))} graphs")


def _chi2(counts, states, n):
    expected = n / len(states)
    return sum((counts.get(s, 0) - expected) ** 2 / expected
               for s in states)


def test_criterion_09_cftp_uniformity():
    failures = []
    n = 100000
    # 3-path, k=2: 17 states; chi-square df=16, 99% critical value 32.0
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    states = list(enumerate_heights(path3, 2))
    cnt = Counter(cftp_sample(path3, 2, seed=s).values for s in range(n))
    chi2 = _chi2(cnt, states, n)
    if chi2 >= 32.0:
        failures.append(f"3-path chi2 {chi2:.1f} >= 32.0")
    # K4, k=2: 31 states; df=30, 99% critical value 50.89
    k4 = make_complete(4)
    states4 = list(enumerate_heights(k4, 2))
    cnt4 = Counter(cftp_sample(k4, 2, seed=s).values for s in range(n))
    chi24 = _chi2(cnt4, states4, n)
    if chi24 >= 50.89:
        failures.append(f"K4 chi2 {chi24:.1f} >= 50.89")
    # class masses: heights touching 0 / touching 2 / constant one
    lows = sum(c for s, c in cnt4.items() if 0 in s)
    ones = cnt4.get((1, 1, 1, 1), 0)
    highs = n - lows - ones
    for label, obs, p in (("low", lows, Fraction(15, 31)),
                          ("high", highs, Fraction(15, 31)),
                          ("constant", ones, Fraction(1, 31))):
        mean = n * float(p)
        sigma = (n * float(p) * (1 - float(p))) ** 0.5
        if abs(obs - mean) > 3 * sigma:
            failures.append(f"K4 {label} class {obs} vs {mean:.0f}")
    _report(9, "exact sampler uniformity", failures,
            f"2x{n} samples, chi2 {chi2:.1f} and {chi24:.1f}")


def test_criterion_10_monotonicity():
    failures = []
    rnd = random.Random(1)
    instances = [
        (Graph.from_edges(3, [(0, 1), (1, 2)]), 2),
        (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 3),
        (make_complete(3), 2),
        (Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), 2),
    ]
    updown_steps = 0
    while updown_steps < 10 ** 6 and not failures:
        g, k = rnd.choice(instances)
        st = CoupledState(low=KHeight.constant(g, k, 0),
                          high=KHeight.constant(g, k, k),
                          rng=make_rng(rnd.randrange(2 ** 32)))
        for _ in range(2000):
            coupled_updown_step(st)
            updown_steps += 1
            if not all(a <= b for a, b in zip(st.low, st.high)):
                failures.append("up/down order violated")
                break
    block_steps = 0
    samplers = [(g, k, BlockSampler(g, singleton_family(g), k))
                for g, k in instances]
    while block_steps < 10 ** 5 and not failures:
        g, k, sampler = rnd.choice(samplers)
        st = CoupledState(low=KHeight.constant(g, k, 0),
                          high=KHeight.constant(g, k, k),
                          rng=make_rng(rnd.randrange(2 ** 32)))
        for _ in range(500):
            coupled_block_step(st, sampler)
            block_steps += 1
            if not all(a <= b for a, b in zip(st.low, st.high)):
                failures.append("block order violated")
                break
    _report(10, "coupled steps preserve order", failures,
            f"{updown_steps} up/down + {block_steps} block steps")


def test_criterion_11_noncontraction_witness():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    x = KHeight(g, 3, (1, 0, 1))
    y = KHeight(g, 3, (1, 2, 1))
    val = expected_coupled_updown_distance(x, y)
    failures = [] if val == Fraction(13, 6) else [f"got {val}"]
    _report(11, "one-step expected distance witness", failures,
            "13/6 exact")
