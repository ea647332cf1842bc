import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kheights.bounds import (
    FAMILY_PARAMS,
    beta_corollary,
    beta_exact,
    c_constant,
    family_report,
    marginal_bound,
    sci7,
    tau_bound,
)
from kheights.graphs import Graph
from kheights.heights import enumerate_heights


def test_beta_exact_trivial_divergence():
    # all E = 1: beta = 1 - min membership / (2 |family|)
    beta = beta_exact([3, 5, 4], [0, 0, 0], 10)
    assert beta == 1 - Fraction(3, 20)


def test_beta_exact_takes_worst_vertex():
    beta = beta_exact([4, 4], [Fraction(1, 2), Fraction(3)], 8)
    assert beta == 1 - Fraction(1, 16)


def test_beta_corollary_relaxes_beta_exact():
    # corollary uses worst-case membership and divergence everywhere
    memberships = [4, 5, 6]
    sums = [Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)]
    fam = 12
    exact = beta_exact(memberships, sums, fam)
    m_check = min(memberships)
    # s * (E_max - 1) >= each per-vertex sum by construction
    relaxed, _ = beta_corollary(m_check, 2, 1 + Fraction(1, 4), fam)
    assert relaxed >= exact


def test_beta_corollary_certificate():
    beta, cert = beta_corollary(3, 3, Fraction("0.798659"), 100)
    assert cert and beta < 1
    beta2, cert2 = beta_corollary(16, 16, Fraction("2.28"), 100)
    assert not cert2 and beta2 >= 1
    # 3-regular k=2 without aggregation: no certificate
    beta3, cert3 = beta_corollary(24, 30, Fraction("2.367241"), 100)
    assert not cert3
    assert 24 - 30 * (Fraction("2.367241") - 1) == Fraction("-17.01723")


def test_c_constant_formula():
    # c = 8 b m k (k+1)^b / denominator
    assert c_constant(1, 1, 1, Fraction(1)) == 16
    assert c_constant(2, 3, 2, Fraction(4)) == Fraction(8 * 2 * 3 * 2 * 9, 4)
    with pytest.raises(ValueError):
        c_constant(1, 1, 1, Fraction(0))


def test_sci7_rounds_up():
    assert sci7(Fraction(1)) == "1.000000e+00"
    assert sci7(Fraction(123456789)) == "1.234568e+08"
    assert sci7(Fraction(1234567)) == "1.234567e+06"
    assert sci7(Fraction(1, 3)) == "3.333334e-01"
    assert sci7(Fraction(9999999999)) == "1.000000e+10"


def _sci7_by_scaling(x) -> str:
    """The reference rounding: the exponent of x < 1 found by scaling x
    up ten at a time."""
    x = Fraction(x)
    exp = len(str(x.numerator // x.denominator)) - 1 if x >= 1 else None
    if exp is None:
        exp = -1
        y = x
        while y < 1:
            y *= 10
            exp -= 1
        exp += 1
    mant_scaled = x * Fraction(10) ** (6 - exp)
    mant_int = -((-mant_scaled.numerator) // mant_scaled.denominator)
    if mant_int >= 10 ** 7:
        mant_int = -(-mant_int // 10)
        exp += 1
    m = str(mant_int)
    return f"{m[0]}.{m[1:]}e{exp:+03d}"


_EXPONENTS = st.integers(-40, 40)
_SCI7_INPUTS = st.one_of(
    st.builds(lambda n, d: Fraction(n, d), st.integers(1, 10 ** 40),
              st.integers(1, 10 ** 40)),
    # exact 7-digit mantissas, powers of ten and just around them
    st.builds(lambda m, e: Fraction(m) * Fraction(10) ** e,
              st.integers(10 ** 6, 10 ** 7 - 1), _EXPONENTS),
    st.builds(lambda e, d: Fraction(10) ** e + d * Fraction(10) ** (e - 30),
              _EXPONENTS, st.integers(-9, 9)),
)


@settings(max_examples=500, deadline=None)
@given(x=_SCI7_INPUTS)
def test_sci7_matches_the_scaling_loop(x):
    assert sci7(x) == _sci7_by_scaling(x)


def test_tau_bound_properties():
    assert tau_bound(1.0, 200, 2, 0.25) > tau_bound(1.0, 100, 2, 0.25)
    with pytest.raises(ValueError):
        tau_bound(1.0, 10, 2, 0.5)
    with pytest.raises(ValueError):
        tau_bound(1.0, 10, 2, 0.0)
    # quadratic growth: tau(2n)/tau(n) ~ 4 * log(2n)/log(n)
    n = 10 ** 5
    ratio = tau_bound(1.0, 2 * n, 2, 0.01) / tau_bound(1.0, n, 2, 0.01)
    expected = 4 * math.log(2 * 2 * n / 0.01) / math.log(2 * n / 0.01)
    assert abs(ratio - expected) / expected < 0.01


def test_tau_diverges_near_half():
    assert tau_bound(1.0, 10, 2, 0.4999999) > 1e6 * tau_bound(1.0, 10, 2, 0.25)


def test_marginal_bound_values():
    assert marginal_bound(1, 2) == Fraction(1, 2)
    assert marginal_bound(1, 7) == Fraction(1, 2)
    assert marginal_bound(2, 3) == Fraction(1, 9)
    assert marginal_bound(3, 2) == Fraction(1, 4)
    for k in (1, 2, 3):
        for d in (2, 3, 4):
            assert 0 < marginal_bound(k, d) <= 1
    with pytest.raises(ValueError):
        marginal_bound(0, 3)


def test_marginal_bound_empirical():
    """On small graphs every realizable conditional spin probability is
    at least the bound."""
    graphs = [
        Graph.from_edges(3, [(0, 1), (1, 2)]),
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    ]
    for g in graphs:
        delta = max(g.degree(v) for v in range(g.n))
        for k in (1, 2):
            b = marginal_bound(k, max(delta, 2))
            states = list(enumerate_heights(g, k))
            for v in range(g.n):
                buckets = {}
                for s in states:
                    env = s[:v] + s[v + 1:]
                    buckets.setdefault(env, []).append(s[v])
                for vals in buckets.values():
                    for q in set(vals):
                        p = Fraction(vals.count(q), len(vals))
                        assert p >= b


def test_family_report_hex_exact():
    rep = family_report("hex", 2)
    assert rep["e_max"] == Fraction(119, 149)
    assert rep["certificate"]
    assert rep["denominator_exact"] == Fraction(
        3 - 3 * (Fraction(119, 149) - 1), 2)
    pub = rep["published"]
    assert pub["e_max_bound_valid"] and pub["denominator_valid"]
    assert pub["c_from_published_denominator"] == "1.165099e+05"


def test_family_report_hex3_published_track():
    rep = family_report("hex", 3)
    assert rep["e_max"] == Fraction(3847, 2100)
    pub = rep["published"]
    assert pub["c_from_published_denominator"] == "7.017788e+06"
    # the exact pipeline lands close to, but not exactly on, the
    # published value (the published denominator is a truncation)
    rel = abs(float(rep["c_exact"]) - pub["c"]) / pub["c"]
    assert rel < 1e-5


def test_family_report_rejects_unknown():
    with pytest.raises(ValueError):
        family_report("octagon", 2)


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_family_report_rejects_k_below_1(family):
    # c = 8bmk(k+1)^b / denominator is 0 at k=0: no bound to report
    for k in (0, -1):
        with pytest.raises(ValueError, match="k >= 1"):
            family_report(family, k)


def test_family_report_regular_known_flags():
    """The published aggregates match fresh exact data except for the two
    documented discrepancies (3-connected k=2 and dual k=2)."""
    expect_valid = {("regular2", 2): True, ("regular3", 2): False,
                    ("regular3", 3): True, ("dual4", 2): False,
                    ("dual4", 3): True}
    for (fam, k), want in expect_valid.items():
        rep = family_report(fam, k)
        assert rep["published"]["aggregate_valid"] is want, (fam, k)
        assert rep["certificate"]


def test_published_c_reproduction_regular():
    for fam, k, want in [("regular2", 2, "4.391132e+07"),
                         ("regular3", 2, "2.195097e+07"),
                         ("regular3", 3, "4.852027e+09"),
                         ("dual4", 2, "1.489256e+07"),
                         ("dual4", 3, "4.852027e+09")]:
        rep = family_report(fam, k)
        assert rep["published"]["c_from_published_aggregate"] == want
        assert rep["published"]["c"] == float(want.replace("e", "E"))


def test_every_family_reports_all_keys():
    needed = {"family", "k", "b", "m", "m_check", "s",
              "denominator_exact", "certificate"}
    for fam, k in itertools.chain(
            [("hex", 2), ("hex", 3)],
            [("regular2", 2), ("regular3", 3)]):
        rep = family_report(fam, k)
        assert needed <= set(rep)
