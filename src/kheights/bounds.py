"""Mixing-time bound constants for the block-coupling argument.

The one-step contraction factor is

    beta = max_v [ 1 - (#{B : v in B} - sum_{B : v in boundary(B)}
                        (E_{B,v} - 1)) / (2 |family|) ],

the mixing constant is c = 8 b m k (k+1)^b / ((1 - beta) |family|), and

    tau(eps) <= c * ((log(1/eps) * n) + n^2 log(k+1)) * log(k n / eps)
                  / log(1 / (2 eps)).

All beta/c arithmetic is exact rational end to end.  The published
derivations instead substitute 6-decimal upper bounds on E_max and
lower bounds on the contraction denominator at documented points;
family_report reproduces both tracks and cross-checks every published
intermediate against the exact value.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._golden import (
    HEX_PUBLISHED_C,
    HEX_SUMMARY_C,
    HEX_PUBLISHED_DENOMINATOR,
    HEX_PUBLISHED_EMAX_BOUND,
    RECT_PUBLISHED_C,
    RECT_PUBLISHED_DENOMINATOR,
    RECT_PUBLISHED_EMAX_BOUND,
    REGULAR_PUBLISHED_BOUND,
    REGULAR_PUBLISHED_C,
)
from .tables import hex_divergence, rect_max, regular_aggregates

#: (b, m, m_check, s) per family; the regular families share one geometry:
#: 8-fold face blocks plus face windows give 24 blocks through each vertex
#: and at most 30 block boundaries containing it.
FAMILY_PARAMS = {
    "rect": (16, 16, 16, 16),
    "hex": (6, 3, 3, 3),
    "regular2": (10, 24, 24, 30),
    "regular3": (10, 24, 24, 30),
    "dual4": (10, 24, 24, 30),
}


def beta_exact(memberships, divergence_sums, family_size: int) -> Fraction:
    """Contraction factor from per-vertex data: memberships[v] counts the
    blocks containing v, divergence_sums[v] is sum of (E_{B,v} - 1) over
    blocks whose boundary contains v."""
    if len(memberships) != len(divergence_sums) or not memberships:
        raise ValueError("need matching nonempty per-vertex data")
    return max(
        1 - Fraction(mv - Fraction(sv), 2 * family_size)
        for mv, sv in zip(memberships, divergence_sums)
    )


def beta_corollary(m_check: int, s: int, e_max,
                   family_size: int) -> tuple[Fraction, bool]:
    """Relaxed contraction factor 1 - (m_check - s (E_max - 1)) / (2 |family|)
    and whether it certifies rapid mixing (beta < 1)."""
    beta = 1 - Fraction(m_check - s * (Fraction(e_max) - 1),
                        2 * family_size)
    return beta, beta < 1


def c_constant(b: int, m: int, k: int, denominator) -> Fraction:
    """Mixing constant 8 b m k (k+1)^b / denominator with
    denominator = (1 - beta) |family|, as an exact rational."""
    denominator = Fraction(denominator)
    if denominator <= 0:
        raise ValueError("denominator must be positive (beta < 1)")
    return Fraction(8 * b * m * k * (k + 1) ** b) / denominator


def sci7(x) -> str:
    """Round up to 7 significant digits in scientific notation, matching
    how the published constants are reported (as strict upper bounds)."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("positive values only")
    # 10^exp <= x < 10^(exp + 1): the digit counts leave two choices
    exp = len(str(x.numerator)) - len(str(x.denominator))
    if Fraction(10) ** exp > x:
        exp -= 1
    mant = math.ceil(x / Fraction(10) ** (exp - 6))  # 7 significant digits
    if mant == 10 ** 7:  # rounded up to the next power of ten
        mant, exp = 10 ** 6, exp + 1
    m = str(mant)
    return f"{m[0]}.{m[1:]}e{exp:+03d}"


def tau_bound(c, n: int, k: int, eps: float) -> float:
    """Mixing-time upper bound tau(eps); natural logarithms throughout."""
    if not 0 < eps < 0.5:
        raise ValueError("need 0 < eps < 1/2")
    c = float(c)
    return (c * (math.log(1 / eps) * n + n * n * math.log(k + 1))
            * math.log(k * n / eps) / math.log(1 / (2 * eps)))


def marginal_bound(k: int, delta: int) -> Fraction:
    """Lower bound on any realizable conditional single-vertex probability
    in a graph of maximum degree delta: 1 / (k+1)^((delta-1)^(k-1))."""
    if k < 1 or delta < 2:
        raise ValueError("need k >= 1 and delta >= 2")
    return Fraction(1, (k + 1) ** ((delta - 1) ** (k - 1)))


# ---------------------------------------------------------------------------
# family pipeline


def family_report(family: str, k: int) -> dict:
    """Exact and published-track bound constants for one graph family.

    The exact track reduces every family to one per-vertex aggregate A
    of memberships minus divergence: m_check - s (E_max - 1) from the
    maximal block divergence E_max for rect/hex, and the aggregate of
    the case catalog for the 3-regular families.  The family mixes
    rapidly (certificate) when A > 0, with (1 - beta) |family| = A / 2.

    The published track reruns the same pipeline from the 6-decimal
    intermediates used in the published derivations; each intermediate
    carries a validity flag comparing it against the exact data (an
    upper bound on E_max must exceed the exact E_max, a lower bound on
    the denominator must not exceed the exact denominator).  Raises
    ValueError for an unknown family or k < 1, where c is 0.
    """
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    if k < 1:
        raise ValueError("need k >= 1")
    b, m, m_check, s = FAMILY_PARAMS[family]
    report = {"family": family, "k": k, "b": b, "m": m,
              "m_check": m_check, "s": s}
    grid = family in ("rect", "hex")
    if grid:
        e_max = report["e_max"] = (
            rect_max(k) if family == "rect" else hex_divergence(k).e_max)
        aggregate = m_check - s * (e_max - 1)
    else:
        connectivity = {"regular2": "two", "regular3": "three",
                        "dual4": "dual4"}[family]
        aggregate = regular_aggregates(connectivity, k)["bound"]
        report["aggregate_exact"] = aggregate
    report["certificate"] = aggregate > 0
    denom = report["denominator_exact"] = aggregate / 2
    if aggregate > 0:
        report["c_exact"] = c_constant(b, m, k, denom)

    if grid:
        published = {"rect": (RECT_PUBLISHED_EMAX_BOUND,
                              RECT_PUBLISHED_DENOMINATOR, RECT_PUBLISHED_C),
                     "hex": (HEX_PUBLISHED_EMAX_BOUND,
                             HEX_PUBLISHED_DENOMINATOR, HEX_PUBLISHED_C)}
        pub_emax, pub_denom, pub_c = (t.get(k) for t in published[family])
        if pub_emax is not None:
            pe = Fraction(pub_emax)
            pd = Fraction(pub_denom)
            report["published"] = {
                "e_max_bound": pe,
                "e_max_bound_valid": pe >= e_max,
                "denominator": pd,
                "denominator_valid": pd <= denom,
                "c": pub_c,
                "c_from_published_exact": c_constant(b, m, k, pd),
                "c_from_published_denominator": sci7(
                    c_constant(b, m, k, pd)),
            }
            if family == "hex" and k in HEX_SUMMARY_C:
                report["published"]["summary_c_discrepancy"] = {
                    "summary_c": HEX_SUMMARY_C[k],
                    "consistent_with_derivation": False,
                }
        return report

    pub_bound = REGULAR_PUBLISHED_BOUND.get((connectivity, k))
    if pub_bound is not None:
        pb = Fraction(pub_bound)
        pub = {
            "aggregate": pb,
            "aggregate_valid": pb <= aggregate,
            "c_from_published_exact": c_constant(b, m, k, Fraction(pb, 2)),
            "c_from_published_aggregate": sci7(
                c_constant(b, m, k, Fraction(pb, 2))),
        }
        pub_c = REGULAR_PUBLISHED_C.get((connectivity, k))
        if pub_c is None and connectivity == "dual4" and k == 3:
            # shares the 3-connected k=3 constant
            pub_c = REGULAR_PUBLISHED_C.get(("three", 3))
        pub["c"] = pub_c
        report["published"] = pub
    return report
