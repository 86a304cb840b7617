"""Explicit-constant conversions between moment growth and tail decay.

Frozen expected values below were recomputed independently with scipy
(closed forms or quadrature) before being asserted here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from chainbounds import (
    BernsteinParams,
    DomainError,
    bernstein_tail,
    lp_from_tail,
    lp_tail_integral_bound,
    moments_to_tails,
    moments_to_tails_mixed,
    small_set_cap,
    small_set_moment_bound,
    tails_to_moments,
    tails_to_moments_mixed,
    union_bound_constant,
    union_bound_probability,
)
from chainbounds.registry import DEFAULT_REGISTRY


def test_moments_to_tails_threshold_and_envelope():
    b = moments_to_tails(1.0, 1.0, 2.0)
    # e^(1/2) * (1*1 + 1) = 2 sqrt(e) = 3.2974425414002564
    assert b.threshold(1.0) == pytest.approx(2.0 * math.sqrt(math.e), rel=1e-12)
    assert b.probability(1.0) == pytest.approx(math.exp(-0.5))
    assert b.probability(2.0) == pytest.approx(math.exp(-(2.0**2) / 2.0))
    assert b.u_min == 1.0
    with pytest.raises(DomainError):
        b.threshold(0.5)


def test_moments_to_tails_validates_inputs():
    with pytest.raises(DomainError):
        moments_to_tails(0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        moments_to_tails(1.0, -1.0, 2.0)
    with pytest.raises(DomainError):
        moments_to_tails(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        moments_to_tails(1.0, 0.0, 2.0, u=0.2)


def test_moments_to_tails_mixed_threshold():
    b = moments_to_tails_mixed(1.0, 2.0, 3.0)
    # e * (1*4 + 2*2 + 3) at u = 4
    assert b.threshold(4.0) == pytest.approx(math.e * 11.0, rel=1e-12)
    assert b.probability(3.0) == pytest.approx(math.exp(-3.0))


def test_moments_to_tails_dominates_gaussian():
    # |N(0,1)| has (E|X|^p)^(1/p) <= sqrt(p), so the a=1, b=0 premise holds;
    # the emitted envelope must dominate the true tail at the emitted
    # threshold.
    b = moments_to_tails(1.0, 0.0, 2.0)
    for u in (1.0, 2.0, 3.0, 4.0):
        truth = 2.0 * stats.norm.sf(b.threshold(u))
        assert b.probability(u) >= truth - 1e-15


def test_tails_to_moments_frozen_value():
    # alpha=2, a=b=1, p=2: e^(1/2e)*(sqrt(pi)*e^(1/6))^(1/2)*sqrt(2)
    #   = 2.459674725170796  (recomputed with scipy)
    m = tails_to_moments(1.0, 1.0, 2.0, 2.0)
    assert m.value == pytest.approx(2.459674725170796, rel=1e-12)
    assert m.p == 2.0


def test_tails_to_moments_dominates_quadrature():
    # Premise holds exactly for the two-sided Weibull-type variable with
    # P(|X| >= t) = exp(-t^alpha/alpha): take a = e^(-1/alpha), b = 1.
    for alpha in (1.0, 2.0, 3.0):
        a = math.exp(-1.0 / alpha)
        for p in (1.0, 2.0, 8.0):
            truth = integrate.quad(
                lambda t: p * t ** (p - 1) * math.exp(-t**alpha / alpha),
                0,
                np.inf,
            )[0] ** (1.0 / p)
            assert tails_to_moments(a, 1.0, alpha, p).value >= truth - 1e-12


def test_tails_to_moments_mixed_frozen_values():
    # p=1: linear coefficient only -> 2.4093542551636293, sqrt only ->
    # 2.158783611952343 (both recomputed with scipy).
    assert tails_to_moments_mixed(1.0, 0.0, 1.0).value == pytest.approx(
        2.4093542551636293, rel=1e-12
    )
    assert tails_to_moments_mixed(0.0, 1.0, 1.0).value == pytest.approx(
        2.158783611952343, rel=1e-12
    )
    both = tails_to_moments_mixed(1.0, 1.0, 1.0)
    assert both.value == pytest.approx(2.4093542551636293 + 2.158783611952343)
    assert dict(both.decomposition)["linear-term"] == pytest.approx(2.4093542551636293)


def test_tails_to_moments_mixed_dominates_exponential():
    # Exponential(1) satisfies P(X >= u) = e^{-u}, i.e. the a1=1, a2=0
    # premise; moments are Gamma(p+1)^(1/p).
    for p in (1.0, 2.0, 4.0, 8.0):
        truth = special.gamma(p + 1.0) ** (1.0 / p)
        assert tails_to_moments_mixed(1.0, 0.0, p).value >= truth - 1e-12


def test_small_set_cap_and_bound():
    assert small_set_cap(1.0) == 2
    assert small_set_cap(2.0) == 4
    assert small_set_cap(4.0) == 16
    m = small_set_moment_bound([1.0, 3.0, 2.0], 2.0)
    assert m.value == 6.0
    with pytest.raises(DomainError):
        small_set_moment_bound([1.0] * 5, 2.0)  # 5 > cap 4
    # explicit set_size overrides the list length
    assert small_set_moment_bound([1.0], 2.0, set_size=4).value == 2.0
    with pytest.raises(DomainError):
        small_set_moment_bound([1.0], 2.0, set_size=5)
    for bad in (-3, 0, 2.9, float("nan")):
        with pytest.raises(DomainError, match="set_size"):
            small_set_moment_bound([1.0, 2.0], 2.0, set_size=bad)
    assert small_set_moment_bound([1.0, 2.0], 2.0, set_size=3.0).value == 4.0


def test_union_bound_constant_frozen():
    # 2 * sum_n exp(2^n * (2(ln2 - 1) + 1/2)) = 5.830926892696748
    val = union_bound_constant()
    assert val == pytest.approx(5.830926892696748, abs=1e-12)
    assert val <= 16.0


def test_union_bound_probability():
    c, fitted = DEFAULT_REGISTRY.union_c()
    assert not fitted
    p = union_bound_probability(2.0, 2.0, 4.0)
    assert p == pytest.approx(c * math.exp(-4.0 * 4.0 / 4.0))
    with pytest.raises(DomainError):
        union_bound_probability(2.0, 1.0, 4.0)  # below 2^(1/alpha)
    with pytest.raises(DomainError, match="union bound requires u"):
        union_bound_probability(2.0, float("nan"), 1.0)


def test_lp_tail_integral_bound_frozen():
    # (sqrt(2pi)/2) * 2^(p/a) * (2/a)^(p/a+1/2) * sqrt(p)
    assert lp_tail_integral_bound(2.0, 2.0) == pytest.approx(
        2.0 * math.sqrt(math.pi), rel=1e-12
    )
    assert lp_tail_integral_bound(2.0, 1.0) == pytest.approx(
        math.sqrt(math.pi), rel=1e-12
    )


def test_lp_tail_integral_dominates_quadrature():
    for alpha in (1.0, 2.0):
        for p in (1.0, 2.0, 4.0, 16.0):
            truth = integrate.quad(
                lambda v: p * v ** (p - 1) * math.exp(-p * v**alpha / 4.0),
                0,
                np.inf,
            )[0]
            assert lp_tail_integral_bound(alpha, p) >= truth - 1e-12


def test_lp_from_tail_frozen_value():
    # alpha=2, p=1, c=1, u*=2, scale 1: sqrt(pi) + 2 = 3.772453850905516
    m = lp_from_tail(1.0, 1.0, 2.0, 2.0, 1.0)
    assert m.value == pytest.approx(math.sqrt(math.pi) + 2.0, rel=1e-12)


def test_lp_from_tail_dominates_quadrature():
    # Variable with P(V > v) = exp(-p v^alpha / 4) exactly satisfies the
    # premise with scale 1, c = 1, any onset u* > 0.
    for alpha in (1.0, 2.0):
        for p in (1.0, 2.0, 4.0):
            truth = integrate.quad(
                lambda v: p * v ** (p - 1) * math.exp(-p * v**alpha / 4.0),
                0,
                np.inf,
            )[0] ** (1.0 / p)
            for u_star in (1.0, 2.0, 5.0):
                got = lp_from_tail(1.0, 1.0, u_star, alpha, p).value
                assert got >= truth - 1e-12


def test_lp_from_tail_large_p_no_overflow():
    m = lp_from_tail(2.0, 16.0, 3.0, 2.0, 512.0)
    assert math.isfinite(m.value)
    assert m.value >= 2.0 * 3.0  # at least gamma * u_star


def test_bernstein_frozen_value():
    params = BernsteinParams(m=100, sigma=1.0, K=1.0)
    b = bernstein_tail(params, u=1.0)
    # sqrt(2)/10 + 1/100 = 0.1514213562373095
    assert b.threshold(1.0) == pytest.approx(0.1514213562373095, rel=1e-12)
    assert b.probability(1.0) == pytest.approx(2.0 * math.exp(-1.0))
    assert b.u_min == 0.0


def test_bernstein_dominates_bounded_summands():
    # Average of m Rademacher signs: the factorial moment condition holds
    # with sigma = K = 1.  Compare against the exact binomial tail.
    m = 10
    params = BernsteinParams(m=m, sigma=1.0, K=1.0)
    b = bernstein_tail(params)
    signs = np.array(
        [[1 if (k >> i) & 1 else -1 for i in range(m)] for k in range(2**m)]
    )
    means = np.abs(signs.mean(axis=1))
    for u in (0.5, 1.0, 2.0, 3.0):
        thr = b.threshold(u)
        exact = float(np.mean(means >= thr))
        assert b.probability(u) >= exact - 1e-12


@given(
    st.floats(0.1, 10.0),
    st.floats(0.0, 10.0),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    st.floats(1.0, 6.0),
)
@settings(max_examples=60, deadline=None)
def test_moments_to_tails_monotonicity(a, b, alpha, u):
    bound = moments_to_tails(a, b, alpha)
    assert bound.threshold(u + 0.5) >= bound.threshold(u)
    assert bound.probability(u + 0.5) <= bound.probability(u)
    bigger = moments_to_tails(a + 1.0, b, alpha)
    assert bigger.threshold(u) >= bound.threshold(u)


@given(st.floats(1.0, 64.0), st.sampled_from([1.0, 2.0]))
@settings(max_examples=50, deadline=None)
def test_tails_to_moments_growth_rate(p, alpha):
    # value / p^(1/alpha) is bounded and the value grows with p
    m1 = tails_to_moments(1.0, 1.0, alpha, p)
    m2 = tails_to_moments(1.0, 1.0, alpha, p + 1.0)
    assert m2.value >= m1.value * 0.8  # roughly monotone in p
    assert m1.value / p ** (1.0 / alpha) <= 4.0


def test_round_trip_moments_tails_moments():
    # Starting from moment growth a*p^(1/alpha), converting to a tail and
    # back to moments inflates by a bounded, computable factor only.
    a, alpha = 1.0, 2.0
    tail = moments_to_tails(a, 0.0, alpha)
    # the emitted tail has threshold e^(1/alpha)*a*u and prefactor 1
    back = tails_to_moments(a, 1.0, alpha, 4.0)
    assert back.value >= a * 4.0 ** (1.0 / alpha)  # no free lunch
    assert back.value <= 6.0 * a * 4.0 ** (1.0 / alpha)  # bounded blow-up


@pytest.mark.parametrize("alpha", [0.001, 1e-300])
def test_moments_to_tails_names_an_overflowing_threshold_factor(alpha):
    # e^(1/alpha) is past the float range: a DomainError, not an OverflowError
    with pytest.raises(DomainError, match=r"threshold factor e\^\(1/alpha\)"):
        moments_to_tails(1.3, 0.5, alpha)
    assert moments_to_tails(1.3, 0.5, 0.0015).factor == math.exp(1.0 / 0.0015)


@pytest.mark.parametrize("u", [math.inf, np.array([2.0, math.inf])])
def test_tail_bounds_reject_a_non_finite_u_by_name(u):
    with pytest.raises(DomainError, match="finite u"):
        moments_to_tails_mixed(0.0, 1.0, 0.5, u=u)
    b = moments_to_tails(1.0, 1.0, 2.0)
    for evaluate in (b.threshold, b.probability):
        with pytest.raises(DomainError, match="finite u"):
            evaluate(u)


def test_powers_of_one_over_alpha_name_their_overflow():
    # 2^(1/alpha) and p^(1/alpha) past the float range: a DomainError, not an OverflowError
    with pytest.raises(DomainError, match=r"union bound threshold 2\^\(1/alpha\) is not finite "
                                          r"at alpha = 0.0005"):
        union_bound_probability(0.0005, 1.0, 2.0)
    with pytest.raises(DomainError, match=r"moment growth p\^\(1/alpha\) is not finite "
                                          r"at alpha = 0.0005"):
        tails_to_moments(1.0, 1.0, 0.0005, 2.0)
    # p = 1 has growth 1 at any alpha
    assert tails_to_moments(1.0, 1.0, 0.0005, 1.0).value > 0
