"""psi_alpha Orlicz norms: closed forms, the empirical solver, products, tails."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbounds import (
    ConvergenceError,
    DomainError,
    OrliczNorm,
    UnsupportedFamilyError,
    psi_alpha,
    psi_norm_analytic,
    psi_norm_empirical,
    psi_product_bound,
    psi_tail_envelope,
)
from chainbounds import orlicz

LOG2 = math.log(2.0)


def test_psi_alpha_function():
    assert psi_alpha(0.0, 2.0) == 0.0
    # exp(1) - 1 at x = 1 for any alpha
    assert psi_alpha(1.0, 1.0) == pytest.approx(math.e - 1.0)
    assert psi_alpha(1.0, 3.0) == pytest.approx(math.e - 1.0)


def test_analytic_constant_norm():
    # A constant c solves E psi(|c|/t) = 1 at t = c / (log 2)^(1/alpha).
    for alpha in (1.0, 2.0, 3.5):
        n = psi_norm_analytic("constant", 2.0, alpha)
        assert n.value == pytest.approx(2.0 / LOG2 ** (1.0 / alpha))
        assert n.source == "analytic"
    assert psi_norm_analytic("symmetric-sign", 1.0, 2.0).value == pytest.approx(
        1.0 / math.sqrt(LOG2)
    )


def test_analytic_gaussian_norm():
    # E exp((g/t)^2) = (1 - 2/t^2)^(-1/2) equals 2 at t = sigma*sqrt(8/3).
    n = psi_norm_analytic("gaussian", 1.0, 2.0)
    assert n.value == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-12)
    assert psi_norm_analytic("gaussian", 2.5, 2.0).value == pytest.approx(
        2.5 * math.sqrt(8.0 / 3.0)
    )
    with pytest.raises(UnsupportedFamilyError):
        psi_norm_analytic("gaussian", 1.0, 1.5)


def test_analytic_unknown_family():
    with pytest.raises(UnsupportedFamilyError):
        psi_norm_analytic("cauchy", 1.0, 2.0)


def test_empirical_matches_constant_closed_form():
    data = np.full(50, 3.0)
    n = psi_norm_empirical(data, 2.0)
    assert n.value == pytest.approx(3.0 / math.sqrt(LOG2), rel=1e-5)
    assert n.sample_count == 50


def test_empirical_zero_sample():
    n = psi_norm_empirical(np.zeros(10), 1.0)
    assert n.value == 0.0


def test_empirical_defining_inequality(monkeypatch):
    monkeypatch.setattr(orlicz, "_BISECTION_TOL", 1e-8)
    rng = np.random.default_rng(2)
    data = rng.exponential(size=400)
    n = psi_norm_empirical(data, 1.0)
    mean_at = np.mean(np.expm1(data / n.value))
    assert mean_at <= 1.0 + 1e-9
    # strictly infeasible a hair below the reported value
    assert np.mean(np.expm1(data / (n.value * (1 - 1e-6)))) > 1.0


def test_empirical_bisection_stops_at_its_iteration_budget(monkeypatch):
    monkeypatch.setattr(orlicz, "_BISECTION_MAX_ITER", 2)
    data = np.random.default_rng(0).normal(size=1000)
    with pytest.raises(ConvergenceError, match="did not converge in 2 iterations"):
        psi_norm_empirical(data, 2.0)


def test_empirical_gaussian_consistency():
    # Large-sample empirical norm should approach sigma*sqrt(8/3).
    rng = np.random.default_rng(7)
    data = rng.normal(size=200_000)
    n = psi_norm_empirical(data, 2.0)
    assert n.value == pytest.approx(math.sqrt(8.0 / 3.0), rel=0.05)


def test_empirical_complex_uses_modulus():
    z = np.array([3.0 + 4.0j, -3.0 - 4.0j])
    n = psi_norm_empirical(z, 2.0)
    assert n.value == pytest.approx(5.0 / math.sqrt(LOG2), rel=1e-5)


def test_empirical_rejects_bad_input():
    with pytest.raises(DomainError):
        psi_norm_empirical([], 2.0)
    with pytest.raises(DomainError):
        psi_norm_empirical([np.inf], 2.0)
    with pytest.raises(DomainError):
        psi_norm_empirical([1.0], 0.0)


@given(st.floats(0.1, 50.0), st.sampled_from([1.0, 2.0]))
@settings(max_examples=40, deadline=None)
def test_empirical_homogeneity(scale, alpha):
    rng = np.random.default_rng(99)
    data = rng.normal(size=300)
    base = psi_norm_empirical(data, alpha).value
    scaled = psi_norm_empirical(scale * data, alpha).value
    assert scaled == pytest.approx(scale * base, rel=1e-4)


def test_scaled_method():
    n = OrliczNorm(2.0, 1.5, "analytic")
    assert n.scaled(2.0).value == 3.0
    with pytest.raises(DomainError):
        n.scaled(-1.0)


def test_product_bound():
    x = OrliczNorm(2.0, 2.0, "analytic")
    y = OrliczNorm(2.0, 3.0, "analytic")
    prod = psi_product_bound(x, y)
    assert prod.alpha == 1.0
    assert prod.value == 6.0
    with pytest.raises(DomainError):
        psi_product_bound(prod, y)


def test_product_bound_holds_empirically():
    # |XY| has psi_1 norm at most ||X||_2 ||Y||_2; check the defining
    # inequality of the RHS value on simulated products.
    rng = np.random.default_rng(21)
    x = rng.normal(size=100_000)
    y = rng.normal(size=100_000)
    nx = psi_norm_empirical(x, 2.0)
    ny = psi_norm_empirical(y, 2.0)
    cap = psi_product_bound(nx, ny).value
    assert np.mean(np.expm1(np.abs(x * y) / cap)) <= 1.0 + 1e-9


def test_tail_envelope():
    n = OrliczNorm(2.0, 1.0, "analytic")
    assert psi_tail_envelope(n, 0.0) == 1.0
    assert psi_tail_envelope(n, 2.0) == pytest.approx(
        min(1.0, 2.0 * math.exp(-4.0))
    )
    # small u clips at 1
    assert psi_tail_envelope(n, 0.1) == 1.0
    zero = OrliczNorm(2.0, 0.0, "analytic")
    assert psi_tail_envelope(zero, 1.0) == 0.0


@pytest.mark.parametrize("u", [-1.0, float("nan")])
def test_tail_envelope_rejects_a_negative_or_nan_threshold(u):
    with pytest.raises(DomainError, match="threshold must be nonnegative"):
        psi_tail_envelope(OrliczNorm(2.0, 1.0, "analytic"), u)


@given(st.floats(0.0, 10.0), st.floats(0.1, 5.0))
@settings(max_examples=60, deadline=None)
def test_tail_envelope_nonincreasing(u, value):
    n = OrliczNorm(2.0, value, "analytic")
    assert psi_tail_envelope(n, u) >= psi_tail_envelope(n, u + 0.5) - 1e-15


def test_tail_envelope_dominates_gaussian_tail():
    # With the analytic gaussian norm, 2 exp(-(u/val)^2) must dominate the
    # true two-sided tail 2(1 - Phi(u)).
    from scipy.stats import norm as normal

    n = psi_norm_analytic("gaussian", 1.0, 2.0)
    for u in np.linspace(0.5, 6.0, 12):
        truth = 2.0 * normal.sf(u)
        assert psi_tail_envelope(n, float(u)) >= truth - 1e-15


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
def test_non_positive_or_non_finite_alpha_rejected(alpha):
    with pytest.raises(DomainError, match="alpha"):
        psi_alpha(1.0, alpha)
    with pytest.raises(DomainError, match="alpha"):
        OrliczNorm(alpha, 1.0, "analytic")
    with pytest.raises(DomainError, match="alpha"):
        psi_norm_analytic("constant", 1.0, alpha)
    with pytest.raises(DomainError, match="alpha"):
        psi_norm_empirical([1.0, 2.0], alpha)


@pytest.mark.parametrize("family", ["constant", "symmetric-sign", "bounded"])
@pytest.mark.parametrize("alpha", [0.0001, 0.0005, 1e-300])
def test_analytic_norm_names_a_factor_past_the_float_range(family, alpha):
    # (log 2)^(1/alpha) underflows, so c / (log 2)^(1/alpha) would be inf or divide by 0
    with pytest.raises(DomainError, match=r"\(log 2\)\^\(-1/alpha\) is not finite"):
        psi_norm_analytic(family, 1.0, alpha)
    assert psi_norm_analytic(family, 1.0, 0.002).value == 1.0 / math.log(2.0) ** 500.0


@pytest.mark.parametrize("x", [math.nan, np.array([1.0, math.nan])])
def test_psi_alpha_rejects_nan(x):
    with pytest.raises(DomainError, match="nonnegative arguments"):
        psi_alpha(x, 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_nan_and_infinite_factors_are_named(bad):
    with pytest.raises(DomainError, match="scaling factor"):
        OrliczNorm(2.0, 1.5, "analytic").scaled(bad)
    for family in ("constant", "symmetric-sign", "bounded", "gaussian"):
        with pytest.raises(DomainError, match="family parameter"):
            psi_norm_analytic(family, bad, 2.0)
