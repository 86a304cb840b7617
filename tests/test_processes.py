"""Process models, seeded simulators, and exact small-instance distributions."""

import math
import re
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbounds import (
    CapacityError,
    DomainError,
    MetricValidationError,
    ModelError,
    ProcessModel,
    RowDistribution,
    UnsupportedFamilyError,
    canonical_metric,
    empirical_model,
    empirical_parameters,
    exact_chaos_distribution,
    exact_empirical_distribution,
    exact_martingale_distribution,
    gaussian_model,
    martingale_model,
    mixed_metrics,
    replication_rng,
    sign_patterns,
    simulate_chaos,
    simulate_empirical,
    simulate_gaussian,
    simulate_martingale_family,
    simulate_squares,
    simulate_squares_increment,
    squares_model,
)
from chainbounds import errors, metric, processes, validation
from chainbounds.processes import BLOCK, SEED_MAX, SupremumSample

LOG2 = math.log(2.0)


# ---------------------------------------------------------- distributions


def test_row_distribution_families():
    for name in ("rademacher", "gaussian", "uniform", "constant"):
        d = RowDistribution(name, scale=2.0)
        assert d.second_moment() > 0
    with pytest.raises(UnsupportedFamilyError):
        RowDistribution("poisson")


def test_row_distribution_moments():
    assert RowDistribution("rademacher").mean() == 0.0
    assert RowDistribution("constant", scale=3.0).mean() == 3.0
    assert RowDistribution("gaussian", scale=2.0).second_moment() == pytest.approx(4.0)
    # uniform on [-s, s]: E X^2 = s^2/3
    assert RowDistribution("uniform", scale=3.0).second_moment() == pytest.approx(3.0)


@pytest.mark.parametrize("name", ["rademacher", "gaussian", "uniform", "constant"])
def test_a_second_moment_past_the_float_range_is_refused_by_name(name):
    # scale**2 raised OverflowError, which no caller names
    with pytest.raises(DomainError, match="^row second moment is not finite: scale\\^2 overflows "
                                          "at scale = -1e\\+200$"):
        RowDistribution(name, scale=-1e200).second_moment()
    assert RowDistribution(name, scale=1e154).second_moment() > 1e307


def test_row_distribution_psi_norms_frozen():
    # Closed forms / root solves, recomputed independently with scipy:
    assert RowDistribution("rademacher").psi_norm(2).value == pytest.approx(
        1.0 / math.sqrt(LOG2), rel=1e-10
    )
    assert RowDistribution("rademacher").psi_norm(1).value == pytest.approx(
        1.0 / LOG2, rel=1e-10
    )
    assert RowDistribution("gaussian").psi_norm(2).value == pytest.approx(
        math.sqrt(8.0 / 3.0), rel=1e-10
    )
    # E exp(|g|/t) = 2 at t = 1.372494991910347
    assert RowDistribution("gaussian").psi_norm(1).value == pytest.approx(
        1.372494991910347, rel=1e-9
    )
    # uniform[-1,1]: (e^r - 1)/r = 2 at r = 1.2564312086264484
    assert RowDistribution("uniform").psi_norm(1).value == pytest.approx(
        1.0 / 1.2564312086264484, rel=1e-9
    )
    # uniform[-1,1]: sqrt(pi) erfi(r) / (2r) = 2 at r = 1.2941502727707532
    assert RowDistribution("uniform").psi_norm(2).value == pytest.approx(
        1.0 / 1.2941502727707532, rel=1e-9
    )


def _brentq_roots():
    """The three unit-scale roots solved with brentq from the equations,
    brackets and tolerances stated beside the constants in processes.py."""
    from scipy import optimize, special, stats

    t = optimize.brentq(lambda t: 0.5 / t**2 + stats.norm.logcdf(1.0 / t),
                        0.3, 30.0, xtol=1e-13, rtol=1e-14)
    r1 = optimize.brentq(lambda r: math.expm1(r) / r - 2.0,
                         1e-8, 10.0, xtol=1e-13, rtol=1e-14)
    r2 = optimize.brentq(lambda r: math.sqrt(math.pi) * special.erfi(r) / (2.0 * r) - 2.0,
                         1e-8, 10.0, xtol=1e-13, rtol=1e-14)
    return t, r1, r2


def test_stored_psi_norm_roots_equal_their_brentq_solves():
    t, r1, r2 = _brentq_roots()
    assert processes.GAUSSIAN_PSI1_T == t
    assert processes.UNIFORM_PSI1_R == r1
    assert processes.UNIFORM_PSI2_R == r2


@pytest.mark.parametrize("scale", [1.0, -2.5, 0.3, 1e-12, 7e8, 0.0])
def test_psi_norm_bit_equal_to_solved_reference(scale):
    t, r1, r2 = _brentq_roots()
    s = abs(scale)
    reference = {
        ("rademacher", 1): s / LOG2, ("rademacher", 2): s / LOG2**0.5,
        ("constant", 1): s / LOG2, ("constant", 2): s / LOG2**0.5,
        ("gaussian", 1): s * t, ("gaussian", 2): s * math.sqrt(8.0 / 3.0),
        ("uniform", 1): s / r1, ("uniform", 2): s / r2,
    }
    for (name, alpha), value in reference.items():
        norm = RowDistribution(name, scale=scale).psi_norm(alpha)
        assert norm.value == value, (name, alpha)
        assert (norm.alpha, norm.source) == (alpha, "analytic")


def test_psi_norm_scales_with_parameter():
    base = RowDistribution("gaussian").psi_norm(2).value
    assert RowDistribution("gaussian", scale=2.5).psi_norm(2).value == pytest.approx(
        2.5 * base
    )
    with pytest.raises(UnsupportedFamilyError):
        RowDistribution("gaussian").psi_norm(3)


def test_psi_norms_match_empirical_defining_condition():
    # The analytic values must make E psi(|X|/t) = 1 hold on large samples.
    rng = np.random.default_rng(123)
    for name, alpha in (("gaussian", 1), ("uniform", 1), ("uniform", 2)):
        d = RowDistribution(name)
        t = d.psi_norm(alpha).value
        x = np.abs(d.sample(rng, 400_000))
        mean = np.mean(np.expm1((x / t) ** alpha))
        assert mean == pytest.approx(1.0, abs=0.02)


def test_sampling_matches_moments():
    rng = np.random.default_rng(0)
    for name in ("rademacher", "gaussian", "uniform"):
        d = RowDistribution(name, scale=1.5)
        x = d.sample(rng, 200_000)
        assert np.mean(x) == pytest.approx(0.0, abs=0.02)
        assert np.mean(x**2) == pytest.approx(d.second_moment(), rel=0.03)
    c = RowDistribution("constant", scale=2.0).sample(rng, 10)
    assert np.all(c == 2.0)


# ---------------------------------------------------------- models


def test_gaussian_model_validation():
    gaussian_model(np.eye(3))
    with pytest.raises(ModelError):
        gaussian_model(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PSD
    with pytest.raises(ModelError):
        gaussian_model(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric


def test_gaussian_model_checks_a_covariance_near_the_float_max():
    # cov + cov.T overflowed: this indefinite matrix passed, and that diagonal
    # one summed to inf
    with pytest.raises(ModelError, match="not positive semidefinite"):
        gaussian_model(np.array([[1e308, 1e308], [1e308, -1e308]]))
    gaussian_model(np.array([[1.7e308, 0.0], [0.0, 1.7e308]]))


def test_gaussian_canonical_metric():
    rho = 0.6
    model = gaussian_model(np.array([[1.0, rho], [rho, 1.0]]))
    sp = canonical_metric(model)
    assert sp.dist[0, 1] == pytest.approx(math.sqrt(2.0 - 2.0 * rho))


def test_martingale_model_and_metric():
    coeffs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    model = martingale_model(coeffs)
    sp = canonical_metric(model)
    assert sp.dist[0, 1] == pytest.approx(math.sqrt(2.0))
    assert sp.dist[0, 2] == pytest.approx(1.0)
    np.testing.assert_allclose(model.step_bounds, np.abs(coeffs))


def test_martingale_custom_step_bounds_checked():
    # the violation surfaces when simulating, naming the offending entry
    model = martingale_model(np.array([[2.0, 0.0]]), step_bounds=[[1.0, 1.0]])
    with pytest.raises(ModelError):
        simulate_martingale_family(model, 10, 0)


def test_labels_default_and_distinct():
    model = martingale_model(np.eye(2))
    assert model.labels == ("t0", "t1")
    with pytest.raises(ModelError):
        martingale_model(np.eye(2), labels=("a", "a"))


def test_squares_canonical_metric_uses_psi2():
    base = RowDistribution("rademacher")
    model = squares_model(np.array([[1.0, 0.0], [0.0, 2.0]]), base)
    sp = canonical_metric(model)
    # Chebyshev distance 2 scaled by the base psi_2 norm
    assert sp.dist[0, 1] == pytest.approx(2.0 / math.sqrt(LOG2))


def test_empirical_canonical_metric_unsupported():
    model = empirical_model(np.eye(2), RowDistribution("rademacher"))
    with pytest.raises(UnsupportedFamilyError, match="mixed_metrics"):
        canonical_metric(model)


def test_mixed_metrics_values():
    base = RowDistribution("rademacher")  # psi_1 norm = 1/log 2
    model = empirical_model(np.array([[1.0, 0.0], [0.0, 1.0]]), base)
    mm = mixed_metrics(model)
    psi1 = 1.0 / LOG2
    assert mm.d1.dist[0, 1] == pytest.approx(psi1)
    assert mm.d2.dist[0, 1] == pytest.approx(psi1)  # rms of (psi1, psi1)
    assert mm.d1.labels == model.labels


def broadcast_canonical_metric(model):
    """The (n, n, m) broadcast formulas canonical_metric used before the pairwise kernel."""
    c = model.coefficients
    if model.kind == "martingale-family":
        d = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2)
    else:
        d = np.abs(c[:, None, :] - c[None, :, :]).max(axis=2) * model.base.psi_norm(2).value
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def broadcast_mixed_metrics(model):
    """The (n, n, m) broadcast formulas mixed_metrics used before the pairwise kernel."""
    c = model.coefficients
    diff = np.abs(c[:, None, :] - c[None, :, :]) * model.base.psi_norm(1).value
    d1 = diff.max(axis=2)
    d2 = np.sqrt((diff**2).mean(axis=2))
    for d in (d1, d2):
        np.fill_diagonal(d, 0.0)
    return d1, d2


@st.composite
def coefficient_models(draw):
    """1, 2 or 3-25 coefficient rows of 1-12 columns at scales 1e-300..1e150."""
    n = draw(st.sampled_from([1, 2, draw(st.integers(3, 25))]))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        c = rng.integers(-2, 3, size=(n, m)).astype(float)  # ties and duplicate rows
    else:
        c = rng.normal(size=(n, m))
    base = RowDistribution(draw(st.sampled_from(["rademacher", "gaussian", "uniform"])))
    return c * 10.0 ** draw(st.integers(-300, 150)), base


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@given(coefficient_models(), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_kernel_metrics_equal_the_broadcasts(cb, block):
    c, base = cb
    # small budgets run the kernel over row blocks and column blocks
    with mock.patch.object(errors, "_BLOCK_ENTRIES", block):
        spaces = [canonical_metric(martingale_model(c)), canonical_metric(squares_model(c, base))]
        mixed = mixed_metrics(empirical_model(c, base))
    refs = [broadcast_canonical_metric(martingale_model(c)),
            broadcast_canonical_metric(squares_model(c, base))]
    for space, ref in zip(spaces, refs):
        assert same_bits(space.dist, ref)
    for space, ref in zip((mixed.d1, mixed.d2), broadcast_mixed_metrics(empirical_model(c, base))):
        assert same_bits(space.dist, ref)


def test_kernel_metrics_hold_no_n_by_n_by_m_array():
    c = np.random.default_rng(5).normal(size=(400, 100))
    base = RowDistribution("gaussian")
    models = (martingale_model(c), squares_model(c, base), empirical_model(c, base))
    for model, build in zip(models, (canonical_metric, canonical_metric, mixed_metrics)):
        tracemalloc.start()
        try:
            build(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (400, 400, 100) float64 broadcast alone is 128 MB
        assert peak < 20 * 2**20, (model.kind, peak)


@pytest.mark.parametrize("kind", ["martingale", "squares", "empirical"])
def test_kernel_metrics_check_the_point_cap_first(kind):
    c = np.zeros((metric.MAX_POINTS + 1, 1))
    base = RowDistribution("rademacher")
    model, build = {
        "martingale": (martingale_model(c), canonical_metric),
        "squares": (squares_model(c, base), canonical_metric),
        "empirical": (empirical_model(c, base), mixed_metrics),
    }[kind]
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"got {metric.MAX_POINTS + 1}"):
            build(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one n x n array would be 200 MB


def test_squares_metric_accepts_distances_above_half_the_float_range():
    # 2 * 1.2e308 overflows: the old 0.5 * (d + d.T) symmetrization rejected this model
    model = squares_model([[0.0], [1e308]], RowDistribution("rademacher"))
    space = canonical_metric(model)
    assert space.diameter() == 1e308 * model.base.psi_norm(2).value
    assert f"{space.diameter():.4e}" == "1.2011e+308"


def test_overflowing_martingale_metric_names_its_pair():
    model = martingale_model([[0.0], [1e308], [2.0]])
    with pytest.raises(MetricValidationError,
                       match="l2 distance between points 0 and 1 overflows the float range"):
        canonical_metric(model)


def test_empirical_parameters():
    base = RowDistribution("rademacher")
    model = empirical_model(np.array([[1.0, 1.0], [2.0, 0.0]]), base)
    sigma, K = empirical_parameters(model)
    psi1 = 1.0 / LOG2
    assert K == pytest.approx(2.0 * psi1)
    assert sigma == pytest.approx(max(math.sqrt((1 + 1) / 2), math.sqrt(4.0 / 2)) * psi1)


# ---------------------------------------------------------- simulators


def test_replication_rng_reproducible_streams():
    a = replication_rng(42, 7).standard_normal(5)
    b = replication_rng(42, 7).standard_normal(5)
    c = replication_rng(42, 8).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("rep, message", [
    (-1, "rep must be >= 0 and <= 9223372036854775807, got -1"),
    (1.5, "rep must be an integer, got 1.5"),
    (2**64 - 2, "rep must be >= 0 and <= 9223372036854775807, got 18446744073709551614"),
    (2**64, "rep must be >= 0 and <= 9223372036854775807, got 18446744073709551616"),
])
def test_replication_rng_rejects_a_bad_rep(rep, message):
    # a negative rep used to wrap the counter, and a huge one to warn or overflow
    with pytest.raises(DomainError, match=re.escape(message)):
        replication_rng(1, rep)


def test_replication_rng_takes_reps_up_to_its_stated_limit():
    assert replication_rng(1, 2**63 - 1).standard_normal(3).shape == (3,)
    a = replication_rng(1, 7).standard_normal(3)
    np.testing.assert_array_equal(a, replication_rng(1, np.int64(7)).standard_normal(3))
    np.testing.assert_array_equal(a, replication_rng(1, 7.0).standard_normal(3))


def test_simulate_gaussian_deterministic():
    model = gaussian_model(np.eye(3))
    s1 = simulate_gaussian(model, 50, 9)
    s2 = simulate_gaussian(model, 50, 9)
    np.testing.assert_array_equal(s1.values, s2.values)
    assert s1.seed == 9 and s1.replications == 50


def test_simulate_gaussian_absolute_moment():
    # Single extra point with variance 2 against base point 0 at variance 0:
    # E|X| = sqrt(2) * sqrt(2/pi) = 2/sqrt(pi) = 1.1283791670955126.
    cov = np.array([[0.0, 0.0], [0.0, 2.0]])
    model = gaussian_model(cov)
    s = simulate_gaussian(model, 200_000, 31, base_point=0)
    se = s.values.std() / math.sqrt(s.values.size)
    assert abs(s.values.mean() - 2.0 / math.sqrt(math.pi)) < 4 * se


def test_simulate_gaussian_raw_vs_anchored():
    model = gaussian_model(np.eye(2))
    raw = simulate_gaussian(model, 100, 3, base_point=None)
    anchored = simulate_gaussian(model, 100, 3, base_point=0)
    assert raw.base_point is None
    assert anchored.base_point == "t0"
    # anchored sup over {X_t - X_0} differs from the raw sup of |X_t|
    assert not np.array_equal(raw.values, anchored.values)


def test_simulate_martingale_rejects_violated_steps():
    model = martingale_model(np.array([[1.0, 1.0]]))
    object.__setattr__(model, "coefficients", np.array([[5.0, 1.0]]))
    with pytest.raises(ModelError):
        simulate_martingale_family(model, 10, 0)


def test_simulate_empirical_centered_mean():
    base = RowDistribution("rademacher")
    model = empirical_model(np.array([[1.0, 1.0]]), base)
    s = simulate_empirical(model, 2, 20_000, 11)
    # |(e1 + e2)/2| is 0 or 1 with probability 1/2 each
    vals = np.unique(np.round(s.values, 12))
    assert set(vals) <= {0.0, 1.0}
    assert np.mean(s.values) == pytest.approx(0.5, abs=0.02)


def test_simulate_empirical_m_mismatch():
    model = empirical_model(np.eye(3), RowDistribution("rademacher"))
    with pytest.raises(DomainError):
        simulate_empirical(model, 2, 10, 0)


def test_simulate_squares_variance():
    # Single point, all-ones coefficients, standard normal base:
    # A_t = mean(g_i^2 - 1) has variance 2/m.
    m = 8
    model = squares_model(np.ones((1, m)), RowDistribution("gaussian"))
    s = simulate_squares(model, m, 100_000, 5)
    second = np.mean(s.values**2)
    assert second == pytest.approx(2.0 / m, rel=0.05)


def test_simulate_squares_increment_concentrates():
    base = RowDistribution("gaussian")
    model = squares_model(np.array([[1.0, 1.0], [0.0, 0.0]]), base)
    s = simulate_squares_increment(model, "t0", "t1", 2, 50_000, 13)
    # increment is sqrt(mean of (g_i)^2): second moment is exactly 1
    assert np.mean(s.values**2) == pytest.approx(1.0, rel=0.02)


def test_simulate_chaos_identity_is_degenerate():
    # e^T I e - tr(I) = 0 for unit signs
    s = simulate_chaos([np.eye(3)], RowDistribution("rademacher"), 50, 2)
    np.testing.assert_allclose(s.values, 0.0, atol=1e-12)


@pytest.mark.parametrize("decoupled, family, term", [
    (False, [np.eye(2), [[1e200, 1e200], [0.0, 0.0]]],
     "chaos statistics of matrices[1] by row must be finite, got inf at entry [0]"),
    (True, [np.diag([1e200, 1.0]), np.eye(2)],
     "chaos Gram matrices matrices[k]^H matrices[k] must be finite, got (inf+0j) at "
     "entry [0, 0, 0]"),
], ids=["plain", "decoupled"])
def test_a_chaos_term_past_the_float_range_is_refused_by_its_matrix(decoupled, family, term):
    # such terms made inf - inf = NaN, with RuntimeWarnings, and the sample was
    # refused as "values must be finite and >= 0, got nan at entry [0]"; the
    # plain statistic of [[a, a], [0, 0]] is 2 a^2 = 2e400 at equal signs
    with pytest.raises(DomainError, match=f"^{re.escape(term)}$"):
        simulate_chaos(family, RowDistribution("rademacher"), 10, 1, decoupled=decoupled)
    with pytest.raises(DomainError, match=f"^{re.escape(term)}$"):
        exact_chaos_distribution(family, decoupled=decoupled)


@pytest.mark.parametrize("family, value", [
    ([np.diag([1e200, 1.0]), np.eye(2)], 0.0),  # ||A x||^2 = ||A||_F^2 = 1e400 + 1 at every x
    ([[[8e153, 8e153]]], 1.28e308),  # |4 a^2 - 2 a^2| or |0 - 2 a^2|: the products overflowed
])
def test_a_plain_chaos_statistic_within_the_float_range_is_computed(family, value):
    # the centring term or the products overflowed, and the family was refused
    law = exact_chaos_distribution(family)
    sample = simulate_chaos(family, RowDistribution("rademacher"), 10, 1).values
    for values in (law, sample):
        np.testing.assert_allclose(values, value, rtol=1e-15)


def _exact_chaos(x, a, s2):
    """| ||a x||^2 - s2 ||a||_F^2 | for each row x, in exact rational arithmetic."""
    a = [[Fraction(float(v)) for v in row] for row in a]
    frob = s2 * sum(v * v for row in a for v in row)
    return [abs(sum(sum(v * Fraction(float(t)) for v, t in zip(row, r)) ** 2 for row in a)
                - frob) for r in x]


@pytest.mark.parametrize("seed", range(8))
def test_only_a_chaos_matrix_past_the_float_range_is_rescaled(seed):
    # a matrix whose terms the formula computes finite keeps its bits; one whose
    # terms overflow is computed again, close to the exact value, or refused by
    # its index where that value passes the float range
    rng = np.random.default_rng(seed)
    k, m, n = (int(v) for v in rng.integers(1, [4, 4, 5]))
    stack = rng.standard_normal((k, m, n)) * 10.0 ** rng.uniform(0, 250, (k, 1, 1))
    diagonal = rng.random(k) < 0.5  # statistic 0 under signs, whatever its terms
    stack[diagonal] *= np.eye(m, n)
    scale = 2.0 ** int(rng.integers(-3, 4))
    x, s2 = scale * sign_patterns(n), scale**2
    with np.errstate(over="ignore", invalid="ignore"):
        means = s2 * (np.abs(stack).reshape(k, -1) ** 2).sum(axis=1)
        q = (np.abs(np.einsum("kmn,rn->rkm", stack, x)) ** 2).sum(axis=2)
        formula = np.abs(q - means)  # the statistic as written, matrix by matrix
    for j, a in enumerate(stack):
        if np.isfinite(formula[:, j]).all():
            assert processes._chaos_sup(x, a[None], s2).tobytes() == formula[:, j].tobytes()
            continue
        exact = _exact_chaos(x, a, Fraction(s2))
        if max(exact) > sys.float_info.max:
            with pytest.raises(DomainError, match=r"^chaos statistics of matrices\[0\]"):
                processes._chaos_sup(x, a[None], s2)
            continue
        # the float error is relative to the two terms, which may cancel:
        # ||(|a| |x|)||^2 + s2 ||a||_F^2 bounds their sum
        terms = _exact_chaos(np.abs(x), np.abs(a), -Fraction(s2))
        got = processes._chaos_sup(x, a[None], s2)
        tol = Fraction(1, 10**13)
        assert all(abs(Fraction(float(g)) - e) <= tol * t for g, e, t in zip(got, exact, terms))


@pytest.mark.parametrize("k, m, n", [(1, 20000, 8), (3, 700, 5), (2, 3, 4)])
def test_chaos_statistic_in_row_chunks_is_bit_identical(monkeypatch, k, m, n):
    rng = np.random.default_rng(m)
    stack = rng.normal(size=(k, m, n)) + 1j * rng.normal(size=(k, m, n))
    x = rng.choice([-1.0, 1.0], size=(50, n))
    means = (np.abs(stack).reshape(k, -1) ** 2).sum(axis=1)
    q = (np.abs(np.einsum("kmn,rn->rkm", stack, x)) ** 2).sum(axis=2)
    one_shot = np.abs(q - means).max(axis=1)
    for rows in (1, 7, 50):  # 50, 8 and 1 chunks
        monkeypatch.setattr(errors, "_BLOCK_ENTRIES", rows * k * m)
        assert processes._chaos_sup(x, stack, 1.0).tobytes() == one_shot.tobytes()
    monkeypatch.setattr(errors, "_BLOCK_ENTRIES", k * m - 1)  # still one row at a time
    assert processes._chaos_sup(x, stack, 1.0).tobytes() == one_shot.tobytes()


def test_simulate_chaos_on_a_tall_matrix_stays_within_the_budget(monkeypatch):
    # One block of 1024 replications against a 20000 x 8 matrix held a
    # (1024, 1, 20000) complex table, 328 MB; a 20000-entry row passes
    # _BLOCK_ENTRIES // 2, so the rows go through one at a time.
    tall = np.random.default_rng(3).normal(size=(20000, 8))
    assert 20000 > errors._BLOCK_ENTRIES // 2
    xi = RowDistribution("rademacher")
    simulate_chaos([tall[:4]], xi, 10, 1)  # warm up imports and caches
    tracemalloc.start()
    try:
        sample = simulate_chaos([tall], xi, 10, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20 and sample.replications == 10
    family = list(tall[:2100].reshape(3, 700, 8))
    chunked = simulate_chaos(family, xi, 1500, 2).values  # 15 rows of 2100 entries at a time
    monkeypatch.setattr(errors, "_BLOCK_ENTRIES", errors._TABLE_BUDGET)  # a whole block of rows
    assert chunked.tobytes() == simulate_chaos(family, xi, 1500, 2).values.tobytes()


def test_simulate_chaos_rejects_nonzero_mean():
    with pytest.raises(ModelError):
        simulate_chaos([np.eye(2)], RowDistribution("constant"), 10, 0)


def test_supremum_sample_validation():
    with pytest.raises(ModelError):
        SupremumSample(replications=3, seed=0, values=np.array([1.0, 2.0]))
    with pytest.raises(ModelError):
        SupremumSample(replications=2, seed=0, values=np.array([1.0, -2.0]))


# ---------------------------------------------------------- declared bounds


@pytest.mark.parametrize("seed", range(4))
def test_each_declared_bound_covers_its_models_exact_law(seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(5, 7))
    scale = float(rng.uniform(0.5, 2.0))
    # max_t sum |c_tk| is attained by the signs of row t, so the two sums
    # over signs meet their bound to rounding
    mart = martingale_model(c)
    law = exact_martingale_distribution(mart)
    bound = simulate_martingale_family(mart, 1, seed).value_bound
    assert law.max() <= bound <= law.max() * (1 + 1e-8)
    signs = empirical_model(c, RowDistribution("rademacher", scale))
    law = exact_empirical_distribution(signs)
    bound = simulate_empirical(signs, 7, 1, seed).value_bound
    assert law.max() <= bound <= law.max() * (1 + 1e-8)
    # over the cube [-scale, scale]^m the convex |sum_i c_ti z_i| peaks at a sign vertex
    cube = empirical_model(c, RowDistribution("uniform", scale))
    assert simulate_empirical(cube, 7, 1, seed).value_bound == bound
    mats = list(rng.normal(size=(3, 4, 5)))
    for decoupled in (False, True):
        law = exact_chaos_distribution(mats, decoupled=decoupled)
        sample = simulate_chaos(mats, RowDistribution("rademacher"), 1, seed, decoupled=decoupled)
        assert law.max() <= sample.value_bound


def test_the_squares_bound_is_the_statistic_at_a_vertex():
    c = np.random.default_rng(2).normal(size=(4, 6))
    c2 = c**2
    # uniform z: the statistic peaks where every |z_i| = scale, at max_t mean_i c_ti^2 (2/3) scale^2
    model = squares_model(c, RowDistribution("uniform", 1.5))
    peak = float((c2.mean(axis=1) * (2.25 - 0.75)).max())
    bound = simulate_squares(model, 6, 50, 1).value_bound
    assert peak <= bound <= peak * (1 + 1e-8)
    # signs and constants: z^2 is the second moment, so the statistic is 0 up to rounding
    for name in ("rademacher", "constant"):
        sample = simulate_squares(squares_model(c, RowDistribution(name, 1.5)), 6, 50, 1)
        assert sample.value_bound <= 1e-8 * float(c2.mean(axis=1).max())


def test_the_increment_bound_is_attained_at_a_vertex():
    c = np.random.default_rng(4).normal(size=(3, 6))
    # every |z_i| = scale gives the largest L2(mu_m) norm, scale (mean_i dc_i^2)^(1/2)
    for name in ("rademacher", "uniform"):
        model = squares_model(c, RowDistribution(name, 2.0))
        peak = 2.0 * float(np.sqrt(((c[2] - c[0]) ** 2).mean()))
        bound = simulate_squares_increment(model, 0, 2, 6, 50, 1).value_bound
        assert peak <= bound <= peak * (1 + 1e-8)


def test_gaussian_drivers_declare_no_bound():
    c = np.random.default_rng(3).normal(size=(3, 4))
    g = RowDistribution("gaussian")
    mats = [np.eye(2), np.ones((2, 2))]
    samples = [
        simulate_gaussian(gaussian_model(np.eye(3)), 10, 1),
        simulate_empirical(empirical_model(c, g), 4, 10, 1),
        simulate_squares(squares_model(c, g), 4, 10, 1),
        simulate_squares_increment(squares_model(c, g), 0, 1, 4, 10, 1),
        simulate_chaos(mats, g, 10, 1),
        simulate_chaos(mats, g, 10, 1, decoupled=True),
    ]
    assert [s.value_bound for s in samples] == [None] * len(samples)
    # each declares its tail envelope instead
    assert all(isinstance(s.tail_envelope, processes._TailEnvelope) for s in samples)


def test_a_bound_past_the_float_range_is_not_declared():
    # ||A||_op^2 n a^2 = 2.56e308: the chaos sample keeps its values and declares no bound
    sample = simulate_chaos([[[8e153, 8e153]]], RowDistribution("rademacher"), 10, 1)
    assert sample.values.max() == 1.28e308 and sample.value_bound is None


def test_a_wrong_bound_fails_loudly(monkeypatch):
    with pytest.raises(ModelError, match=r"values must be <= the model's bound 1\.5, got 2\.0 "
                                         r"at entry \[1\]"):
        SupremumSample(replications=3, seed=0, values=np.array([1.0, 2.0, 0.5]), value_bound=1.5)
    with pytest.raises(DomainError, match="value_bound must be finite and >= 0"):
        SupremumSample(replications=1, seed=0, values=np.array([0.0]), value_bound=math.nan)
    # a simulator whose bound undercuts its statistic by more than the slack
    monkeypatch.setattr(processes, "_largest_row_sum", lambda a: 0.5 * float(a.sum(axis=1).max()))
    with pytest.raises(ModelError, match="values must be <= the model's bound"):
        simulate_martingale_family(martingale_model([[1.0, 1.0, 1.0]]), 50, 1)


# name -> simulate(reps, seed) of a Gaussian-driven model (fixtures below)
_ENVELOPE_CASES = {
    "gaussian": lambda r, s: simulate_gaussian(gaussian_model(_COV), r, s, base_point=2),
    "gaussian-raw": lambda r, s: simulate_gaussian(gaussian_model(_COV), r, s, base_point=None),
    "gaussian-point": lambda r, s: simulate_gaussian(gaussian_model([[4.0]]), r, s,
                                                     base_point=None),
    "empirical": lambda r, s: simulate_empirical(empirical_model(_COEF, _GAUSS), 6, r, s),
    "squares": lambda r, s: simulate_squares(squares_model(_COEF, _GAUSS), 6, r, s),
    "squares-increment": lambda r, s: simulate_squares_increment(
        squares_model(_COEF, _GAUSS), 1, 3, 6, r, s),
    "chaos": lambda r, s: simulate_chaos(_MATS, _GAUSS, r, s),
    "chaos-decoupled": lambda r, s: simulate_chaos(_MATS, _GAUSS, r, s, decoupled=True),
    "chaos-decoupled-real": lambda r, s: simulate_chaos([a.real for a in _MATS], _GAUSS, r, s,
                                                        decoupled=True),
}
_QUANTILES = (0.5, 0.9, 0.99, 0.999, 0.9999)


def _envelope_at(sample, y: float) -> float:
    return float(np.exp(validation._log_sum_exp(sample.tail_envelope.log_tail(np.array([y])))[0]))


def _dominated_quantiles(sample) -> list[bool]:
    """At each sample quantile y: whether tau(y) is at least the one-sided
    Clopper-Pearson lower bound on P(sup > y), so not refuted by the sample."""
    n = sample.values.size
    return [validation.exceedance_lower_bound(int(np.count_nonzero(sample.values > y)), n)
            <= _envelope_at(sample, y) for y in np.quantile(sample.values, _QUANTILES)]


@pytest.mark.parametrize("name", sorted(_ENVELOPE_CASES))
def test_each_declared_envelope_dominates_its_empirical_tail(name):
    sample = _ENVELOPE_CASES[name](10**6, 2024)
    assert sample.value_bound is None
    assert _dominated_quantiles(sample) == [True] * len(_QUANTILES)


def test_the_gaussian_envelope_is_the_exact_tail_on_one_point():
    # P(|N(0, 4)| > y) = erfc(y / (2 sqrt 2)), so half of it is refuted at every quantile
    sample = _ENVELOPE_CASES["gaussian-point"](10**6, 2024)
    for y in (0.0, 1.0, 3.0, 8.0):
        assert _envelope_at(sample, y) == pytest.approx(math.erfc(y / (2.0 * math.sqrt(2.0))),
                                                        rel=1e-14)
    half = processes._TailEnvelope(sample.tail_envelope.l2 / 2.0)  # a narrower law: a smaller tail
    wrong = SupremumSample(replications=sample.replications, seed=2024, values=sample.values,
                           tail_envelope=half)
    assert _dominated_quantiles(wrong) == [False] * len(_QUANTILES)


def test_envelope_terms_match_their_closed_forms():
    # decoupled real chaos: singular values of A^T A at +-1/2; complex: real and
    # imaginary parts, each at y / sqrt 2
    mats = [a.real for a in _MATS]
    env = simulate_chaos(mats, _GAUSS, 1, 1, decoupled=True).tail_envelope
    s2 = _GAUSS.second_moment()
    sv = np.linalg.svd(np.stack([a.T @ a for a in mats]), compute_uv=False)
    np.testing.assert_allclose(env.l2, s2 * np.sqrt((sv**2).sum(axis=1) / 2.0), rtol=1e-13)
    np.testing.assert_allclose(env.linf, s2 * sv.max(axis=1) / 2.0, rtol=1e-13)
    assert (env.split, env.sides, env.power) == (1.0, 2, 1)
    env = simulate_chaos(_MATS, _GAUSS, 1, 1, decoupled=True).tail_envelope
    assert env.l2.size == 3 and env.split == math.sqrt(2.0)  # the real matrix has no imaginary term
    # plain chaos: the eigenvalues of Re(A^H A)
    env = simulate_chaos(_MATS, _GAUSS, 1, 1).tail_envelope
    eig = [np.clip(np.linalg.eigvalsh(g.real), 0.0, None) for g in _GRAMS]
    np.testing.assert_allclose(env.l2, [s2 * np.sqrt((e**2).sum()) for e in eig], rtol=1e-12)
    np.testing.assert_allclose(env.linf, [s2 * e.max() for e in eig], rtol=1e-12)
    # the increment: one upper tail of sum_i a_i g_i^2 - sum_i a_i, read at y^2
    env = simulate_squares_increment(squares_model(_COEF, _GAUSS), 1, 3, 6, 1, 1).tail_envelope
    a = s2 * (_COEF[3] - _COEF[1]) ** 2 / 6
    assert (env.sides, env.power, env.shift) == (1, 2, pytest.approx(a.sum(), rel=1e-15))
    assert env.l2 == pytest.approx([np.sqrt((a**2).sum())], rel=1e-15)
    # every envelope term holds a nonzero variable
    zero = simulate_gaussian(gaussian_model(np.zeros((2, 2))), 3, 1).tail_envelope
    assert zero.l2.size == 0


def test_an_envelope_past_the_float_range_is_not_declared():
    # as with a bound, a sample then declares neither, and its moments are refused
    assert processes._envelope(np.array([1.0, np.inf])) is None
    assert processes._chi2_envelope(np.array([[1.0, 2.0], [np.inf, 0.0]])) is None
    assert processes._chi2_envelope(np.array([[1.0]]), sides=1, power=2, shift=np.inf) is None
    assert processes._chi2_envelope(np.array([[1.0, 0.0], [0.0, 0.0]])).l2.size == 1


def test_a_sample_declares_a_bound_or_an_envelope_not_both():
    env = simulate_gaussian(gaussian_model([[1.0]]), 3, 1).tail_envelope
    with pytest.raises(ModelError, match="a value_bound or a tail_envelope, not both"):
        SupremumSample(replications=1, seed=0, values=np.array([1.0]), value_bound=2.0,
                       tail_envelope=env)
    with pytest.raises(ModelError, match="tail_envelope must be a _TailEnvelope, got float"):
        SupremumSample(replications=1, seed=0, values=np.array([1.0]), tail_envelope=2.0)


# ---------------------------------------------------------- exact laws


def test_sign_patterns_shape_and_cap():
    pats = sign_patterns(3)
    assert pats.shape == (8, 3)
    assert set(np.unique(pats)) == {-1, 1}
    assert len({tuple(r) for r in pats}) == 8
    # the table budget alone refuses: 17 x 2^17 entries fit 2^22, 18 x 2^18 do not
    assert 17 << 17 <= errors._TABLE_BUDGET < 18 << 18
    with pytest.raises(CapacityError, match="n = 18 signs need a 2\\^n x 18 table"):
        sign_patterns(18)


def test_exact_martingale_distribution():
    model = martingale_model(np.array([[1.0, 1.0]]))
    vals = exact_martingale_distribution(model)
    # |e1 + e2| over the four sign patterns: 2, 0, 0, 2
    assert sorted(vals.tolist()) == [0.0, 0.0, 2.0, 2.0]


def test_exact_empirical_distribution():
    model = empirical_model(np.array([[1.0, 1.0]]), RowDistribution("rademacher"))
    vals = exact_empirical_distribution(model)
    assert sorted(vals.tolist()) == [0.0, 0.0, 1.0, 1.0]
    gauss = empirical_model(np.eye(2), RowDistribution("gaussian"))
    with pytest.raises(UnsupportedFamilyError):
        exact_empirical_distribution(gauss)


def test_exact_chaos_distribution():
    # The chaos statistic is ||A e||^2 - ||A||_F^2 = e^T (A^H A) e - tr(A^H A).
    # For A = [[1,1],[0,0]]: ||A e||^2 = (e1+e2)^2 = 2 + 2 e1 e2, so the
    # centered absolute value is 2 for every sign pattern.
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    vals = exact_chaos_distribution([a])
    np.testing.assert_allclose(vals, 2.0)


def test_exact_chaos_decoupled_distribution():
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    vals = exact_chaos_distribution([a], decoupled=True)
    assert vals.shape == (16,)  # 2^(2n) sign pairs
    # Gram is [[1,1],[1,1]]: e.(G e') = (e1+e2)(e1'+e2') lies in {0, +-4}
    assert sorted(set(np.round(vals, 12))) == [0.0, 4.0]


# The formulas each exact law and its simulator computed before they shared
# one statistic, kept as the reference they must match bit for bit.
def _signs(n):
    return 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1) - 1.0


def _martingale_formula(signs, c):
    return np.abs(signs @ c.T).max(axis=1)


def _empirical_formula(z, mu, c):
    return np.abs((z - mu) @ c.T).max(axis=1) / c.shape[1]


def _chaos_law_formula(stack):
    q = (np.abs(np.einsum("kmn,an->kam", stack, _signs(stack.shape[2]))) ** 2).sum(axis=2)
    fro2 = (np.abs(stack).reshape(stack.shape[0], -1) ** 2).sum(axis=1)
    return np.abs(q - fro2[:, None]).max(axis=0)


def _chaos_sim_formula(x, stack, s2):
    means = s2 * (np.abs(stack).reshape(stack.shape[0], -1) ** 2).sum(axis=1)
    q = (np.abs(np.einsum("kmn,rn->rkm", stack, x)) ** 2).sum(axis=2)
    return np.abs(q - means).max(axis=1)


def _decoupled_law_formula(stack):
    signs = _signs(stack.shape[2])
    grams = np.einsum("kmi,kmj->kij", stack.conj(), stack)
    return np.abs(np.einsum("ai,kij,bj->kab", signs, grams, signs)).max(axis=0).ravel()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.integers(1, 19),
    st.floats(-5.0, 4.0),
    st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    st.sampled_from(["rademacher", "gaussian", "uniform", "constant"]),
    st.booleans(),
)
def test_exact_laws_and_simulators_keep_their_formulas(seed, n, rows, log_scale, rad, family,
                                                       complex_entries):
    rng = np.random.default_rng(seed)
    c = 10.0**log_scale * rng.normal(size=(rows, n))
    reps = int(rng.integers(1, BLOCK + 1))  # one block: block 0 of the seed's streams

    def block(draw):
        return draw(replication_rng(seed, 0))

    model = martingale_model(c)
    assert np.array_equal(exact_martingale_distribution(model), _martingale_formula(_signs(n), c))
    eps = block(lambda g: 2.0 * g.integers(0, 2, (BLOCK, n)) - 1.0)
    assert np.array_equal(simulate_martingale_family(model, reps, seed).values,
                          _martingale_formula(eps, c)[:reps])

    law = exact_empirical_distribution(empirical_model(c, RowDistribution("rademacher", rad)))
    assert np.array_equal(law, _empirical_formula(rad * _signs(n), 0.0, c))
    base = RowDistribution(family, rad)
    z = block(lambda g: base.sample(g, (BLOCK, n)))
    assert np.array_equal(simulate_empirical(empirical_model(c, base), n, reps, seed).values,
                          _empirical_formula(z, base.mean(), c)[:reps])

    k, m, dim = (int(v) for v in rng.integers(1, [4, 5, 7]))
    stack = 10.0**log_scale * (rng.normal(size=(k, m, dim))
                               + (1j * rng.normal(size=(k, m, dim)) if complex_entries else 0j))
    assert np.array_equal(exact_chaos_distribution(list(stack)), _chaos_law_formula(stack))
    assert np.array_equal(exact_chaos_distribution(list(stack), decoupled=True),
                          _decoupled_law_formula(stack))
    xi = RowDistribution("gaussian" if family == "constant" else family, rad or 1.0)
    x = block(lambda g: xi.sample(g, (BLOCK, dim)))
    assert np.array_equal(simulate_chaos(list(stack), xi, reps, seed).values,
                          _chaos_sim_formula(x, stack, xi.second_moment())[:reps])


def test_exact_matches_monte_carlo_frequencies():
    model = martingale_model(np.array([[1.0, 0.5], [0.5, 1.0]]))
    exact = exact_martingale_distribution(model)
    sim = simulate_martingale_family(model, 40_000, 17)
    thr = 1.0
    p_exact = float(np.mean(exact >= thr))
    p_mc = float(np.mean(sim.values >= thr))
    se = math.sqrt(p_exact * (1 - p_exact) / 40_000)
    assert abs(p_mc - p_exact) < 4 * se + 1e-9


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=20, deadline=None)
def test_seed_domain(seed):
    model = gaussian_model(np.eye(2))
    s = simulate_gaussian(model, 3, seed)
    assert s.values.shape == (3,)


def test_seed_rejected_out_of_range():
    model = gaussian_model(np.eye(2))
    with pytest.raises(DomainError):
        simulate_gaussian(model, 3, -1)
    with pytest.raises(DomainError):
        simulate_gaussian(model, 0, 1)


# ---------------------------------------------------------- stream contract
#
# Replication r is row r mod BLOCK of block r // BLOCK, and block b is drawn
# from replication_rng(seed, b).  Each case below names a simulator, the
# driver rows one block draws, and the old one-replication-at-a-time
# statistic as the reference for the vectorized one.

_RNG = np.random.default_rng(2024)
_FACTOR = _RNG.normal(size=(5, 3))
_COV = _FACTOR @ _FACTOR.T  # rank 3: a singular covariance
_W, _V = np.linalg.eigh(_COV)
_L = _V * np.sqrt(np.clip(_W, 0.0, None))  # the factor the simulator draws with
_COEF = _RNG.normal(size=(4, 6))
_MATS = [_RNG.normal(size=(2, 3)) + 1j * _RNG.normal(size=(2, 3)), _RNG.normal(size=(2, 3))]
_STACK = np.stack(_MATS)
_GRAMS = np.einsum("kmi,kmj->kij", _STACK.conj(), _STACK)
_FRO2 = (np.abs(_STACK).reshape(2, -1) ** 2).sum(axis=1)
_UNIFORM = RowDistribution("uniform", scale=1.5)
_GAUSS = RowDistribution("gaussian", scale=0.7)
_SIGNS = RowDistribution("rademacher")
_C2 = _COEF**2


def _sup_squares(z):
    sq = _C2 * (z**2)[None, :]
    return np.abs(sq.mean(axis=1) - _GAUSS.second_moment() * _C2.mean(axis=1)).max()


def _sup_decoupled(xy):
    x, y = xy[:3], xy[3:]
    return np.abs(np.einsum("i,kij,j->k", x, _GRAMS, y)).max()


def _sup_plain(x):
    q = (np.abs(np.einsum("kmn,n->km", _STACK, x)) ** 2).sum(axis=1)
    return np.abs(q - _FRO2).max()


# name -> (simulate(reps, seed), draw(rng, k), per-row reference statistic)
STREAM_CASES = {
    "gaussian": (
        lambda r, s: simulate_gaussian(gaussian_model(_COV), r, s, base_point=2),
        lambda rng, k: rng.standard_normal((k, 5)),
        lambda z: np.abs(_L @ z - (_L @ z)[2]).max(),
    ),
    "gaussian-raw": (
        lambda r, s: simulate_gaussian(gaussian_model(_COV), r, s, base_point=None),
        lambda rng, k: rng.standard_normal((k, 5)),
        lambda z: np.abs(_L @ z).max(),
    ),
    "martingale": (
        lambda r, s: simulate_martingale_family(martingale_model(_COEF), r, s),
        lambda rng, k: 2.0 * rng.integers(0, 2, (k, 6)) - 1.0,
        lambda eps: np.abs(_COEF @ eps).max(),
    ),
    "empirical": (
        lambda r, s: simulate_empirical(empirical_model(_COEF, _UNIFORM), 6, r, s),
        lambda rng, k: _UNIFORM.sample(rng, (k, 6)),
        lambda z: np.abs(_COEF @ z).max() / 6,
    ),
    "squares": (
        lambda r, s: simulate_squares(squares_model(_COEF, _GAUSS), 6, r, s),
        lambda rng, k: _GAUSS.sample(rng, (k, 6)),
        _sup_squares,
    ),
    "squares-increment": (
        lambda r, s: simulate_squares_increment(squares_model(_COEF, _UNIFORM), 1, 3, 6, r, s),
        lambda rng, k: _UNIFORM.sample(rng, (k, 6)),
        lambda z: math.sqrt((((_COEF[3] - _COEF[1]) * z) ** 2).mean()),
    ),
    "chaos": (
        lambda r, s: simulate_chaos(_MATS, _SIGNS, r, s),
        lambda rng, k: _SIGNS.sample(rng, (k, 3)),
        _sup_plain,
    ),
    "chaos-decoupled": (
        lambda r, s: simulate_chaos(_MATS, _SIGNS, r, s, decoupled=True),
        lambda rng, k: _SIGNS.sample(rng, (k, 6)),
        _sup_decoupled,
    ),
}


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_simulator_matches_per_row_reference_on_block_draws(name):
    simulate, draw, reference = STREAM_CASES[name]
    reps, seed = 2 * BLOCK + 3, 77
    rows = np.concatenate(
        [draw(replication_rng(seed, b), min(BLOCK, reps - b * BLOCK)) for b in range(3)]
    )
    expected = np.array([reference(row) for row in rows])
    np.testing.assert_allclose(simulate(reps, seed).values, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_simulator_is_deterministic_and_prefix_stable(name):
    simulate = STREAM_CASES[name][0]
    full = simulate(3 * BLOCK, 5).values
    np.testing.assert_array_equal(simulate(3 * BLOCK, 5).values, full)
    for reps in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3):
        np.testing.assert_array_equal(simulate(reps, 5).values, full[:reps])
    assert not np.array_equal(simulate(3 * BLOCK, 6).values, full)


def test_block_draw_is_a_prefix_of_a_full_block():
    # The simulators draw the final block in full and keep the rows they
    # need; those rows are the same as a draw of only those rows.
    for draw in (STREAM_CASES[k][1] for k in STREAM_CASES):
        np.testing.assert_array_equal(
            draw(replication_rng(3, 0), 7), draw(replication_rng(3, 0), BLOCK)[:7]
        )


@pytest.mark.parametrize(
    "reps, seed, named",
    [(10.5, 1, "reps"), (0, 1, "reps"), (math.inf, 1, "reps"), (True, 1, "reps"),
     (5, -1, "seed"), (5, SEED_MAX + 1, "seed"), (5, 1.5, "seed")],
)
@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_simulator_rejects_reps_and_seed_before_any_draw(monkeypatch, name, reps, seed, named):
    calls = []
    real = processes.replication_rng
    monkeypatch.setattr(processes, "replication_rng", lambda s, b: calls.append(b) or real(s, b))
    simulate = STREAM_CASES[name][0]
    with pytest.raises(DomainError, match=f"^{named} must be"):
        simulate(reps, seed)
    assert calls == []
    simulate(BLOCK + 1, 1)  # the counter sees the draws of a valid call
    assert calls == [0, 1]


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_reps_above_the_table_budget_are_refused_before_the_first_draw(monkeypatch, name):
    # the values are one kept table: reps at _TABLE_BUDGET reach the first
    # draw, and one more (or 1e308, an integral float) is refused before it
    class Drew(Exception):
        pass

    def drew(seed, block):
        raise Drew

    monkeypatch.setattr(processes, "replication_rng", drew)
    simulate, cap = STREAM_CASES[name][0], errors._TABLE_BUDGET
    with pytest.raises(Drew):
        simulate(cap, 1)
    for reps, count in ((cap + 1, cap + 1), (1e308, "at least 10^308")):
        message = f"reps: a values table of {count} entries, above the budget of {cap}"
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            simulate(reps, 1)


def test_a_bad_model_is_reported_before_a_bad_replication_count():
    bad_steps = martingale_model([[1.0, 2.0]], step_bounds=[[1.0, 1.0]])
    with pytest.raises(ModelError, match="exceeds its declared sup-norm bound"):
        simulate_martingale_family(bad_steps, 0, 1)
    with pytest.raises(DomainError, match="unknown index point"):
        simulate_gaussian(gaussian_model(np.eye(2)), 0, 1, base_point="nowhere")


@pytest.mark.parametrize("kind", ["chaos", "gaussian-process", ""])
def test_process_model_refuses_a_kind_no_builder_makes(kind):
    # chaos runs from matrices (simulate_chaos, exact_chaos_distribution), not from a model
    with pytest.raises(UnsupportedFamilyError, match=f"unknown process kind {kind!r}"):
        ProcessModel(kind=kind, labels=("a",))
    assert processes.MODEL_KINDS == ("gaussian", "martingale-family", "empirical", "squares")


_NOT_PSD = ProcessModel(kind="gaussian", labels=("a", "b"),
                        covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
_SIGNS = RowDistribution("rademacher")


@pytest.mark.parametrize("call, error, message", [
    (lambda: gaussian_model(np.eye(2), labels=["a"]), ModelError,
     "label count must match covariance size"),
    (lambda: martingale_model(np.eye(2), step_bounds=np.ones((2, 3))), ModelError,
     "step_bounds must match coefficients in shape (2, 2), got (2, 3)"),
    (lambda: empirical_model(np.eye(2), "rademacher"), ModelError,
     "base must be a RowDistribution"),
    (lambda: simulate_chaos([np.eye(2)], "rademacher", 10, 0), ModelError,
     "xi must be a RowDistribution"),
    (lambda: gaussian_model(np.eye(2)).psi_norm_matrix(2), UnsupportedFamilyError,
     "psi-norm matrices apply to empirical/squares models, not 'gaussian'"),
    (lambda: mixed_metrics(squares_model(np.eye(2), _SIGNS)), UnsupportedFamilyError,
     "mixed metrics apply to empirical models, not 'squares'"),
    (lambda: simulate_gaussian(empirical_model(np.eye(2), _SIGNS), 10, 0),
     UnsupportedFamilyError, "expected a 'gaussian' model, got 'empirical'"),
    (lambda: simulate_gaussian(_NOT_PSD, 10, 0), ModelError,
     "covariance is not positive semidefinite (min eigenvalue -1.000e+00)"),
    (lambda: gaussian_model(np.eye(2), labels=5), ModelError,
     "labels must be a list of point labels, got 5"),
    (lambda: martingale_model(np.eye(2), labels="ab"), ModelError,
     "labels must be a list of point labels, got 'ab'"),
    (lambda: squares_model(np.eye(2), _SIGNS, labels=[["a"], ["b"]]), ModelError,
     "index labels must be hashable, got ['a']"),
    (lambda: ProcessModel(kind="gaussian", labels=("a", ("b", [1]))), ModelError,
     "index labels must be hashable, got ('b', [1])"),
], ids=["label count", "step_bounds shape", "base", "xi", "psi-norm matrix",
        "mixed metrics", "simulator kind", "raw covariance not PSD", "labels int",
        "labels string", "unhashable label", "label holding a list"])
def test_process_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
