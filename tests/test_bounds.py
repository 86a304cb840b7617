"""Supremum bounds for the supported process families."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbounds import (
    DEFAULT_REGISTRY,
    ConstantRegistry,
    DomainError,
    GammaEstimate,
    L2_INCREMENT_COEFF,
    MinEnvelope,
    MixedTailMetrics,
    MissingConstantError,
    OrliczNorm,
    SchattenRadii,
    azuma_uniform_bound,
    build_metric_space,
    chaos_supremum_bound,
    empirical_process_bound,
    gaussian_process_bound,
    hanson_wright_tail,
    kmr_parameters,
    mixed_tail_supremum_bound,
    psi_alpha_supremum_bound,
    schatten_radii,
    squares_default_parameters,
    squares_l2_increment_tail,
    squares_supremum_bound,
    truncation_level,
)

SQRT_E = math.sqrt(math.e)


def gamma(value, alpha=2.0, p=1.0, mode="exact"):
    return GammaEstimate(alpha=alpha, p=p, l=truncation_level(p), value=value,
                         mode=mode, sequence=None)


FITTED = DEFAULT_REGISTRY.with_fitted(
    mixed_C=1.0, mixed_c=1.0, empirical_C=1.0, empirical_c=1.0,
    squares_C=1.0, squares_c=1.0, chaos_C=1.0, chaos_c=1.0,
    hanson_wright_c=0.25,
)


# ------------------------------------------------------------- psi-alpha


def test_psi_alpha_tail_frozen():
    # C=86, D=9 defaults at alpha=2: sqrt(e) * (86*1 + 9*1*1) at u=1.
    b = psi_alpha_supremum_bound(gamma(1.0), diam=1.0, u=1.0)
    assert b.threshold(1.0) == pytest.approx(SQRT_E * 95.0, rel=1e-12)
    assert b.factor == pytest.approx(math.exp(0.5))
    assert b.probability(2.0) == pytest.approx(math.exp(-(2.0**2) / 2.0))
    assert not b.fitted
    assert b.name == "psi-alpha-supremum"


def test_psi_alpha_tail_requires_unit_p_gamma():
    with pytest.raises(DomainError):
        psi_alpha_supremum_bound(gamma(1.0, p=2.0), diam=1.0, u=1.0)


def test_psi_alpha_moment_default_sup_term():
    # moment: C*gamma + 2*D*diam*p^(1/alpha)
    m = psi_alpha_supremum_bound(gamma(1.0, p=4.0), diam=1.0, p=4.0)
    assert m.value == pytest.approx(86.0 + 2.0 * 9.0 * 2.0)
    terms = dict(m.decomposition)
    assert terms["chaining"] == pytest.approx(86.0)
    assert terms["small-set"] == pytest.approx(36.0)


def test_psi_alpha_moment_explicit_sup_term():
    m = psi_alpha_supremum_bound(gamma(2.0, p=2.0), p=2.0, sup_term=0.5)
    assert m.value == pytest.approx(86.0 * 2.0 + 1.0)


def test_psi_alpha_missing_constants_for_other_alpha():
    with pytest.raises(MissingConstantError):
        psi_alpha_supremum_bound(gamma(1.0, alpha=1.0), diam=1.0, u=1.0)
    reg = DEFAULT_REGISTRY.with_fitted(C_1=10.0, D_1=2.0)
    b = psi_alpha_supremum_bound(gamma(1.0, alpha=1.0), diam=1.0, u=1.0, registry=reg)
    assert b.fitted
    assert b.threshold(1.0) == pytest.approx(math.e * 12.0)
    assert b.probability(1.0) == pytest.approx(math.exp(-1.0))


def test_psi_alpha_exactly_one_form():
    with pytest.raises(DomainError):
        psi_alpha_supremum_bound(gamma(1.0), diam=1.0)
    with pytest.raises(DomainError):
        psi_alpha_supremum_bound(gamma(1.0), diam=1.0, p=2.0, u=1.0)


# ------------------------------------------------------------- gaussian


def test_gaussian_tail_frozen():
    b = gaussian_process_bound(gamma(1.0), sigma=1.0, u=1.0)
    assert b.threshold(1.0) == pytest.approx(SQRT_E * 95.0)
    assert b.threshold(3.0) == pytest.approx(SQRT_E * (86.0 + 27.0))
    assert b.envelope.probability(2.0) == pytest.approx(math.exp(-2.0))
    assert not b.fitted


def test_gaussian_moment():
    m = gaussian_process_bound(gamma(2.0, p=4.0), sigma=3.0, p=4.0)
    assert m.value == pytest.approx(86.0 * 2.0 + 9.0 * 3.0 * 2.0)
    assert dict(m.decomposition)["weak-variance"] == pytest.approx(54.0)


def test_gaussian_validates_sigma():
    with pytest.raises(DomainError):
        gaussian_process_bound(gamma(1.0), sigma=-1.0, u=1.0)


# ------------------------------------------------------------- azuma


def test_azuma_frozen():
    b = azuma_uniform_bound(gamma(1.0), diam=1.0)
    assert b.threshold(2.0) == pytest.approx(SQRT_E * 104.0, rel=1e-12)
    assert b.probability(2.0) == pytest.approx(math.exp(-2.0))
    assert b.name == "azuma-uniform"


# ------------------------------------------------------------- mixed


def test_mixed_tail_requires_fitted_constants():
    with pytest.raises(MissingConstantError):
        mixed_tail_supremum_bound(gamma(1.0), gamma(1.0, alpha=1.0),
                                  diam2=1.0, diam1=1.0, u=1.0)


def test_mixed_tail_plugin_values():
    b = mixed_tail_supremum_bound(
        gamma(1.0), gamma(1.0, alpha=1.0), diam2=1.0, diam1=1.0, u=1.0,
        registry=FITTED,
    )
    # C(g2+g1) + c(sqrt(u) d2 + u d1) = 2 + 2 = 4 at u=1, C=c=1
    assert b.threshold(1.0) == pytest.approx(4.0)
    assert b.factor == 1.0
    assert b.fitted
    assert b.probability(1.0) == pytest.approx(math.exp(-1.0))


def test_mixed_tail_metrics_container():
    d1 = build_metric_space([[0, 1], [1, 0]], labels=("a", "b"))
    d2 = build_metric_space([[0, 2], [2, 0]], labels=("a", "b"))
    m = MixedTailMetrics(d1=d1, d2=d2)
    assert m.d1.diameter() == 1.0 and m.d2.diameter() == 2.0
    b = mixed_tail_supremum_bound(
        gamma(1.0), gamma(1.0, alpha=1.0), diam2=m.d2.diameter(), diam1=m.d1.diameter(), u=1.0,
        registry=FITTED,
    )
    assert b.threshold(1.0) == pytest.approx(2.0 + 2.0 + 1.0)
    bad = build_metric_space([[0, 1], [1, 0]], labels=("x", "y"))
    with pytest.raises(DomainError):
        MixedTailMetrics(d1=d1, d2=bad)


def test_mixed_moment_needs_explicit_sup_term():
    # the moment form consumes full (order-1) functionals
    with pytest.raises(DomainError):
        mixed_tail_supremum_bound(gamma(1.0), gamma(1.0, alpha=1.0),
                                  p=2.0, registry=FITTED)
    m = mixed_tail_supremum_bound(
        gamma(1.0), gamma(0.5, alpha=1.0), p=2.0, sup_term=0.25,
        registry=FITTED,
    )
    assert m.value == pytest.approx(1.0 + 0.5 + 0.5)
    assert m.fitted


def test_mixed_moment_rejects_truncated_gamma():
    with pytest.raises(DomainError):
        mixed_tail_supremum_bound(gamma(1.0, p=2.0), gamma(1.0, alpha=1.0, p=2.0),
                                  p=2.0, sup_term=0.25, registry=FITTED)


# ------------------------------------------------------------- empirical


def test_empirical_threshold_frozen():
    b = empirical_process_bound(gamma(0.0), gamma(0.0, alpha=1.0),
                                sigma=1.0, K=1.0, m=1, u=1.0, registry=FITTED)
    # c(sigma sqrt(u)/sqrt(m) + K u/m) = 2 at u=1
    assert b.threshold(1.0) == pytest.approx(2.0)
    assert b.fitted


def test_empirical_scaling_in_m():
    b1 = empirical_process_bound(gamma(1.0), gamma(1.0, alpha=1.0),
                                 sigma=1.0, K=1.0, m=4, u=1.0, registry=FITTED)
    b2 = empirical_process_bound(gamma(1.0), gamma(1.0, alpha=1.0),
                                 sigma=1.0, K=1.0, m=16, u=1.0, registry=FITTED)
    assert b2.threshold(1.0) < b1.threshold(1.0)
    assert b1.const == pytest.approx(1.0 / 2.0 + 1.0 / 4.0)
    assert b2.const == pytest.approx(1.0 / 4.0 + 1.0 / 16.0)


def test_empirical_moment_terms():
    m = empirical_process_bound(gamma(2.0), gamma(1.0, alpha=1.0),
                                sigma=1.0, K=2.0, m=4, p=4.0, registry=FITTED)
    terms = dict(m.decomposition)
    assert terms["chaining-d2"] == pytest.approx(1.0)
    assert terms["chaining-d1"] == pytest.approx(0.25)
    assert terms["sqrt-p"] == pytest.approx(1.0)  # sqrt(4)*1/sqrt(4)
    assert terms["linear-p"] == pytest.approx(2.0)  # 4*2/4
    assert m.value == pytest.approx(4.25)


# ------------------------------------------------------------- squares


def test_squares_l2_increment_coefficient():
    assert L2_INCREMENT_COEFF == pytest.approx(2.0 * (1.0 + math.sqrt(2.0)))
    b = squares_l2_increment_tail(0.5, m=4)
    assert b.threshold(1.0) == pytest.approx(L2_INCREMENT_COEFF * 0.5)
    assert b.threshold(2.0) == pytest.approx(L2_INCREMENT_COEFF)
    # envelope 2 exp(-m u^2)
    assert b.probability(1.0) == pytest.approx(2.0 * math.exp(-4.0))
    assert not b.fitted  # the coefficient is explicit, not fitted


def test_squares_default_parameters():
    norms = np.array([[1.0, 2.0], [2.0, 2.0]])
    sigma, K = squares_default_parameters(norms)
    # sigma = max_t sqrt(mean_i norm^4); row 2: sqrt((16+16)/2) = 4
    assert sigma == pytest.approx(4.0)
    assert K == pytest.approx(4.0)


def test_squares_moment_terms():
    m = squares_supremum_bound(gamma(2.0, p=2.0), radius=1.0, m=4,
                               sigma=1.0, K=1.0, p=2.0, registry=FITTED)
    terms = dict(m.decomposition)
    assert terms["chaining-squared"] == pytest.approx(4.0 / 4.0)
    assert terms["chaining-radius"] == pytest.approx(1.0 * 2.0 / 2.0)
    assert terms["sqrt-p"] == pytest.approx(math.sqrt(2.0) / 2.0)
    assert terms["linear-p"] == pytest.approx(2.0 / 4.0)


def test_squares_tail_threshold():
    b = squares_supremum_bound(gamma(1.0), radius=1.0, m=4, sigma=1.0, K=1.0,
                               u=4.0, registry=FITTED)
    # C(g^2/m + r*g/sqrt(m)) + c(sqrt(u) s/sqrt(m) + u K/m)
    assert b.threshold(4.0) == pytest.approx((0.25 + 0.5) + (1.0 + 1.0))


# ------------------------------------------------------------- chaos


def identity_radii():
    return schatten_radii([np.eye(4)])


def test_schatten_radii_identity_frozen():
    r = identity_radii()
    assert r.delta_2 == pytest.approx(2.0)
    assert r.delta_4 == pytest.approx(4.0 ** 0.25)
    assert r.delta_inf == pytest.approx(1.0)
    assert r.gamma2_dinf.value == 0.0  # singleton family


def test_kmr_parameters():
    r = identity_radii()
    params = kmr_parameters(r)
    assert params["E"] == 0.0  # gamma = 0 for a singleton
    assert params["V"] == pytest.approx(1.0 * (2.0 + 0.0))
    assert params["U"] == pytest.approx(1.0)


def test_chaos_moment_terms():
    # the moment form wants radii whose chaining part was computed at order p
    r = schatten_radii([np.eye(4)], p=4.0)
    xi = OrliczNorm(2.0, 2.0, "analytic")  # scale^2 = 4
    m = chaos_supremum_bound(r, xi, p=4.0, registry=FITTED)
    terms = dict(m.decomposition)
    assert terms["chaining-squared"] == 0.0
    assert terms["chaining-radius"] == 0.0
    # sqrt-p = scale * sqrt(p) * delta_4^2 = 4 * 2 * sqrt(4) = 16
    assert terms["sqrt-p"] == pytest.approx(16.0)
    assert terms["linear-p"] == pytest.approx(4.0 * 4.0 * 1.0)
    assert m.fitted


def test_chaos_requires_psi2_norm():
    r = identity_radii()
    with pytest.raises(DomainError):
        chaos_supremum_bound(r, OrliczNorm(1.0, 1.0, "analytic"), p=2.0,
                             registry=FITTED)


def test_hanson_wright_envelope():
    b = hanson_wright_tail(np.eye(4), c_fit=0.25)
    assert isinstance(b.envelope, MinEnvelope)
    assert b.envelope.s2 == pytest.approx(2.0)   # Frobenius norm of I_4
    assert b.envelope.sinf == pytest.approx(1.0)
    assert b.threshold(3.0) == pytest.approx(3.0)
    # 2 exp(-c min(u^2/4, u)); small u clips at probability 1
    assert b.probability(2.0) == 1.0
    assert b.probability(3.5) == pytest.approx(2.0 * math.exp(-0.25 * 3.5**2 / 4.0))
    assert b.probability(8.0) == pytest.approx(2.0 * math.exp(-0.25 * 8.0))
    assert b.fitted
    assert b.u_min == 0.0


def test_hanson_wright_needs_constant():
    with pytest.raises(MissingConstantError):
        hanson_wright_tail(np.eye(2))
    b = hanson_wright_tail(np.eye(2), registry=FITTED)
    assert b.constants["hanson_wright_c"] == 0.25


def test_hanson_wright_zero_matrix():
    b = hanson_wright_tail(np.zeros((3, 3)), c_fit=1.0)
    assert b.probability(1.0) == 0.0
    assert b.probability(0.0) == 1.0


# ------------------------------------------------------------- properties


@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(1.0, 5.0))
@settings(max_examples=50, deadline=None)
def test_gaussian_threshold_monotone(g, s, u):
    b = gaussian_process_bound(gamma(g + 0.0), sigma=s, u=1.0)
    b2 = gaussian_process_bound(gamma(g + 1.0), sigma=s + 1.0, u=1.0)
    assert b2.threshold(u) >= b.threshold(u)
    assert b.threshold(u + 1.0) >= b.threshold(u)


@given(st.floats(1.0, 32.0))
@settings(max_examples=30, deadline=None)
def test_moment_decomposition_sums(p):
    g = gamma(1.5, p=p)
    m = gaussian_process_bound(g, sigma=2.0, p=p)
    assert m.value == pytest.approx(sum(v for _, v in m.decomposition))


def test_fitted_flag_propagates_from_registry():
    reg = DEFAULT_REGISTRY.with_fitted(C_2=50.0)
    b = gaussian_process_bound(gamma(1.0), sigma=1.0, u=1.0, registry=reg)
    assert b.fitted  # C was overridden, so the result is flagged
    assert b.threshold(1.0) == pytest.approx(SQRT_E * (50.0 + 9.0))


def test_chaining_constants_share_one_lookup():
    reg = DEFAULT_REGISTRY.with_fitted(C_1=10.0, D_3=2.0)
    assert reg.chaining_C(2.0) == (86.0, False) and reg.chaining_D(2.0) == (9.0, False)
    assert reg.chaining_C(1.0) == (10.0, True) and reg.chaining_D(3.0) == (2.0, True)
    with pytest.raises(MissingConstantError, match="constant D for alpha = 1; .* named 'D_1'"):
        reg.chaining_D(1.0)
    with pytest.raises(MissingConstantError, match="constant C for alpha = 3; .* named 'C_3'"):
        reg.chaining_C(3.0)


@pytest.mark.parametrize("value", [True, False, "3", None, [1.0], {"v": 1.0}])
def test_fitted_constants_must_be_numbers(tmp_path, value):
    with pytest.raises(DomainError, match="fitted constant 'chaos_C' must be a real number"):
        DEFAULT_REGISTRY.with_fitted(chaos_C=value)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps({"chaos_C": value}))
    with pytest.raises(DomainError, match="fitted constant 'chaos_C' must be a real number"):
        ConstantRegistry.from_json(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_fitted_constants_must_be_finite_and_positive(tmp_path, value):
    message = f"fitted constant 'chaos_C' must be finite and positive, got {value}"
    with pytest.raises(DomainError, match=re.escape(message)):
        DEFAULT_REGISTRY.with_fitted(chaos_C=value)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps({"chaos_C": value}))
    with pytest.raises(DomainError, match=re.escape(message)):
        ConstantRegistry.from_json(path)


@pytest.mark.parametrize("name", ["C2", "D2", "C_2.0", "D_2.0", "C_02", "C_0", "C_-1", "C_nan",
                                  "C_inf", "E_2", "chaos_k", "Chaos_C", "union_C", ""])
def test_a_fitted_name_no_lookup_reads_is_refused_by_name(tmp_path, name):
    message = f"^unknown fitted constant {re.escape(repr(name))}: no bound reads it"
    with pytest.raises(DomainError, match=message):
        DEFAULT_REGISTRY.with_fitted(**{name: 1.0})
    path = tmp_path / "fit.json"
    path.write_text(json.dumps({"C_2": 1.0, name: 1.0}))
    with pytest.raises(DomainError, match=message):
        ConstantRegistry.from_json(path)


def test_fitted_constants_are_stored_as_floats():
    reg = DEFAULT_REGISTRY.with_fitted(chaos_C=3, chaos_c=np.float64(0.5), union_c=np.int64(2))
    assert reg.require("chaos_C") == (3.0, True) and reg.union_c() == (2.0, True)
    assert [type(v) for v in reg.fitted.values()] == [float, float, float]


def test_chaining_tail_forms_name_an_overflowing_threshold_factor():
    reg = DEFAULT_REGISTRY.with_fitted(**{"C_0.001": 1.0, "D_0.001": 1.0})
    with pytest.raises(DomainError, match=r"threshold factor e\^\(1/alpha\)"):
        psi_alpha_supremum_bound(gamma(1.0, alpha=0.001), diam=1.0, u=1.0, registry=reg)


def test_moment_form_names_an_overflowing_growth_factor():
    reg = DEFAULT_REGISTRY.with_fitted(**{"C_0.0005": 1.0, "D_0.0005": 1.0})
    with pytest.raises(DomainError, match=r"moment growth p\^\(1/alpha\) is not finite"):
        psi_alpha_supremum_bound(gamma(1.0, alpha=0.0005, p=2.0), diam=1.0, p=2.0, registry=reg)
    # a bad diam is still reported first
    with pytest.raises(DomainError, match="diam"):
        psi_alpha_supremum_bound(gamma(1.0, alpha=0.0005, p=2.0), diam=-1.0, p=2.0, registry=reg)


def _list_fit(tmp_path):
    path = tmp_path / "fit.json"
    path.write_text("[1.0]")
    return path


@pytest.mark.parametrize("call, message", [
    (lambda tmp_path: ConstantRegistry.from_json(_list_fit(tmp_path)),
     "constants file must hold a JSON object of name -> value"),
    (lambda _: gaussian_process_bound(gamma(1.0, alpha=1.0), 1.0, u=1.0),
     "tail form expects an alpha = 2 functional, got alpha = 1"),
    (lambda _: psi_alpha_supremum_bound(gamma(1.0, p=2.0), p=2.0),
     "moment form needs either sup_term or diam"),
    (lambda _: mixed_tail_supremum_bound(
        gamma(1.0), gamma(1.0, alpha=1.0), diam2=1.0, u=1.0,
        registry=DEFAULT_REGISTRY.with_fitted(mixed_C=1.0, mixed_c=1.0)),
     "tail form needs both diameters"),
], ids=["list fit file", "alpha mismatch", "psi-alpha moment form", "mixed tail diameters"])
def test_bound_and_registry_refusals(tmp_path, call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(tmp_path)


@pytest.mark.parametrize("evaluate", [
    lambda g, reg: squares_supremum_bound(g, 1.0, 4, 1.0, 1.0, u=1.0, registry=reg),
    lambda g, reg: chaos_supremum_bound(
        SchattenRadii(delta_2=3.0, delta_4=1.5, delta_inf=1.0, gamma2_dinf=g),
        OrliczNorm(2.0, 1.0, "supplied"), u=1.0, registry=reg),
], ids=["squares", "chaos"])
def test_tail_forms_check_their_functional_before_the_fitted_rate(evaluate):
    # the order-2 functional is refused by order, ahead of the missing {key}_c
    reg = DEFAULT_REGISTRY.with_fitted(squares_C=1.0, chaos_C=1.0)
    with pytest.raises(DomainError, match="expects the order-1 functional, got p = 2"):
        evaluate(gamma(1.0, p=2.0), reg)
    with pytest.raises(MissingConstantError, match="_c' has no derived value"):
        evaluate(gamma(1.0), reg)


def test_a_threshold_past_the_float_range_is_refused_by_bound_and_u():
    # the product overflowed to inf with a RuntimeWarning
    bound = squares_l2_increment_tail(1e300, 10)
    message = "squares-l2-increment threshold is not finite at u = 1e+10"
    with pytest.raises(DomainError, match=re.escape(message)):
        bound.threshold(1e10)
    with pytest.raises(DomainError, match=re.escape(message)):
        bound.threshold(np.array([1.0, 1e10]))
    assert bound.threshold(1.0) == L2_INCREMENT_COEFF * 1e300

