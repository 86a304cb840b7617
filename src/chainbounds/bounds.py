"""Supremum bounds for process families, in threshold/envelope form.

Each evaluator takes chaining-functional values and scale parameters and
returns either a MomentBound (order-p decomposition) or a TailBound
(threshold coefficients plus an envelope).  Constants with a derivation
behind them come from the registry defaults; everything else must be fitted
explicitly and taints the result with fitted=True.  The families whose
constants are all fitted (mixed-tail, empirical, squares, chaos) are built in
one place, _fitted_bound, as the stock-constant chaining tails are in
_chaining_tail; every TailBound is constructed by conversions._tail.
"""

from __future__ import annotations

import math

import numpy as np

from .chaining import GammaEstimate
from .conversions import _exp_factor, _exp_tail, _tail
from .errors import (DomainError, alpha_power, check_array, check_int, check_real, power_reduce,
                     square)
from .orlicz import OrliczNorm
from .registry import DEFAULT_REGISTRY, ConstantRegistry
from .results import DegenerateEnvelope, MinEnvelope, MomentBound, PowerEnvelope, TailBound
from .schatten import SchattenRadii, schatten_norm

__all__ = [
    "psi_alpha_supremum_bound",
    "gaussian_process_bound",
    "azuma_uniform_bound",
    "mixed_tail_supremum_bound",
    "empirical_process_bound",
    "squares_default_parameters",
    "squares_supremum_bound",
    "squares_l2_increment_tail",
    "hanson_wright_tail",
    "kmr_parameters",
    "chaos_supremum_bound",
    "L2_INCREMENT_COEFF",
]

# Coefficient of the L2(mu_m) increment tail (exact, not fitted).
L2_INCREMENT_COEFF = 2.0 * (1.0 + math.sqrt(2.0))


def _pick_form(p, u) -> str:
    if (p is None) == (u is None):
        raise DomainError("supply exactly one of p (moment form) or u (tail form)")
    return "moment" if p is not None else "tail"


def _gamma_value(gamma: GammaEstimate, alpha: float, p: float, role: str) -> float:
    """The functional's value, once its alpha and order match the bound's."""
    if not math.isclose(gamma.alpha, alpha):
        raise DomainError(
            f"{role} expects an alpha = {alpha:g} functional, got alpha = {gamma.alpha:g}"
        )
    if not math.isclose(gamma.p, p):
        raise DomainError(
            f"{role} expects the order-{p:g} functional, got p = {gamma.p:g}; "
            "recompute the estimate at the requested order"
        )
    check_real(f"{role} functional value", gamma.value, 0.0)
    return gamma.value


def _chaining_tail(
    gval: float,
    alpha: float,
    scale: float,
    scale_name: str,
    registry: ConstantRegistry,
    name: str,
    u: float | None,
) -> TailBound:
    """Tail form of the chaining moment growth C_alpha gval + D_alpha scale p^(1/alpha).

    gval is the already-checked functional value; scale is checked here, after
    the constants are looked up, and u last.
    """
    C, c_fitted = registry.chaining_C(alpha)
    D, d_fitted = registry.chaining_D(alpha)
    linear = D * check_real(scale_name, scale, 0.0)
    return _exp_tail(
        _exp_factor(alpha),
        C * gval,
        0.0,
        linear,
        alpha,
        {f"C_{alpha:g}": C, f"D_{alpha:g}": D},
        c_fitted or d_fitted,
        name,
        u,
    )


def _fitted_bound(key: str, name: str, p, u, registry: ConstantRegistry, gamma, moment, tail,
                  **recorded) -> MomentBound | TailBound:
    """A bound whose constants {key}_C and {key}_c have no derived value: both
    must be fitted, so the bound is fitted=True, and recorded (such as m)
    joins them in the constants used.

    Once {key}_C is looked up, gamma, if given, is checked at order p in
    moment form and 1 in tail form and passed on as g.  moment(C, g) gives
    the moment decomposition; tail(C, c, g), once {key}_c is looked up, gives
    (const, sqrt_coeff, linear) under the envelope exp(-u), u >= 1.
    """
    C, _ = registry.require(f"{key}_C")
    order, form = (1.0, "tail") if p is None else (p, "moment")
    g = None if gamma is None else _gamma_value(gamma, 2.0, order, f"{key} {form} form")
    if p is not None:
        return MomentBound(p=float(p), decomposition=moment(C, g),
                           constants={f"{key}_C": C, **recorded}, fitted=True, name=name)
    c, _ = registry.require(f"{key}_c")
    constants = {f"{key}_C": C, f"{key}_c": c, **recorded}
    return _exp_tail(1.0, *tail(C, c, g), 1.0, constants, True, name, u)


def psi_alpha_supremum_bound(
    gamma: GammaEstimate,
    diam: float | None = None,
    *,
    p: float | None = None,
    u: float | None = None,
    sup_term: float | None = None,
    registry: ConstantRegistry = DEFAULT_REGISTRY,
) -> MomentBound | TailBound:
    """Supremum of a process with stretched-exponential increment tails.

    Premise: P(||X_t - X_s|| >= v d(t,s)) <= 2 exp(-v^alpha) for all s, t.

    Moment form (pass p): C_alpha * gamma_{alpha,p} + 2 * sup-term, where the
    sup-term is the largest centered individual moment; pass it explicitly
    via sup_term, or pass diam to use the generic envelope
    D_alpha * diam * p^(1/alpha).

    Tail form (pass u >= 1):
        P(sup ||X_t - X_t0|| >= e^(1/alpha)(C_alpha gamma_alpha + u D_alpha diam))
            <= exp(-u^alpha / alpha).
    """
    alpha = gamma.alpha
    form = _pick_form(p, u)
    C, c_fitted = registry.chaining_C(alpha)
    if form == "moment":
        gval = _gamma_value(gamma, alpha, p, "moment form")
        fitted = c_fitted
        constants = {f"C_{alpha:g}": C}
        if sup_term is None:
            if diam is None:
                raise DomainError("moment form needs either sup_term or diam")
            D, d_fitted = registry.chaining_D(alpha)
            sup_term = D * check_real("diam", diam, 0.0) * alpha_power(
                p, 1.0 / alpha, "moment growth p^(1/alpha)", alpha)
            fitted = fitted or d_fitted
            constants[f"D_{alpha:g}"] = D
        return MomentBound(
            p=float(p),
            decomposition=(
                ("chaining", C * gval),
                ("small-set", 2.0 * check_real("sup_term", sup_term, 0.0)),
            ),
            constants=constants,
            fitted=fitted,
            name="psi-alpha-supremum",
        )
    gval = _gamma_value(gamma, alpha, 1.0, "tail form")
    if diam is None:
        raise DomainError("tail form needs the index-set diameter")
    return _chaining_tail(gval, alpha, diam, "diam", registry, "psi-alpha-supremum", u)


def gaussian_process_bound(
    gamma2: GammaEstimate,
    sigma: float,
    *,
    p: float | None = None,
    u: float | None = None,
    registry: ConstantRegistry = DEFAULT_REGISTRY,
) -> MomentBound | TailBound:
    """Raw supremum of a centered Gaussian process under its L2 metric.

    sigma is the weak standard deviation sup_t (E X_t^2)^(1/2).

    Moment form: C gamma_{2,p} + D sigma sqrt(p).
    Tail form:   P(sup |X_t| >= sqrt(e)(C gamma_2 + u D sigma)) <= exp(-u^2/2)
    for u >= 1.
    """
    form = _pick_form(p, u)
    C, c_fitted = registry.chaining_C(2.0)
    D, d_fitted = registry.chaining_D(2.0)
    sigma = check_real("sigma", sigma, 0.0)
    if form == "moment":
        gval = _gamma_value(gamma2, 2.0, p, "moment form")
        return MomentBound(
            p=float(p),
            decomposition=(
                ("chaining", C * gval),
                ("weak-variance", D * sigma * math.sqrt(p)),
            ),
            constants={"C_2": C, "D_2": D},
            fitted=c_fitted or d_fitted,
            name="gaussian-supremum",
        )
    gval = _gamma_value(gamma2, 2.0, 1.0, "tail form")
    return _chaining_tail(gval, 2.0, sigma, "sigma", registry, "gaussian-supremum", u)


def azuma_uniform_bound(
    gamma2: GammaEstimate,
    diam: float,
    u: float | None = None,
    registry: ConstantRegistry = DEFAULT_REGISTRY,
) -> TailBound:
    """Uniform martingale deviation over a family with shared filtration.

    The metric is d(s,t) = (sum_k ||Delta_k(X_t - X_s)||_inf^2)^(1/2) over
    the per-step difference sup-norms.  For u >= 1,

        P(sup_t |X_{t,n} - X_{t,0}| >= sqrt(e)(C_2 gamma_2 + D_2 diam u))
            <= exp(-u^2 / 2).
    """
    gval = _gamma_value(gamma2, 2.0, 1.0, "uniform martingale bound")
    return _chaining_tail(gval, 2.0, diam, "diam", registry, "azuma-uniform", u)


def mixed_tail_supremum_bound(
    gamma2: GammaEstimate,
    gamma1: GammaEstimate,
    *,
    diam2: float | None = None,
    diam1: float | None = None,
    p: float | None = None,
    u: float | None = None,
    sup_term: float | None = None,
    registry: ConstantRegistry = DEFAULT_REGISTRY,
) -> MomentBound | TailBound:
    """Supremum of a process with mixed subgaussian-subexponential increments.

    Premise: P(||X_t - X_s|| >= sqrt(v) d2(t,s) + v d1(t,s)) <= 2 exp(-v)
    for v >= 0.  The leading constants are not derived anywhere, so both
    must be fitted (registry names "mixed_C" and "mixed_c"); the chaining
    construction behind the bound pays factors 8 and 12 on the two partition
    functionals, which is why no derived default is offered.

    Moment form (pass p and an explicit centered sup_term):
        C (gamma_2(T,d2) + gamma_1(T,d1)) + 2 * sup_term.
    Tail form (pass u >= 1):
        P(sup ||X_t - X_t0|| >= C (gamma_2 + gamma_1)
            + c (sqrt(u) diam2 + u diam1)) <= exp(-u).
    """
    _pick_form(p, u)
    g2 = _gamma_value(gamma2, 2.0, 1.0, "mixed-tail subgaussian part")
    g1 = _gamma_value(gamma1, 1.0, 1.0, "mixed-tail subexponential part")

    def moment(C, _):
        if sup_term is None:
            raise DomainError(
                "moment form needs sup_term = sup_t (E||X_t - X_t0||^p)^(1/p)"
            )
        return (("chaining-d2", C * g2), ("chaining-d1", C * g1),
                ("small-set", 2.0 * check_real("sup_term", sup_term, 0.0)))

    def tail(C, c, _):
        if diam2 is None or diam1 is None:
            raise DomainError("tail form needs both diameters")
        return (C * (g2 + g1), c * check_real("diam2", diam2, 0.0),
                c * check_real("diam1", diam1, 0.0))

    return _fitted_bound("mixed", "mixed-tail-supremum", p, u, registry, None, moment, tail)


def empirical_process_bound(
    gamma2: GammaEstimate,
    gamma1: GammaEstimate,
    sigma: float,
    K: float,
    m: int,
    *,
    p: float | None = None,
    u: float | None = None,
    registry: ConstantRegistry = DEFAULT_REGISTRY,
) -> MomentBound | TailBound:
    """Supremum of a centered empirical average of subexponential summands.

    gamma2/gamma1 are functionals of the unscaled psi_1 metrics
    d2(s,t) = ((1/m) sum_i ||X_{t_i}-X_{s_i}||_{psi_1}^2)^(1/2) and
    d1(s,t) = max_i ||X_{t_i}-X_{s_i}||_{psi_1}; the 1/sqrt(m), 1/m scalings
    are applied here.  sigma, K are the factorial-moment-condition scales of
    the summands.  Constants are fitted ("empirical_C", "empirical_c").

    Moment form: C [gamma_2/sqrt(m) + gamma_1/m + sqrt(p) sigma/sqrt(m) + p K/m].
    Tail form:   C (gamma_2/sqrt(m) + gamma_1/m)
                   + c (sigma sqrt(u)/sqrt(m) + K u/m), envelope exp(-u), u >= 1.
    """
    _pick_form(p, u)
    g2 = _gamma_value(gamma2, 2.0, 1.0, "empirical-process subgaussian part")
    g1 = _gamma_value(gamma1, 1.0, 1.0, "empirical-process subexponential part")
    sigma = check_real("sigma", sigma, 0.0)
    K = check_real("K", K, 0.0)
    check_int("sample count m", m, 1)
    m = float(m)
    rm = math.sqrt(m)
    return _fitted_bound(
        "empirical", "empirical-supremum", p, u, registry, None,
        lambda C, _: (("chaining-d2", C * g2 / rm), ("chaining-d1", C * g1 / m),
                      ("sqrt-p", C * math.sqrt(p) * sigma / rm), ("linear-p", C * p * K / m)),
        lambda C, c, _: (C * (g2 / rm + g1 / m), c * sigma / rm, c * K / m),
        m=m,
    )


def squares_default_parameters(psi2_norms) -> tuple[float, float]:
    """Fallback (sigma, K) for the averages-of-squares bound.

    psi2_norms is a (points x summands) array of ||X_{t_i}||_{psi_2} values;
    sigma = sup_t ((1/m) sum_i norm^4)^(1/2) and K = sup_t max_i norm^2 always
    satisfy the factorial moment condition for the squared summands.
    """
    arr = check_array("psi2_norms", psi2_norms, 2, nonnegative=True)
    sigma = float(power_reduce(lambda v: np.sqrt(np.mean(v**4, axis=1)), arr, degree=2).max())
    with np.errstate(over="ignore"):  # inf only where the largest norm^2 passes the float range
        K = float((arr**2).max())
    return sigma, K


def squares_supremum_bound(
    gamma2p: GammaEstimate,
    radius: float,
    m: int,
    sigma: float,
    K: float,
    *,
    p: float | None = None,
    u: float | None = None,
    registry: ConstantRegistry = DEFAULT_REGISTRY,
) -> MomentBound | TailBound:
    """Supremum of centered averages of squared subgaussian summands.

    gamma2p is the order-p functional of the psi_2 increment metric
    d(s,t) = max_i ||X_{t_i} - X_{s_i}||_{psi_2}; radius is the associated
    psi_2 radius sup_t max_i ||X_{t_i}||_{psi_2}.  Constants are fitted
    ("squares_C", "squares_c").

    Moment form: C [gamma^2/m + radius*gamma/sqrt(m) + sqrt(p) sigma/sqrt(m) + p K/m].
    Tail form:   C (gamma^2/m + radius*gamma/sqrt(m))
                   + c (sqrt(u) sigma/sqrt(m) + u K/m), envelope exp(-u), u >= 1.
    """
    _pick_form(p, u)
    radius = check_real("radius", radius, 0.0)
    sigma = check_real("sigma", sigma, 0.0)
    K = check_real("K", K, 0.0)
    check_int("sample count m", m, 1)
    m = float(m)
    rm = math.sqrt(m)
    return _fitted_bound(
        "squares", "squares-supremum", p, u, registry, gamma2p,
        lambda C, g: (("chaining-squared", C * (g * g) / m),
                      ("chaining-radius", C * radius * g / rm),
                      ("sqrt-p", C * math.sqrt(p) * sigma / rm), ("linear-p", C * p * K / m)),
        lambda C, c, g: (C * (g * g / m + radius * g / rm), c * sigma / rm, c * K / m),
        m=m,
    )


def squares_l2_increment_tail(
    psi2_distance: float, m: int, u: float | None = None
) -> TailBound:
    """Empirical-L2 distance of two summand tuples vs their psi_2 distance.

    For u >= 1,
        P(||X_t - X_s||_{L2(mu_m)} >= u * 2(1+sqrt(2)) * d_psi2(s,t))
            <= 2 exp(-m u^2).
    The coefficient 2(1+sqrt(2)) is exact, not fitted.
    """
    psi2_distance = check_real("psi2_distance", psi2_distance, 0.0)
    check_int("sample count m", m, 1)
    return _tail(PowerEnvelope(prefactor=2.0, rate=float(m), power=2.0), 1.0, 1.0, 0.0, 0.0,
                 L2_INCREMENT_COEFF * psi2_distance,
                 {"coefficient": L2_INCREMENT_COEFF, "m": float(m)}, False,
                 "squares-l2-increment", u)


def hanson_wright_tail(
    B,
    u: float | None = None,
    registry: ConstantRegistry = DEFAULT_REGISTRY,
) -> TailBound:
    """Quadratic-form deviation for independent mean-zero unit-psi_2 entries.

        P(|xi^* B xi - E xi^* B xi| >= u)
            <= 2 exp(-c min(u^2 / ||B||_{S2}^2, u / ||B||_{Sinf}))

    with the registry's fitted rate c, "hanson_wright_c".
    A zero matrix yields the degenerate envelope (probability 0 for u > 0).
    """
    B = check_array("B", B, 2, complex_ok=True)
    s2 = schatten_norm(B, 2)
    sinf = schatten_norm(B, math.inf)
    c, _ = registry.require("hanson_wright_c")
    if s2 == 0.0:
        envelope = DegenerateEnvelope()
    else:
        envelope = MinEnvelope(prefactor=2.0, c=c, s2=s2, sinf=sinf)
    return _tail(envelope, 0.0, 1.0, 0.0, 0.0, 1.0,
                 {"hanson_wright_c": c, "s2": s2, "sinf": sinf}, True, "hanson-wright", u)


def kmr_parameters(radii: SchattenRadii) -> dict:
    """(E, V, U) deviation parameters of the earlier chaos bound, for comparison.

    E = gamma_2^2 + delta_2 gamma_2, V = delta_inf (delta_2 + gamma_2),
    U = delta_inf^2, all under the operator-norm metric.  Emitted as plain
    numbers; no envelope is asserted for them here.
    """
    g = _gamma_value(radii.gamma2_dinf, 2.0, 1.0, "comparison parameters")
    return {
        "E": square(g) + radii.delta_2 * g,
        "V": radii.delta_inf * (radii.delta_2 + g),
        "U": square(radii.delta_inf),
    }


def chaos_supremum_bound(
    radii: SchattenRadii,
    xi_psi2: OrliczNorm,
    *,
    p: float | None = None,
    u: float | None = None,
    registry: ConstantRegistry = DEFAULT_REGISTRY,
) -> MomentBound | TailBound:
    """Supremum of |  ||A xi||^2 - E ||A xi||^2  | over a matrix family.

    xi has independent mean-zero components with max psi_2 norm xi_psi2.
    The deviation scales are the S^4 and S^inf radii (not the mixed-tail
    variance factor), which is what makes the large-u regime subexponential
    in u * delta_inf^2.  Constants are fitted ("chaos_C", "chaos_c").

    Moment form: C s^2 [gamma^2 + delta_2 gamma + sqrt(p) delta_4^2 + p delta_inf^2],
    with s = xi_psi2 and gamma the order-p functional under d_inf.
    Tail form:   C s^2 (gamma^2 + delta_2 gamma)
                   + c s^2 (sqrt(u) delta_4^2 + u delta_inf^2),
    envelope exp(-u), u >= 1.
    """
    if not math.isclose(xi_psi2.alpha, 2.0):
        raise DomainError(f"xi_psi2 must be a psi_2 norm, got alpha = {xi_psi2.alpha:g}")
    _pick_form(p, u)
    scale = xi_psi2.value * xi_psi2.value
    if not math.isfinite(scale):  # inf times a zero gamma_2 would leave a NaN term
        raise DomainError(f"xi_psi2.value^2 is not finite (xi_psi2.value = {xi_psi2.value:g})")
    d4sq, dinfsq = square(radii.delta_4), square(radii.delta_inf)
    return _fitted_bound(
        "chaos", "chaos-supremum", p, u, registry, radii.gamma2_dinf,
        lambda C, g: (("chaining-squared", C * scale * (g * g)),
                      ("chaining-radius", C * scale * radii.delta_2 * g),
                      ("sqrt-p", C * scale * math.sqrt(p) * d4sq),
                      ("linear-p", C * scale * p * dinfsq)),
        lambda C, c, g: (C * scale * (g * g + radii.delta_2 * g),
                         c * scale * d4sq, c * scale * dinfsq),
    )
