"""Supremum bounds for process families, in threshold/envelope form.

Each evaluator takes chaining-functional values and scale parameters and
returns either a MomentBound (order-p decomposition) or a TailBound
(threshold coefficients plus an envelope).  Constants with a derivation
behind them come from the registry defaults; everything else must be fitted
explicitly and taints the result with fitted=True.
"""

from __future__ import annotations

import math

import numpy as np

from .chaining import GammaEstimate
from .conversions import _exp_factor, _exp_tail
from .errors import DomainError, alpha_power, check_int, check_real
from .orlicz import OrliczNorm
from .registry import DEFAULT_REGISTRY, ConstantRegistry
from .results import (
    DegenerateEnvelope,
    MinEnvelope,
    MomentBound,
    PowerEnvelope,
    TailBound,
)
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
    form = _pick_form(p, u)
    g2 = _gamma_value(gamma2, 2.0, 1.0, "mixed-tail subgaussian part")
    g1 = _gamma_value(gamma1, 1.0, 1.0, "mixed-tail subexponential part")
    C, _ = registry.require("mixed_C")
    if form == "moment":
        if sup_term is None:
            raise DomainError(
                "moment form needs sup_term = sup_t (E||X_t - X_t0||^p)^(1/p)"
            )
        return MomentBound(
            p=float(p),
            decomposition=(
                ("chaining-d2", C * g2),
                ("chaining-d1", C * g1),
                ("small-set", 2.0 * check_real("sup_term", sup_term, 0.0)),
            ),
            constants={"mixed_C": C},
            fitted=True,
            name="mixed-tail-supremum",
        )
    c, _ = registry.require("mixed_c")
    if diam2 is None or diam1 is None:
        raise DomainError("tail form needs both diameters")
    return _exp_tail(
        factor=1.0,
        const=C * (g2 + g1),
        sqrt_coeff=c * check_real("diam2", diam2, 0.0),
        linear=c * check_real("diam1", diam1, 0.0),
        alpha=1.0,
        constants={"mixed_C": C, "mixed_c": c},
        fitted=True,
        name="mixed-tail-supremum",
        u=u,
    )


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
    form = _pick_form(p, u)
    g2 = _gamma_value(gamma2, 2.0, 1.0, "empirical-process subgaussian part")
    g1 = _gamma_value(gamma1, 1.0, 1.0, "empirical-process subexponential part")
    sigma = check_real("sigma", sigma, 0.0)
    K = check_real("K", K, 0.0)
    check_int("sample count m", m, 1)
    m = float(m)
    rm = math.sqrt(m)
    C, _ = registry.require("empirical_C")
    if form == "moment":
        return MomentBound(
            p=float(p),
            decomposition=(
                ("chaining-d2", C * g2 / rm),
                ("chaining-d1", C * g1 / m),
                ("sqrt-p", C * math.sqrt(p) * sigma / rm),
                ("linear-p", C * p * K / m),
            ),
            constants={"empirical_C": C, "m": m},
            fitted=True,
            name="empirical-supremum",
        )
    c, _ = registry.require("empirical_c")
    return _exp_tail(
        factor=1.0,
        const=C * (g2 / rm + g1 / m),
        sqrt_coeff=c * sigma / rm,
        linear=c * K / m,
        alpha=1.0,
        constants={"empirical_C": C, "empirical_c": c, "m": m},
        fitted=True,
        name="empirical-supremum",
        u=u,
    )


def squares_default_parameters(psi2_norms) -> tuple[float, float]:
    """Fallback (sigma, K) for the averages-of-squares bound.

    psi2_norms is a (points x summands) array of ||X_{t_i}||_{psi_2} values;
    sigma = sup_t ((1/m) sum_i norm^4)^(1/2) and K = sup_t max_i norm^2 always
    satisfy the factorial moment condition for the squared summands.
    """
    arr = np.asarray(psi2_norms, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise DomainError("psi2_norms must be a nonempty (points x summands) array")
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise DomainError("psi_2 norms must be finite and >= 0")
    sigma = float(np.sqrt(np.mean(arr**4, axis=1)).max())
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
    form = _pick_form(p, u)
    radius = check_real("radius", radius, 0.0)
    sigma = check_real("sigma", sigma, 0.0)
    K = check_real("K", K, 0.0)
    check_int("sample count m", m, 1)
    m = float(m)
    rm = math.sqrt(m)
    C, _ = registry.require("squares_C")
    if form == "moment":
        gval = _gamma_value(gamma2p, 2.0, p, "squares moment form")
        return MomentBound(
            p=float(p),
            decomposition=(
                ("chaining-squared", C * gval**2 / m),
                ("chaining-radius", C * radius * gval / rm),
                ("sqrt-p", C * math.sqrt(p) * sigma / rm),
                ("linear-p", C * p * K / m),
            ),
            constants={"squares_C": C, "m": m},
            fitted=True,
            name="squares-supremum",
        )
    gval = _gamma_value(gamma2p, 2.0, 1.0, "squares tail form")
    c, _ = registry.require("squares_c")
    return _exp_tail(
        factor=1.0,
        const=C * (gval**2 / m + radius * gval / rm),
        sqrt_coeff=c * sigma / rm,
        linear=c * K / m,
        alpha=1.0,
        constants={"squares_C": C, "squares_c": c, "m": m},
        fitted=True,
        name="squares-supremum",
        u=u,
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
    bound = TailBound(
        factor=1.0,
        const=0.0,
        sqrt_coeff=0.0,
        linear=L2_INCREMENT_COEFF * psi2_distance,
        envelope=PowerEnvelope(prefactor=2.0, rate=float(m), power=2.0),
        u_min=1.0,
        constants={"coefficient": L2_INCREMENT_COEFF, "m": float(m)},
        name="squares-l2-increment",
    )
    if u is not None:
        bound.threshold(u)
    return bound


def hanson_wright_tail(
    B,
    u: float | None = None,
    c_fit: float | None = None,
    registry: ConstantRegistry = DEFAULT_REGISTRY,
) -> TailBound:
    """Quadratic-form deviation for independent mean-zero unit-psi_2 entries.

        P(|xi^* B xi - E xi^* B xi| >= u)
            <= 2 exp(-c min(u^2 / ||B||_{S2}^2, u / ||B||_{Sinf}))

    with a fitted rate c (argument c_fit or registry "hanson_wright_c").
    A zero matrix yields the degenerate envelope (probability 0 for u > 0).
    """
    s2 = schatten_norm(B, 2)
    sinf = schatten_norm(B, math.inf)
    if c_fit is not None:
        c = check_real("fitted rate c", c_fit, 0.0, strict=True)
    else:
        c, _ = registry.require("hanson_wright_c")
    if s2 == 0.0:
        envelope = DegenerateEnvelope()
    else:
        envelope = MinEnvelope(prefactor=2.0, c=c, s2=s2, sinf=sinf)
    bound = TailBound(
        factor=1.0,
        const=0.0,
        sqrt_coeff=0.0,
        linear=1.0,
        envelope=envelope,
        u_min=0.0,
        constants={"hanson_wright_c": c, "s2": s2, "sinf": sinf},
        fitted=True,
        name="hanson-wright",
    )
    if u is not None:
        bound.threshold(u)
    return bound


def _radii_gamma(radii: SchattenRadii) -> GammaEstimate:
    """The radii's gamma_2 functional under d_inf, which gamma_mode 'none' omits."""
    if radii.gamma2_dinf is None:
        raise DomainError("radii lack a gamma_2 estimate; recompute with gamma_mode != 'none'")
    return radii.gamma2_dinf


def kmr_parameters(radii: SchattenRadii) -> dict:
    """(E, V, U) deviation parameters of the earlier chaos bound, for comparison.

    E = gamma_2^2 + delta_2 gamma_2, V = delta_inf (delta_2 + gamma_2),
    U = delta_inf^2, all under the operator-norm metric.  Emitted as plain
    numbers; no envelope is asserted for them here.
    """
    g = _gamma_value(_radii_gamma(radii), 2.0, 1.0, "comparison parameters")
    return {
        "E": g**2 + radii.delta_2 * g,
        "V": radii.delta_inf * (radii.delta_2 + g),
        "U": radii.delta_inf**2,
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
    gamma2 = _radii_gamma(radii)
    form = _pick_form(p, u)
    scale = xi_psi2.value**2
    C, _ = registry.require("chaos_C")
    if form == "moment":
        g = _gamma_value(gamma2, 2.0, p, "chaos moment form")
        return MomentBound(
            p=float(p),
            decomposition=(
                ("chaining-squared", C * scale * g**2),
                ("chaining-radius", C * scale * radii.delta_2 * g),
                ("sqrt-p", C * scale * math.sqrt(p) * radii.delta_4**2),
                ("linear-p", C * scale * p * radii.delta_inf**2),
            ),
            constants={"chaos_C": C},
            fitted=True,
            name="chaos-supremum",
        )
    g = _gamma_value(gamma2, 2.0, 1.0, "chaos tail form")
    c, _ = registry.require("chaos_c")
    return _exp_tail(
        factor=1.0,
        const=C * scale * (g**2 + radii.delta_2 * g),
        sqrt_coeff=c * scale * radii.delta_4**2,
        linear=c * scale * radii.delta_inf**2,
        alpha=1.0,
        constants={"chaos_C": C, "chaos_c": c},
        fitted=True,
        name="chaos-supremum",
        u=u,
    )
