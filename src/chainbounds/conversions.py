"""Closed-form moment/tail conversions with explicit constants.

Each function instantiates one inequality: given premise coefficients it
returns the exact threshold/envelope pair (TailBound) or moment value
(MomentBound) that the inequality asserts.  Nothing here is estimated or
fitted -- the constants are spelled out so tests can pin them against
independent quadrature oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaining import _doubly_exponential, truncation_level
from .errors import DomainError, alpha_power, check_int, check_real
from .registry import DEFAULT_REGISTRY, ConstantRegistry
from .results import MomentBound, PowerEnvelope, TailBound

__all__ = [
    "moments_to_tails",
    "moments_to_tails_mixed",
    "tails_to_moments",
    "tails_to_moments_mixed",
    "small_set_moment_bound",
    "union_bound_constant",
    "union_bound_probability",
    "lp_tail_integral_bound",
    "lp_from_tail",
    "small_set_cap",
    "BernsteinParams",
    "bernstein_tail",
]

_LOG2 = math.log(2.0)
# exp(1/(2e)): the p^(1/(2p)) <= e^(1/(2e)) envelope used by the Stirling steps.
_STIRLING_PREF = math.exp(1.0 / (2.0 * math.e))


def moments_to_tails(a: float, b: float, alpha: float, u: float | None = None) -> TailBound:
    """Tail bound from two-parameter moment growth.

    Premise: (E|X|^p)^(1/p) <= a*p^(1/alpha) + b for every p >= 1, with
    a > 0 and b >= 0.  Conclusion, evaluated here:

        P(|X| >= e^(1/alpha) * (a*u + b)) <= exp(-u^alpha / alpha)   (u >= 1).

    Passing ``u`` eagerly validates it against the u >= 1 domain.
    """
    alpha = check_real("alpha", alpha, 0.0, strict=True)
    a = check_real("moment scale a", a, 0.0, strict=True)
    b = check_real("moment offset b", b, 0.0)
    factor = _exp_factor(alpha)
    constants = {"threshold_factor": factor}
    return _exp_tail(factor, b, 0.0, a, alpha, constants, False, "moments-to-tails", u)


def _exp_factor(alpha: float) -> float:
    """e^(1/alpha), the threshold factor of the exponential tail forms; a
    DomainError names it where it leaves the float range."""
    try:
        return math.exp(1.0 / alpha)
    except OverflowError:
        raise DomainError(
            f"threshold factor e^(1/alpha) is not finite at alpha = {alpha:g}"
        ) from None


def _exp_tail(
    factor: float,
    const: float,
    sqrt_coeff: float,
    linear: float,
    alpha: float,
    constants: dict,
    fitted: bool,
    name: str,
    u: float | None = None,
) -> TailBound:
    """P(X >= factor*(const + sqrt_coeff*sqrt(u) + linear*u)) <= exp(-u^alpha/alpha)
    for u >= 1, from checked coefficients; a u given is checked at once.  Both
    moments-to-tails steps and every chaining tail form with this envelope
    are this bound."""
    bound = TailBound(
        factor=factor,
        const=const,
        sqrt_coeff=sqrt_coeff,
        linear=linear,
        envelope=PowerEnvelope(prefactor=1.0, rate=1.0 / alpha, power=alpha),
        u_min=1.0,
        constants=constants,
        fitted=fitted,
        name=name,
    )
    if u is not None:
        bound.threshold(u)
    return bound


def moments_to_tails_mixed(
    a1: float, a2: float, a3: float, u: float | None = None
) -> TailBound:
    """Tail bound from mixed (p, sqrt(p), 1) moment growth.

    Premise: (E|X|^p)^(1/p) <= a1*p + a2*sqrt(p) + a3 for every p >= 1,
    all coefficients >= 0.  Conclusion:

        P(|X| >= e * (a1*u + a2*sqrt(u) + a3)) <= exp(-u)   (u >= 1).
    """
    a1 = check_real("coefficient a1", a1, 0.0)
    a2 = check_real("coefficient a2", a2, 0.0)
    a3 = check_real("coefficient a3", a3, 0.0)
    constants = {"threshold_factor": math.e}
    return _exp_tail(math.e, a3, a2, a1, 1.0, constants, False, "moments-to-tails-mixed", u)


def tails_to_moments(a: float, b: float, alpha: float, p: float) -> MomentBound:
    """Moment bound from a stretched-exponential tail premise.

    Premise: P(|X| >= e^(1/alpha)*a*u) <= b * exp(-u^alpha / alpha) for all
    u >= 0.  Conclusion:

        (E|X|^p)^(1/p) <= e^(1/2e) * a * (sqrt(2*pi/alpha) * e^(alpha/12) * b)^(1/p) * p^(1/alpha).
    """
    alpha = check_real("alpha", alpha, 0.0, strict=True)
    p = check_real("moment order p", p, 1.0)
    check_real("tail scale a", a, 0.0)
    check_real("tail prefactor b", b, 0.0)
    inner = math.sqrt(2.0 * math.pi / alpha) * math.exp(alpha / 12.0) * b
    growth = alpha_power(p, 1.0 / alpha, "moment growth p^(1/alpha)", alpha)
    value = _STIRLING_PREF * a * inner ** (1.0 / p) * growth
    return MomentBound(
        p=p,
        decomposition=(("tail-integral", value),),
        constants={"stirling_prefactor": _STIRLING_PREF},
        name="tails-to-moments",
    )


def tails_to_moments_mixed(a1: float, a2: float, p: float) -> MomentBound:
    """Moment bound from a mixed subgaussian-subexponential tail premise.

    Premise: P(|X| >= a1*u + a2*sqrt(u)) <= exp(-u) for all u >= 0.
    Conclusion (two Stirling-controlled gamma-function terms):

        (E|X|^p)^(1/p) <= a1 * 2 e^(1/2e) (sqrt(2 pi) e^(1/12p))^(1/p) e^(-1) * p
                        + a2 * 2 (2e)^(-1/2) e^(1/2e) (sqrt(pi) e^(1/6p))^(1/p) * sqrt(p).
    """
    p = check_real("moment order p", p, 1.0)
    check_real("coefficient a1", a1, 0.0)
    check_real("coefficient a2", a2, 0.0)
    linear_term = (
        a1
        * 2.0
        * _STIRLING_PREF
        * (math.sqrt(2.0 * math.pi) * math.exp(1.0 / (12.0 * p))) ** (1.0 / p)
        * math.exp(-1.0)
        * p
    )
    sqrt_term = (
        a2
        * 2.0
        / math.sqrt(2.0 * math.e)
        * _STIRLING_PREF
        * (math.sqrt(math.pi) * math.exp(1.0 / (6.0 * p))) ** (1.0 / p)
        * math.sqrt(p)
    )
    return MomentBound(
        p=p,
        decomposition=(("linear-term", linear_term), ("sqrt-term", sqrt_term)),
        constants={"stirling_prefactor": _STIRLING_PREF},
        name="tails-to-moments-mixed",
    )


def small_set_cap(p: float) -> int:
    """2^(2^l) with l = floor(log2 p): the set size a doubled max controls."""
    return _doubly_exponential(truncation_level(p))


def small_set_moment_bound(
    individual_bounds, p: float, set_size: int | None = None
) -> MomentBound:
    """Supremum moment over a small set: twice the largest individual bound.

    Valid whenever the set size is at most 2^(2^l), l = floor(log2 p);
    then (E sup_t |X_t|^p)^(1/p) <= 2 * sup_t (E|X_t|^p)^(1/p).
    """
    p = check_real("moment order p", p, 1.0)
    vals = np.asarray(individual_bounds, dtype=float)
    if vals.size == 0:
        raise DomainError("individual_bounds must be nonempty")
    if np.any(~np.isfinite(vals)) or np.any(vals < 0):
        raise DomainError("individual moment bounds must be finite and >= 0")
    size = check_int("set_size", set_size, 1) if set_size is not None else int(vals.size)
    cap = small_set_cap(p)
    if size > cap:
        raise DomainError(
            f"set size {size} exceeds the order-{p:g} cap 2^(2^{truncation_level(p)}) = {cap}"
        )
    value = 2.0 * float(vals.max())
    return MomentBound(
        p=p,
        decomposition=(("doubled-max", value),),
        constants={"cap": float(min(cap, 2**63))},
        name="small-set",
    )


def union_bound_constant() -> float:
    """Partial sum 2 * sum_n exp(2^n * (2*(ln 2 - 1) + 1/2)) to convergence.

    The exponent rate 2*(ln 2 - 1) + 1/2 is negative, so the doubly
    geometric series converges extremely fast; the value (about 5.83) is
    independent of alpha and is below the crude ceiling 16.
    """
    rate = 2.0 * (_LOG2 - 1.0) + 0.5
    total = 0.0
    for n in range(128):
        term = math.exp(rate * 2.0**n)
        total += term
        if term < 1e-18:  # far below one ulp of the total
            break
    return 2.0 * total


def union_bound_probability(
    alpha: float,
    u: float,
    p: float,
    registry: ConstantRegistry = DEFAULT_REGISTRY,
) -> float:
    """c * exp(-p * u^alpha / 4) for u >= 2^(1/alpha), with the registry's c.

    This is the failure probability of the full chaining event across all
    levels above the truncation index.  The returned value is an upper
    bound and may exceed 1 (vacuous) for small u with the default c = 16.
    """
    alpha = check_real("alpha", alpha, 0.0, strict=True)
    p = check_real("moment order p", p, 1.0)
    u_min = alpha_power(2.0, 1.0 / alpha, "union bound threshold 2^(1/alpha)", alpha)
    if not u >= u_min:  # NaN fails too
        raise DomainError(
            f"union bound requires u >= 2^(1/alpha) = {u_min:.6g}, got {u}"
        )
    c, _ = registry.union_c()
    return c * math.exp(-p * u**alpha / 4.0)


def lp_tail_integral_bound(alpha: float, p: float) -> float:
    """Closed-form bound on int_0^inf p v^(p-1) exp(-p v^alpha / 4) dv.

    Equals (sqrt(2 pi)/2) * 2^(p/alpha) * (2/alpha)^(p/alpha + 1/2) * sqrt(p);
    evaluated in log space (may overflow to inf for extreme p/alpha).
    """
    alpha = check_real("alpha", alpha, 0.0, strict=True)
    log_j = _log_j(alpha, check_real("moment order p", p, 1.0))
    return math.exp(log_j) if log_j < 700.0 else math.inf


def _log_j(alpha: float, p: float) -> float:
    """log of lp_tail_integral_bound(alpha, p), for validated alpha and p."""
    return (
        0.5 * math.log(2.0 * math.pi)
        - _LOG2
        + (p / alpha) * _LOG2
        + (p / alpha + 0.5) * math.log(2.0 / alpha)
        + 0.5 * math.log(p)
    )


def lp_from_tail(
    gamma: float, c: float, u_star: float, alpha: float, p: float
) -> MomentBound:
    """Moment of a positive variable from a chaining-event tail premise.

    Premise: P(xi > gamma * u) <= c * exp(-p u^alpha / 4) for u >= u_star.
    The integration-by-parts argument gives the computable form

        (E xi^p)^(1/p) <= gamma * (c * J + u_star^p)^(1/p),

    with J = lp_tail_integral_bound(alpha, p).  Evaluated in log space so
    large p does not overflow the intermediate u_star^p.
    """
    alpha = check_real("alpha", alpha, 0.0, strict=True)
    p = check_real("moment order p", p, 1.0)
    check_real("scale gamma", gamma, 0.0)
    check_real("prefactor c", c, 0.0, strict=True)
    check_real("onset u_star", u_star, 0.0, strict=True)
    log_j = _log_j(alpha, p)
    log_sum = np.logaddexp(math.log(c) + log_j, p * math.log(u_star))
    value = gamma * math.exp(log_sum / p)
    return MomentBound(
        p=p,
        decomposition=(("scaled-tail-integral", value),),
        constants={"log_integral_bound": log_j},
        name="lp-from-tail",
    )


@dataclass(frozen=True)
class BernsteinParams:
    """Deviation parameters for an average of m independent summands.

    sigma/K come from the factorial moment condition
    (1/m) sum_i E|X_i|^q <= (q!/2) sigma^2 K^(q-2); nu/kappa are the
    psi_1 quadratic mean and max, usable whenever the summands are
    subexponential.
    """

    m: int
    sigma: float | None = None
    K: float | None = None
    nu: float | None = None
    kappa: float | None = None

    def __post_init__(self):
        check_int("sample count m", self.m, 1)
        for label in ("sigma", "K", "nu", "kappa"):
            v = getattr(self, label)
            if v is not None:
                check_real(f"parameter {label}", v, 0.0)
        if self.nu is not None and self.kappa is not None and self.nu > self.kappa * (1 + 1e-12):
            raise DomainError(
                f"psi_1 quadratic mean nu = {self.nu} cannot exceed the max kappa = {self.kappa}"
            )

    @classmethod
    def from_psi1_norms(cls, norms, sigma: float | None = None, K: float | None = None):
        """nu = quadratic mean, kappa = max of the summands' psi_1 norms."""
        vals = []
        for x in norms:
            v = getattr(x, "value", x)
            a = getattr(x, "alpha", None)
            if a is not None and not math.isclose(a, 1.0):
                raise DomainError(f"psi_1 norms required, got alpha = {a}")
            vals.append(float(v))
        arr = np.asarray(vals, dtype=float)
        if arr.size == 0:
            raise DomainError("at least one psi_1 norm is required")
        nu = float(np.sqrt(np.mean(arr**2)))
        kappa = float(arr.max())
        return cls(m=int(arr.size), sigma=sigma, K=K, nu=nu, kappa=kappa)


def bernstein_tail(
    params: BernsteinParams, u: float | None = None, form: str = "moment-condition"
) -> TailBound:
    """Deviation of the average of m independent centered summands.

        P(|mean| >= (s/sqrt(m)) sqrt(2u) + (k/m) u) <= 2 exp(-u)   (u >= 0),

    where (s, k) = (sigma, K) under the factorial moment condition or
    (nu, kappa) in the psi_1 form.
    """
    if form == "moment-condition":
        s, k = params.sigma, params.K
    elif form == "psi1":
        s, k = params.nu, params.kappa
    else:
        raise DomainError(f"unknown form {form!r}; use 'moment-condition' or 'psi1'")
    if s is None or k is None:
        raise DomainError(f"BernsteinParams lacks the parameters for form {form!r}")
    m = float(params.m)
    bound = TailBound(
        factor=1.0,
        const=0.0,
        sqrt_coeff=s * math.sqrt(2.0) / math.sqrt(m),
        linear=k / m,
        envelope=PowerEnvelope(prefactor=2.0, rate=1.0, power=1.0),
        u_min=0.0,
        constants={"m": m},
        name=f"bernstein-{form}",
    )
    if u is not None:
        bound.threshold(u)
    return bound
