"""Orlicz norms for the exponential Young functions psi_alpha.

psi_alpha(x) = exp(x^alpha) - 1.  The norm of X is the smallest C > 0 with
E psi_alpha(|X|/C) <= 1.  Closed forms exist for constants (c / (log 2)^(1/alpha))
and for centered Gaussians at alpha = 2 (sigma * sqrt(8/3), from solving
(1 - 2 sigma^2 / C^2)^(-1/2) = 2); bounded variables inherit the constant-case
value as an upper bound.  Everything else goes through bisection against the
empirical (or quadrature) expectation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    UnsupportedFamilyError,
    check_array,
    check_real,
)

__all__ = [
    "OrliczNorm",
    "psi_norm_analytic",
    "psi_norm_empirical",
    "psi_product_bound",
]

LOG2 = math.log(2.0)
# psi_norm_empirical's bisection: relative bracket width at which it stops,
# and the most halvings it takes to bracket the norm or to narrow the bracket.
_BISECTION_TOL = 1e-6
_BISECTION_MAX_ITER = 200


@dataclass(frozen=True)
class OrliczNorm:
    """A psi_alpha norm value with its provenance."""

    alpha: float
    value: float
    source: str  # "analytic" | "empirical"
    sample_count: int | None = None

    def __post_init__(self):
        check_real("alpha", self.alpha, 0.0, strict=True)
        check_real("norm value", self.value, 0.0)


def psi_norm_analytic(family: str, parameter: float, alpha: float) -> OrliczNorm:
    """Closed-form norms: constant / symmetric-sign / centered gaussian / bounded.

    "constant" and "symmetric-sign" with magnitude c give c / (log 2)^(1/alpha)
    for any alpha; "gaussian" (std sigma) requires alpha = 2 and gives
    sigma * sqrt(8/3); "bounded" with range [-b, b] is upper-bounded by the
    constant case.
    """
    check_real("alpha", alpha, 0.0, strict=True)
    parameter = check_real("family parameter", parameter, 0.0)
    if family in ("constant", "symmetric-sign", "bounded"):
        scale = LOG2 ** (1.0 / alpha)
        if scale < 1.0 / sys.float_info.max:  # 1 / scale overflows, or scale is 0
            raise DomainError(
                f"psi_alpha norm factor (log 2)^(-1/alpha) is not finite at alpha = {alpha:g}"
            )
        return OrliczNorm(alpha, parameter / scale, "analytic")
    if family == "gaussian":
        if alpha != 2:
            raise UnsupportedFamilyError(
                "no closed form for a gaussian psi_alpha norm with alpha != 2; "
                "use psi_norm_empirical on samples"
            )
        return OrliczNorm(2.0, parameter * math.sqrt(8.0 / 3.0), "analytic")
    raise UnsupportedFamilyError(f"unknown analytic family {family!r}")


def _mean_psi(abs_samples: np.ndarray, c: float, alpha: float) -> float:
    with np.errstate(over="ignore"):
        vals = np.expm1((abs_samples / c) ** alpha)
    return float(np.mean(vals))  # inf propagates, which reads as > 1


def psi_norm_empirical(samples, alpha: float) -> OrliczNorm:
    """Bisection for the smallest C with mean psi_alpha(|x_i|/C) <= 1.

    Complex samples contribute their modulus.  Returns the feasible (upper)
    end of the final bracket, so the defining condition holds at the reported
    value and fails below value * (1 - _BISECTION_TOL), that is 1e-6 relative.
    """
    check_real("alpha", alpha, 0.0, strict=True)
    arr = np.abs(check_array("samples", samples, None, complex_ok=True)).ravel()
    top = float(arr.max())
    if top == 0.0:
        return OrliczNorm(alpha, 0.0, "empirical", sample_count=arr.size)
    # The all-mass-at-max constant case is always feasible.
    hi = psi_norm_analytic("constant", top, alpha).value
    lo = hi / 2.0
    guard = 0
    while _mean_psi(arr, lo, alpha) <= 1.0:
        hi = lo
        lo /= 2.0
        guard += 1
        if guard > _BISECTION_MAX_ITER:
            raise ConvergenceError("could not bracket the Orlicz norm from below")
    it = 0
    while (hi - lo) > _BISECTION_TOL * hi:
        it += 1
        if it > _BISECTION_MAX_ITER:
            raise ConvergenceError(
                f"Orlicz bisection did not converge in {_BISECTION_MAX_ITER} iterations"
            )
        mid = 0.5 * (hi + lo)
        if _mean_psi(arr, mid, alpha) <= 1.0:
            hi = mid
        else:
            lo = mid
    return OrliczNorm(alpha, hi, "empirical", sample_count=arr.size)


def psi_product_bound(x: OrliczNorm, y: OrliczNorm) -> OrliczNorm:
    """psi_1 norm bound for a product: ||XY||_1 <= ||X||_2 ||Y||_2."""
    if x.alpha != 2 or y.alpha != 2:
        raise DomainError(
            f"product bound needs two psi_2 norms, got alpha {x.alpha} and {y.alpha}"
        )
    return OrliczNorm(1.0, x.value * y.value, "analytic")
