"""Schatten norms of matrix sets and the operator-norm metric they induce.

The chaos bounds consume a matrix family only through four summaries: the
radii sup ||A||_{S^q} for q in {2, 4, inf} and a gamma_2 estimate of the
family under the operator-norm metric.  This module computes those from
singular values and hands the metric space to the chaining machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaining import GAMMA_EXACT_CAP, GammaEstimate, gamma_exact, gamma_greedy
from .errors import DomainError
from .metric import FiniteMetricSpace, _pairwise, _resolve_mode, build_metric_space

__all__ = ["schatten_norm", "SchattenRadii", "matrix_set_space", "schatten_radii"]

_ORDER_RTOL = 1e-9


def _as_matrix(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.size == 0:
        raise DomainError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
    return arr.astype(complex)


def schatten_norm(a, q: float) -> float:
    """l^q norm of the singular values; q = inf is the operator norm."""
    arr = _as_matrix(a)
    s = np.linalg.svd(arr, compute_uv=False)
    if math.isinf(q):
        return float(s.max(initial=0.0))
    if q < 1:
        raise DomainError(f"Schatten exponent must be >= 1 or inf, got {q}")
    return float(np.sum(s**q) ** (1.0 / q))


@dataclass(frozen=True)
class SchattenRadii:
    """Radii of a matrix set for q in {2, 4, inf}, plus a gamma_2 estimate.

    Per-matrix norm comparisons survive the supremum, so any honestly
    constructed instance satisfies delta_inf <= delta_4 <= delta_2 and the
    interpolation delta_4^2 <= delta_2 * delta_inf; both are enforced here.
    """

    delta_2: float
    delta_4: float
    delta_inf: float
    gamma2_dinf: GammaEstimate | None = None
    space: FiniteMetricSpace | None = None

    def __post_init__(self):
        for label, v in (
            ("delta_2", self.delta_2),
            ("delta_4", self.delta_4),
            ("delta_inf", self.delta_inf),
        ):
            if not (math.isfinite(v) and v >= 0):
                raise DomainError(f"radius {label} must be finite and >= 0, got {v}")
        slack = _ORDER_RTOL * max(1.0, self.delta_2)
        if self.delta_inf > self.delta_4 + slack or self.delta_4 > self.delta_2 + slack:
            raise DomainError(
                "radii must satisfy delta_inf <= delta_4 <= delta_2, got "
                f"({self.delta_2}, {self.delta_4}, {self.delta_inf})"
            )
        if self.delta_4**2 > self.delta_2 * self.delta_inf + slack * max(1.0, self.delta_2):
            raise DomainError(
                "radii must satisfy the interpolation delta_4^2 <= delta_2 * delta_inf"
            )


def _matrix_stack(matrices) -> np.ndarray:
    mats = [_as_matrix(a) for a in matrices]
    if not mats:
        raise DomainError("matrix set must be nonempty")
    shape = mats[0].shape
    for k, a in enumerate(mats):
        if a.shape != shape:
            raise DomainError(
                f"matrix {k} has shape {a.shape}, expected {shape} like matrix 0"
            )
    return np.stack(mats)


def matrix_set_space(matrices, labels=None) -> FiniteMetricSpace:
    """Finite metric space of the matrices under the operator-norm distance.

    Distances are the largest singular values of the differences, one batched
    SVD per block of metric's pairwise kernel; more than MAX_POINTS matrices
    are refused before any SVD runs.
    """
    dist = _pairwise(_matrix_stack(matrices),
                     lambda diff: np.linalg.svd(diff, compute_uv=False).max(axis=-1, initial=0.0))
    return build_metric_space(dist, labels=labels)


def schatten_radii(matrices, gamma_mode: str = "auto", p: float = 1.0) -> SchattenRadii:
    """Radii for q in {2, 4, inf} and a gamma_2 estimate under d_inf.

    gamma_mode picks the chaining estimator: "exact" enumerates admissible
    sequences (small sets only), "greedy" uses farthest-point sequences,
    "auto" switches on the exact cap, and "none" skips the estimate.
    """
    stack = _matrix_stack(matrices)
    svals = np.linalg.svd(stack, compute_uv=False)  # one row of singular values per matrix
    d2 = float(np.sqrt((svals**2).sum(axis=1)).max())
    d4 = float(((svals**4).sum(axis=1) ** 0.25).max())
    dinf = float(svals.max(axis=1).max()) if svals.size else 0.0
    if gamma_mode == "none":
        return SchattenRadii(delta_2=d2, delta_4=d4, delta_inf=dinf)
    gamma_mode = _resolve_mode(gamma_mode, stack.shape[0], GAMMA_EXACT_CAP)
    space = matrix_set_space(matrices)
    est = (gamma_exact if gamma_mode == "exact" else gamma_greedy)(space, alpha=2.0, p=p)
    return SchattenRadii(delta_2=d2, delta_4=d4, delta_inf=dinf, gamma2_dinf=est, space=space)
