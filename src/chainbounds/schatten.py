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

from .chaining import GammaEstimate, _gamma_search
from .errors import DomainError, check_array, check_number, check_real, power_reduce, square
from .metric import FiniteMetricSpace, _pairwise, build_metric_space

__all__ = ["schatten_norm", "SchattenRadii", "matrix_set_space", "schatten_radii"]

_ORDER_RTOL = 1e-9


def schatten_norm(a, q: float) -> float:
    """l^q norm of the singular values; q = inf is the operator norm."""
    s = np.linalg.svd(check_array("a", a, 2, complex_ok=True), compute_uv=False)
    q = check_number("Schatten exponent", q)
    if q == math.inf:
        return float(s.max(initial=0.0))
    if not q >= 1:
        raise DomainError(f"Schatten exponent must be >= 1 or inf, got {q}")
    return float(power_reduce(lambda v: np.sum(v**q) ** (1.0 / q), s))


@dataclass(frozen=True)
class SchattenRadii:
    """Radii of a matrix set for q in {2, 4, inf}, its gamma_2 estimate under
    d_inf and the metric space under d_inf that the estimate was computed on.

    Per-matrix norm comparisons survive the supremum, so any honestly
    constructed instance satisfies delta_inf <= delta_4 <= delta_2 and the
    interpolation delta_4^2 <= delta_2 * delta_inf; both are enforced here.
    """

    delta_2: float
    delta_4: float
    delta_inf: float
    gamma2_dinf: GammaEstimate
    space: FiniteMetricSpace

    def __post_init__(self):
        for label in ("delta_2", "delta_4", "delta_inf"):
            check_real(f"radius {label}", getattr(self, label), 0.0)
        slack = _ORDER_RTOL * max(1.0, self.delta_2)
        if self.delta_inf > self.delta_4 + slack or self.delta_4 > self.delta_2 + slack:
            raise DomainError(
                "radii must satisfy delta_inf <= delta_4 <= delta_2, got "
                f"({self.delta_2}, {self.delta_4}, {self.delta_inf})"
            )
        if square(self.delta_4) > self.delta_2 * self.delta_inf + slack * max(1.0, self.delta_2):
            raise DomainError(
                "radii must satisfy the interpolation delta_4^2 <= delta_2 * delta_inf"
            )


def _matrix_stack(matrices) -> np.ndarray:
    if not np.iterable(matrices):
        raise DomainError(f"matrices must be a family of matrices, got {type(matrices).__name__}")
    mats = [check_array(f"matrices[{k}]", a, 2, complex_ok=True) for k, a in enumerate(matrices)]
    if not mats:
        raise DomainError("matrices must be a nonempty family")
    shape = mats[0].shape
    for k, a in enumerate(mats):
        if a.shape != shape:
            raise DomainError(f"matrices[{k}] has shape {a.shape}, expected {shape} as matrices[0]")
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
    sequences (refused past the table budget), "greedy" uses farthest-point
    sequences, and "auto" is exact wherever that search is not refused and
    greedy elsewhere; any other mode is refused.
    """
    stack = _matrix_stack(matrices)
    svals = np.linalg.svd(stack, compute_uv=False)  # one row of singular values per matrix
    d2 = float(power_reduce(lambda v: np.sqrt((v**2).sum(axis=1)), svals).max())
    d4 = float(power_reduce(lambda v: (v**4).sum(axis=1) ** 0.25, svals).max())
    dinf = float(svals.max())
    search = _gamma_search(gamma_mode, stack.shape[0], p)  # refuses an unknown mode first
    space = matrix_set_space(matrices)
    est = search(space, alpha=2.0, p=p)
    return SchattenRadii(delta_2=d2, delta_4=d4, delta_inf=dinf, gamma2_dinf=est, space=space)
