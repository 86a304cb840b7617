"""Empirical validation of tail/moment bounds against simulation samples.

Exceedance frequencies get one-sided Clopper-Pearson confidence bounds;
moment estimates get percentile-bootstrap intervals.  A bound is reported
"dominated" only when the confidence bound itself clears the envelope, and
a fitted bound can never be labelled paper-confirmed no matter how well it
dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chaining
from .errors import DomainError, check_int, check_number, check_real
from .processes import SupremumSample, exact_chaos_distribution, sign_patterns
from .results import MomentBound, TailBound
from .schatten import _matrix_stack

__all__ = [
    "MomentEstimate",
    "ValidationReport",
    "estimate_moments",
    "exceedance_upper_bound",
    "exceedance_lower_bound",
    "validate_bound",
    "check_symmetrization_decoupling",
]

# The one statistical rule behind every verdict, read at call time: one-sided
# Clopper-Pearson bounds at level CONFIDENCE on each exceedance, and a
# percentile bootstrap of BOOTSTRAP_RESAMPLES resamples on each moment.
BOOTSTRAP_RESAMPLES = 1000
CONFIDENCE = 0.99
_RESAMPLE_BLOCK = 1 << 15  # indices per bootstrap draw, once n is below it


def _bootstrap_rng(seed: int) -> np.random.Generator:
    # Counter word 3 keeps this stream disjoint from the simulators' block
    # streams, which use counter word 2.
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, 1]))


def _bootstrap_means(columns: np.ndarray, rng: np.random.Generator, resamples: int) -> np.ndarray:
    """(resamples, P) means of each row of the (P, n) columns over resampled indices.

    Resamples are drawn k = _RESAMPLE_BLOCK // n at a time: one (k, n) draw is
    the stream of k successive n-draws, and every row is still reduced along
    the contiguous axis, so each mean is bit for bit the one-resample-per-draw
    value.  At n >= _RESAMPLE_BLOCK this is one resample per draw.
    """
    n = columns.shape[1]
    boot = np.empty((resamples, columns.shape[0]))
    k = max(1, _RESAMPLE_BLOCK // n)
    for b in range(0, resamples, k):
        idx = rng.integers(0, n, (min(k, resamples - b), n))
        boot[b:b + idx.shape[0]] = columns.take(idx, axis=1).mean(axis=2).T
    return boot


@dataclass(frozen=True)
class MomentEstimate:
    p: float
    estimate: float
    ci_low: float
    ci_high: float
    resamples: int

    def __post_init__(self):
        if not self.ci_low <= self.estimate <= self.ci_high:
            raise DomainError("bootstrap interval must contain the point estimate")


def _entries(values) -> list:
    """The entries of a scalar, a sequence or an array, each as given, so that
    a check names the entry itself rather than a numpy coercion of it."""
    return list(values) if isinstance(values, (list, tuple)) or np.ndim(values) else [values]


def estimate_moments(sample: SupremumSample, p_list) -> list[MomentEstimate]:
    """(E sup^p)^(1/p) point estimates with percentile-bootstrap intervals."""
    values = sample.values
    if values.size == 0:
        raise DomainError("cannot estimate moments from an empty sample")
    p_list = [check_real("moment order p", p, 1.0) for p in _entries(p_list)]
    # Powers of values / max (max taken as 1 for an all-zero sample) stay in
    # [0, 1], so a large p cannot overflow; the roots are scaled back by max.
    top = float(values.max()) or 1.0
    columns = np.stack([(values / top) ** p for p in p_list])  # one contiguous row per p
    boot = _bootstrap_means(columns, _bootstrap_rng(sample.seed), BOOTSTRAP_RESAMPLES)
    lo, hi = 100.0 * (1.0 - CONFIDENCE), 100.0 * CONFIDENCE
    out = []
    for j, p in enumerate(p_list):
        root = top * boot[:, j] ** (1.0 / p)
        est = top * float(columns[j].mean()) ** (1.0 / p)
        ci_low = min(float(np.percentile(root, lo)), est)
        ci_high = max(float(np.percentile(root, hi)), est)
        out.append(MomentEstimate(p, est, ci_low, ci_high, BOOTSTRAP_RESAMPLES))
    return out


def _exceedance_args(k, n) -> tuple[int, int]:
    n = check_int("trial count n", n, 1)
    return check_int("exceedance count k", k, 0, n), n


def exceedance_upper_bound(k: int, n: int) -> float:
    """One-sided Clopper-Pearson upper bound at level CONFIDENCE for k
    exceedances in n trials."""
    k, n = _exceedance_args(k, n)
    if k == n:
        return 1.0
    from scipy.special import betaincinv  # here, so that importing the package loads no scipy

    return float(betaincinv(k + 1, n - k, CONFIDENCE))


def exceedance_lower_bound(k: int, n: int) -> float:
    """One-sided Clopper-Pearson lower bound at level CONFIDENCE for k
    exceedances in n trials."""
    k, n = _exceedance_args(k, n)
    if k == 0:
        return 0.0
    from scipy.special import betaincinv

    return float(betaincinv(k, n - k + 1, 1.0 - CONFIDENCE))


@dataclass(frozen=True)
class ValidationReport:
    """Grid-point comparison of a bound against one simulation sample."""

    bound: TailBound | MomentBound
    rows: tuple
    verdict: str
    paper_confirmed: bool

    def __post_init__(self):
        if self.verdict not in ("dominated", "violated", "inconclusive"):
            raise DomainError(f"unknown verdict {self.verdict!r}")
        if self.paper_confirmed and getattr(self.bound, "fitted", True):
            raise DomainError("a fitted bound can never be paper-confirmed")


def _verdict(low: float, high: float, limit: float) -> str:
    """[low, high] against limit: dominated if high <= limit, violated if low > limit."""
    if high <= limit:
        return "dominated"
    if low > limit:
        return "violated"
    return "inconclusive"


def _overall(rows) -> str:
    verdicts = [r["verdict"] for r in rows]
    if "violated" in verdicts:
        return "violated"
    if all(v == "dominated" for v in verdicts):
        return "dominated"
    return "inconclusive"


def validate_bound(
    sample: SupremumSample,
    bound: TailBound | MomentBound,
    u_grid=None,
) -> ValidationReport:
    """Compare a bound with empirical exceedances (tail) or moments (moment).

    Tail bounds need a u_grid; each row records (u, threshold, envelope,
    empirical frequency, one-sided upper confidence bound, verdict), with
    verdict "dominated" iff the upper confidence bound is <= the envelope
    and "violated" iff even the lower confidence bound exceeds it.  Moment
    bounds are checked at their own order p against the bootstrap interval.
    """
    values = sample.values
    n = values.size
    if isinstance(bound, TailBound):
        if u_grid is None:
            raise DomainError("tail-bound validation needs a u_grid")
        # Types by entry here; NaN and the range are the bound's to refuse.
        u_grid = np.array([check_number("u_grid entry", u) for u in _entries(u_grid)])
        if u_grid.size == 0:
            raise DomainError("tail-bound validation needs a nonempty u_grid")
        rows = []
        for u in u_grid:
            thr = bound.threshold(u)
            env = float(bound.probability(u))
            k = int(np.count_nonzero(values >= thr))
            upper = exceedance_upper_bound(k, n)
            lower = exceedance_lower_bound(k, n)
            rows.append(
                {
                    "u": float(u),
                    "threshold": thr,
                    "envelope": env,
                    "empirical": k / n,
                    "ci_upper": upper,
                    "verdict": _verdict(lower, upper, env),
                }
            )
    elif isinstance(bound, MomentBound):
        (est,) = estimate_moments(sample, [bound.p])
        rows = [
            {
                "p": bound.p,
                "threshold": bound.value,
                "envelope": float("nan"),
                "empirical": est.estimate,
                "ci_upper": est.ci_high,
                "verdict": _verdict(est.ci_low, est.ci_high, bound.value),
            }
        ]
    else:
        raise DomainError(f"cannot validate object of type {type(bound).__name__}")
    overall = _overall(rows)
    return ValidationReport(
        bound=bound,
        rows=tuple(rows),
        verdict=overall,
        paper_confirmed=(overall == "dominated" and not bound.fitted),
    )


def _lp_of_mean(powered: np.ndarray, weights: np.ndarray | None, p: float) -> float:
    mean = powered.mean() if weights is None else float(weights @ powered)
    return mean ** (1.0 / p)


def check_symmetrization_decoupling(
    matrices,
    *,
    selector_prob: float = 0.5,
    table=None,
    p_list=(1.0, 2.0, 4.0),
) -> dict:
    """Exhaustively verify two reduction inequalities on a small matrix family.

    Decoupling: with B = A^H A per family member and Rademacher xi,
        (E sup_A |sum_{i != j} B_ij xi_i xi_j|^p)^(1/p)
            <= 4 (E E' sup_A |xi . B xi'|^p)^(1/p),
    evaluated exactly over all sign patterns (and pattern pairs).

    Symmetrization: with independent selectors theta_i ~ Bernoulli(q) and a
    nonnegative value table v (default: the diagonals of the B matrices),
        (E sup_rows |sum_i (theta_i - q) v_i|^p)^(1/p)
            <= 2 (E E_eps sup_rows |sum_i eps_i theta_i v_i|^p)^(1/p),
    again exactly over all selector and sign patterns.

    Both sides tabulate pattern pairs: k 4^n entries for k matrices (or k
    table rows) of dimension n, refused with CapacityError before any table
    is built when that passes chaining._TABLE_BUDGET.
    """
    stack = _matrix_stack(matrices)
    n = stack.shape[2]
    if not 0.0 < check_number("selector_prob", selector_prob) < 1.0:
        raise DomainError(f"selector_prob must lie in (0, 1), got {selector_prob}")
    p_list = [check_real("moment order p", p, 1.0) for p in p_list]
    if table is not None:
        v = np.asarray(table, dtype=float)
        if v.ndim != 2 or v.shape[1] != n:
            raise DomainError(f"table must be 2-D with {n} columns, got shape {v.shape}")
        chaining._check_table_budget(f"table row count k = {len(v)}, dimension n = {n}: "
                                     "a pair table", len(v) * 4**n)

    bilinear_sup = exact_chaos_distribution(stack, decoupled=True)  # first: it checks k 4^n
    grams = np.einsum("kmi,kmj->kij", stack.conj(), stack)
    signs = sign_patterns(n)
    # Off-diagonal chaos per sign pattern: xi.B xi - tr(B).
    quad = np.einsum("ai,kij,aj->ka", signs, grams, signs).real
    traces = np.einsum("kii->k", grams).real
    offdiag_sup = np.abs(quad - traces[:, None]).max(axis=0)
    decoupling = []
    for p in p_list:
        lhs = _lp_of_mean(offdiag_sup**p, None, p)
        rhs = 4.0 * _lp_of_mean(bilinear_sup**p, None, p)
        decoupling.append({"p": p, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1 + 1e-12)})

    if table is None:
        v = np.einsum("kii->ki", grams).real.copy()
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise DomainError("symmetrization table values must be finite and nonnegative")
    q = selector_prob
    selectors = 0.5 * (sign_patterns(n) + 1.0)
    weights = (q**selectors.sum(axis=1)) * ((1 - q) ** (n - selectors.sum(axis=1)))
    centered_sup = np.abs((selectors - q) @ v.T).max(axis=1)
    # For each selector pattern, average over all sign patterns of the
    # symmetrized sup; selected = theta_i v_i row by row.
    symmetrization = []
    signed = np.abs(np.einsum("ai,si,ki->ska", signs, selectors, v)).max(axis=1)
    for p in p_list:
        lhs = _lp_of_mean(centered_sup**p, weights, p)
        inner = (signed**p).mean(axis=1)
        rhs = 2.0 * _lp_of_mean(inner, weights, p)
        symmetrization.append({"p": p, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1 + 1e-12)})

    holds = all(r["holds"] for r in decoupling) and all(r["holds"] for r in symmetrization)
    return {
        "dimension": n,
        "family_size": stack.shape[0],
        "decoupling": decoupling,
        "symmetrization": symmetrization,
        "holds": holds,
    }
