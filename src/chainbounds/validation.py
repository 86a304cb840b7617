"""Empirical validation of tail/moment bounds against simulation samples.

Exceedance frequencies get one-sided Clopper-Pearson confidence bounds.
Moment estimates (E sup^p)^(1/p) get one of two intervals, and each
estimate, and each moment row, names its method:

- "dkw" where the sample declares an almost-sure bound B on its values
  (SupremumSample.value_bound, set by the simulator from its model): each
  end integrates the one-sided DKW band of the sorted sample, with
  Massart's constant, against d(y^p) (Anderson, 1969).  It holds at its
  level for every sample size and takes one sort, no resampling;
- "bootstrap" otherwise (Gaussian drivers): a percentile bootstrap, which
  holds only asymptotically.

A bound is reported "dominated" only when the confidence bound itself
clears the envelope, and a fitted bound can never be labelled
paper-confirmed no matter how well it dominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, block_step, check_int, check_number, check_real
from .processes import SupremumSample
from .results import MomentBound, TailBound

__all__ = [
    "MomentEstimate",
    "ValidationReport",
    "estimate_moments",
    "exceedance_upper_bound",
    "exceedance_lower_bound",
    "validate_bound",
]

# The one statistical rule behind every verdict, read at call time: one-sided
# Clopper-Pearson bounds at level CONFIDENCE on each exceedance, and on each
# moment a DKW interval whose ends are one-sided at level CONFIDENCE, or a
# percentile bootstrap of BOOTSTRAP_RESAMPLES resamples where no bound is declared.
BOOTSTRAP_RESAMPLES = 1000
CONFIDENCE = 0.99
_METHODS = ("dkw", "bootstrap")


def _bootstrap_rng(seed: int) -> np.random.Generator:
    # Counter word 3 keeps this stream disjoint from the simulators' block
    # streams, which use counter word 2.
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, 1]))


def _bootstrap_means(columns: np.ndarray, rng: np.random.Generator, resamples: int) -> np.ndarray:
    """(resamples, P) means of each row of the (P, n) columns over resampled indices.

    Resamples are drawn k = block_step(n) at a time: one (k, n) draw
    is the stream of k successive n-draws, and every row is still reduced
    along the contiguous axis, so each mean is bit for bit the
    one-resample-per-draw value.
    """
    n = columns.shape[1]
    boot = np.empty((resamples, columns.shape[0]))
    k = block_step(n)
    for b in range(0, resamples, k):
        idx = rng.integers(0, n, (min(k, resamples - b), n))
        boot[b:b + idx.shape[0]] = columns.take(idx, axis=1).mean(axis=2).T
    return boot


@dataclass(frozen=True)
class MomentEstimate:
    """(E sup^p)^(1/p) with its interval; resamples is 0 for method "dkw"."""

    p: float
    estimate: float
    ci_low: float
    ci_high: float
    resamples: int
    method: str

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DomainError(f"unknown moment method {self.method!r}; expected one of "
                              f"{_METHODS}")
        if not self.ci_low <= self.estimate <= self.ci_high:
            raise DomainError("moment interval must contain the point estimate")


def _entries(values) -> list:
    """The entries of a scalar, a sequence or an array, each as given, so that
    a check names the entry itself rather than a numpy coercion of it."""
    return list(values) if isinstance(values, (list, tuple)) or np.ndim(values) else [values]


def _moment_orders(p_list) -> list[float]:
    """A moment estimate's orders p >= 1, checked entry by entry; at least one."""
    orders = [check_real("moment order p", p, 1.0) for p in _entries(p_list)]
    if not orders:
        raise DomainError("moment orders need a nonempty p_list")
    return orders


def _u_grid(u_grid) -> np.ndarray:
    """A tail validation's u values, typed by entry; NaN and the range are the bound's to refuse."""
    if u_grid is None:
        raise DomainError("tail-bound validation needs a u_grid")
    grid = np.array([check_number("u_grid entry", u) for u in _entries(u_grid)])
    if grid.size == 0:
        raise DomainError("tail-bound validation needs a nonempty u_grid")
    return grid


def _dkw_ends(values: np.ndarray, bound: float, p_list: list) -> list[tuple[float, float]]:
    """(lower, upper) end of (E Y^p)^(1/p) for each p, from a sample of Y in [0, bound].

    E Y^p is the integral of P(Y > y) d(y^p) over [0, bound].  With
    probability at least CONFIDENCE each, P(Y > y) <= S_n(y) + eps for
    every y, and P(Y > y) >= S_n(y) - eps for every y, where S_n is the
    sample's survival function and eps = sqrt(ln(1/(1 - CONFIDENCE)) / (2n))
    (the one-sided DKW inequality with Massart's constant).  Each end
    integrates its side of the band, clipped to [0, 1].  On the sorted
    sample y_1 <= ... <= y_n the band is a step function, so each integral
    is a weighted sum of the y_i^p plus, for the upper end, eps bound^p.
    The upper end is computed on values / bound and the lower end on
    values / max, so every power lies in [0, 1] and a large p cannot overflow.
    """
    y = np.sort(values)
    n = y.size
    eps = math.sqrt(math.log(1.0 / (1.0 - CONFIDENCE)) / (2.0 * n))
    survival = (n - np.arange(n + 1)) / n  # S_n on [y_i, y_{i+1}), i = 0..n, y_0 = 0
    high = np.minimum(1.0, survival + eps)
    low = np.maximum(0.0, survival - eps)  # 0 past y_n, so the lower end never reads bound
    top = float(y[-1]) or 1.0
    end = bound or 1.0
    ends = []
    for p in p_list:
        upper = (high[:-1] - high[1:]) @ (y / end) ** p + high[-1] * (bound / end) ** p
        lower = (low[:-1] - low[1:]) @ (y / top) ** p
        ends.append((top * float(lower) ** (1.0 / p), end * float(upper) ** (1.0 / p)))
    return ends


def _bootstrap_ends(columns: np.ndarray, top: float, seed: int, p_list: list):
    """(lower, upper) percentile-bootstrap end of (E Y^p)^(1/p) for each p,
    from the rows (values / top)^p of columns."""
    boot = _bootstrap_means(columns, _bootstrap_rng(seed), BOOTSTRAP_RESAMPLES)
    lo, hi = 100.0 * (1.0 - CONFIDENCE), 100.0 * CONFIDENCE
    roots = [top * boot[:, j] ** (1.0 / p) for j, p in enumerate(p_list)]
    return [(float(np.percentile(r, lo)), float(np.percentile(r, hi))) for r in roots]


def estimate_moments(sample: SupremumSample, p_list) -> list[MomentEstimate]:
    """(E sup^p)^(1/p) point estimates, each with an interval whose ends are
    one-sided at level CONFIDENCE.

    Where the sample declares a bound (sample.value_bound, which only the
    simulators set, from their model), the interval comes from the DKW band
    of the sorted sample, method "dkw"; otherwise from a percentile bootstrap
    of BOOTSTRAP_RESAMPLES resamples, method "bootstrap".  Either interval
    is widened, where rounding leaves it short, to hold the point estimate.
    """
    values = sample.values
    if values.size == 0:
        raise DomainError("cannot estimate moments from an empty sample")
    p_list = _moment_orders(p_list)
    # Powers of values / max (max taken as 1 for an all-zero sample) stay in
    # [0, 1], so a large p cannot overflow; the roots are scaled back by max.
    top = float(values.max()) or 1.0
    columns = np.stack([(values / top) ** p for p in p_list])  # one contiguous row per p
    if sample.value_bound is None:
        method, resamples = "bootstrap", BOOTSTRAP_RESAMPLES
        ends = _bootstrap_ends(columns, top, sample.seed, p_list)
    else:
        method, resamples = "dkw", 0
        ends = _dkw_ends(values, sample.value_bound, p_list)
    out = []
    for p, row, (low, high) in zip(p_list, columns, ends):
        est = top * float(row.mean()) ** (1.0 / p)
        out.append(MomentEstimate(p, est, min(low, est), max(high, est), resamples, method))
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
    bounds are checked at their own order p against estimate_moments'
    interval, and each moment row names its method.
    """
    values = sample.values
    n = values.size
    if isinstance(bound, TailBound):
        u_grid = _u_grid(u_grid)
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
                "method": est.method,
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
