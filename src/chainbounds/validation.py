"""Empirical validation of tail/moment bounds against simulation samples.

Exceedance frequencies get one-sided Clopper-Pearson confidence bounds.
Moment estimates (E sup^p)^(1/p) get their interval from one sort of the
sample and the one-sided DKW band with Massart's constant: with
probability at least CONFIDENCE each, P(sup > y) <= S_n(y) + eps for every
y, and P(sup > y) >= S_n(y) - eps for every y, where S_n is the sample's
survival function.  Each end integrates its side of the band against
d(y^p) (Anderson, 1969), so it holds at its level for every sample size.
Past the data the band alone bounds nothing, so the upper end also needs
what the simulator declared from its model, and each estimate, and each
moment row, names its method:

- "dkw" where the sample declares an almost-sure bound B on its values
  (SupremumSample.value_bound, bounded drivers): the upper end integrates
  the band up to B;
- "dkw-envelope" where it declares a tail envelope tau(y) >= P(sup > y)
  (SupremumSample.tail_envelope, Gaussian drivers): the upper end
  integrates min(1, S_n + eps, tau) over [0, inf), tau read at the left end
  of each step and a closed-form bound on tau beyond the last, so the end
  stays a certified bound.

A bound is reported "dominated" only when the confidence bound itself
clears the envelope, and a fitted bound can never be labelled
paper-confirmed no matter how well it dominates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, block_step, check_int, check_number, check_real, sum_last
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
# moment a DKW interval whose ends are one-sided at level CONFIDENCE.
CONFIDENCE = 0.99
_METHODS = ("dkw", "dkw-envelope")
# Steps of the grid past the sample maximum on which a tail envelope is read,
# and the most its closed-form rest beyond the grid may add, relative to the
# part of the upper end's integral over the data.
_TAIL_STEPS = 1024
_TAIL_SLACK = 2.0**-20


@dataclass(frozen=True)
class MomentEstimate:
    """(E sup^p)^(1/p) with its interval.

    resamples is always 0: no interval resamples.  The field stays while the
    benchmark's span recorder reads it.
    """

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


def _log_sum_exp(logs: np.ndarray) -> np.ndarray:
    """log sum_last(exp(logs)) without overflow; -inf for an empty or all -inf last axis."""
    top = np.max(logs, axis=-1, initial=-math.inf)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = top + np.log(sum_last(np.exp(logs - np.expand_dims(top, -1))))
    return np.where(top == -math.inf, -math.inf, out)


def _log_steps(left: np.ndarray, right: np.ndarray, p: float) -> np.ndarray:
    """log(right^p - left^p) for 0 <= left <= right; -inf where they are equal.
    1 - (left/right)^p is formed from right - left, so near steps keep their digits."""
    with np.errstate(invalid="ignore", divide="ignore"):
        steps = p * np.log(right) + np.log(-np.expm1(p * np.log1p((left - right) / right)))
    return np.where(right > left, steps, -math.inf)


def _capped_log_envelope(envelope, points: np.ndarray, log_level: np.ndarray) -> np.ndarray:
    """min(log_level, log tau) at each of the ascending points, with every level <= 1.

    tau is summed over its terms a block of points at a time, from the top
    down; tau decreases, so once it reaches 1 every lower point keeps its level.
    """
    capped = log_level.copy()
    step = block_step(max(1, envelope.l2.size))
    for hi in range(points.size, 0, -step):
        lo = max(0, hi - step)
        log_tau = _log_sum_exp(envelope.log_tail(points[lo:hi]))
        capped[lo:hi] = np.minimum(log_level[lo:hi], log_tau)
        if log_tau[0] >= 0.0:
            break
    return capped


def _log_rest(decay, end: float, p: float) -> float:
    """log of a bound on the integral of tau d(y^p) over [end, inf).

    Term j is at most K e^(-y^k / beta) (envelope.decay()), whose integral
    is K a beta^a Gamma(a, z), a = p / k, z = end^k / beta.  For
    z > max(a - 1, 0), Gamma(a, z) <= z^(a-1) e^-z z / (z - max(a - 1, 0)),
    so the term is at most end^p K a e^-z / (z - max(a - 1, 0)); inf where
    some z is not that large.
    """
    log_k, k, beta = decay
    a = p / k
    with np.errstate(over="ignore"):
        z = np.float64(end) ** k / beta
    room = z - max(a - 1.0, 0.0)
    if not (room > 0).all():
        return math.inf
    return p * math.log(end) + float(_log_sum_exp(log_k + math.log(a) - z - np.log(room)))


def _log_envelope_integral(envelope, y: np.ndarray, log_caps: np.ndarray, log_level: float,
                           p: float) -> float:
    """log of the integral of min(1, S_n + eps, tau) d(y^p) over [0, inf).

    log_caps are the band's levels capped by tau at the left end of each
    step [y_{i-1}, y_i) of the sorted sample y (y_0 = 0).  Past y_n the
    band is log_level; the grid runs in _TAIL_STEPS equal steps from y_n to
    an end chosen so that the closed-form rest beyond it (_log_rest) adds at
    most _TAIL_SLACK of the data part, and tau is read at each step's left
    end.  No choice of end makes the sum less of a bound, only a looser one.
    Every sum is of logs, so a tau or a power past the float range keeps its
    share.
    """
    data = float(_log_sum_exp(log_caps + _log_steps(np.concatenate([[0.0], y[:-1]]), y, p)))
    start = float(y[-1])
    if envelope.l2.size == 0:  # tau = 0: nothing past the data
        return data
    decay = envelope.decay()
    _, k, beta = decay
    with np.errstate(over="ignore"):
        end = max(start, float(np.max((beta * (p / k + 1.0)) ** (1.0 / k))))  # every z >= a + 1
    target = math.log(_TAIL_SLACK) + (data if data > -math.inf else math.log(5e-324))
    while True:
        if not math.isfinite(end):
            raise DomainError(f"the upper moment end at p = {p:g} is past the float range")
        rest = _log_rest(decay, end, p)
        if rest <= target:
            break
        end *= 1.25
    grid = np.linspace(start, end, _TAIL_STEPS + 1)
    caps = _capped_log_envelope(envelope, grid[:-1], np.full(_TAIL_STEPS, log_level))
    past = _log_sum_exp(caps + _log_steps(grid[:-1], grid[1:], p))
    return float(_log_sum_exp(np.array([data, past, rest])))


def _moment_ends(sample: SupremumSample, p_list: list) -> list[tuple[float, float]]:
    """(lower, upper) end of (E Y^p)^(1/p) for each p, each one-sided at level CONFIDENCE.

    E Y^p is the integral of P(Y > y) d(y^p).  On the sorted sample
    y_1 <= ... <= y_n the DKW band, eps = sqrt(ln(1/(1 - CONFIDENCE)) / (2n)),
    is a step function, clipped to [0, 1].  The lower end integrates
    S_n - eps, which is 0 past y_n: sum_i (l_i - l_{i+1}) y_i^p, computed on
    values / max so that every power lies in [0, 1].  The upper end
    integrates a cap on P(Y > y).  Under a declared bound B, the envelope
    1{y < B}, the cap is min(1, S_n + eps) up to B: the sum
    sum_i (h_i - h_{i+1}) y_i^p + h_n B^p, computed on values / B.  Under a
    tail envelope tau it is min(1, S_n + eps, tau), summed in logs
    (_log_envelope_integral).  Every sum is errors.sum_last, so no bit
    depends on the BLAS thread count.
    """
    y = np.sort(sample.values)
    n = y.size
    eps = math.sqrt(math.log(1.0 / (1.0 - CONFIDENCE)) / (2.0 * n))
    survival = (n - np.arange(n + 1)) / n  # S_n on [y_i, y_{i+1}), i = 0..n, y_0 = 0
    high = np.minimum(1.0, survival + eps)
    low = np.maximum(0.0, survival - eps)  # 0 past y_n, so the lower end never reads past it
    top = float(y[-1]) or 1.0
    envelope = sample.tail_envelope
    if envelope is not None:
        log_high = np.log(high)  # high >= eps > 0
        log_caps = _capped_log_envelope(envelope, np.concatenate([[0.0], y[:-1]]), log_high[:-1])
    ends = []
    for p in p_list:
        lower = top * float(sum_last((low[:-1] - low[1:]) * (y / top) ** p)) ** (1.0 / p)
        if envelope is None:
            end = sample.value_bound or 1.0
            scaled = (np.append(y, sample.value_bound) / end) ** p
            upper = end * float(sum_last((high[:-1] - high[1:]) * scaled[:-1])
                                + high[-1] * scaled[-1]) ** (1.0 / p)
        else:
            root = _log_envelope_integral(envelope, y, log_caps, float(log_high[-1]), p) / p
            if root > math.log(sys.float_info.max):
                raise DomainError(f"the upper moment end at p = {p:g} is past the float range")
            upper = math.exp(root)
        ends.append((lower, upper))
    return ends


def estimate_moments(sample: SupremumSample, p_list) -> list[MomentEstimate]:
    """(E sup^p)^(1/p) point estimates, each with an interval whose ends are
    one-sided at level CONFIDENCE, from one sort of the sample and the DKW band.

    The upper end needs what the sample's simulator declared from its model:
    an almost-sure bound (sample.value_bound, method "dkw") or a tail
    envelope (sample.tail_envelope, method "dkw-envelope"); a sample that
    declares neither is refused.  The interval is widened, where rounding
    leaves it short, to hold the point estimate.
    """
    values = sample.values
    if values.size == 0:
        raise DomainError("cannot estimate moments from an empty sample")
    p_list = _moment_orders(p_list)
    if sample.value_bound is None and sample.tail_envelope is None:
        raise DomainError("moment intervals need a sample that declares a value_bound or a "
                          "tail_envelope from its model; this sample declares neither")
    method = "dkw" if sample.tail_envelope is None else "dkw-envelope"
    # Powers of values / max (max taken as 1 for an all-zero sample) stay in
    # [0, 1], so a large p cannot overflow; the roots are scaled back by max.
    top = float(values.max()) or 1.0
    out = []
    for p, (low, high) in zip(p_list, _moment_ends(sample, p_list)):
        est = top * float(((values / top) ** p).mean()) ** (1.0 / p)
        out.append(MomentEstimate(p, est, min(low, est), max(high, est), 0, method))
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
