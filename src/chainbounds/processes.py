"""Process models and seeded simulators for supremum samples.

Every simulator checks its model and then hands a driver draw and a
supremum statistic to one entry, _simulate, which checks reps and seed,
draws the blocks and assembles the SupremumSample.  So every simulator
shares one stream contract.  Replications come in blocks of
BLOCK = 1024: replication r is row r mod BLOCK of block r // BLOCK, and block
b is drawn from replication_rng(seed, b), a counter-based Philox stream keyed
by the seed with counter word 2 = b (Salmon et al., "Parallel Random Numbers:
As Easy as 1, 2, 3", SC'11).  Every block is drawn and evaluated in full and
the final block keeps only the rows it needs, so results are bit-identical
for a given (seed, config), the sample of R replications is a prefix of the
sample of R' > R, and blocks could be farmed out concurrently without
changing output.  Each supremum statistic is evaluated on a whole block at
once.

Models are deliberately small: index points are rows of a coefficient
matrix applied to a shared standardized driver (Rademacher signs, standard
normals, Uniform[-1,1], or constants), which keeps psi-norms, means, and
canonical metrics exactly computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import (
    DomainError,
    ModelError,
    UnsupportedFamilyError,
    _check_table_budget,
    check_array,
    check_int,
    check_labels,
    check_real,
    power_reduce,
    square,
)
from .metric import _NORMS, FiniteMetricSpace, _pairwise, build_metric_space, space_from_points
from .orlicz import OrliczNorm, psi_norm_analytic
from .schatten import _matrix_stack

__all__ = [
    "RowDistribution",
    "ProcessModel",
    "SupremumSample",
    "gaussian_model",
    "martingale_model",
    "empirical_model",
    "squares_model",
    "canonical_metric",
    "MixedTailMetrics",
    "mixed_metrics",
    "empirical_parameters",
    "replication_rng",
    "simulate_gaussian",
    "simulate_martingale_family",
    "simulate_empirical",
    "simulate_squares",
    "simulate_squares_increment",
    "simulate_chaos",
    "sign_patterns",
    "exact_martingale_distribution",
    "exact_empirical_distribution",
    "exact_chaos_distribution",
]

MODEL_KINDS = ("gaussian", "martingale-family", "empirical", "squares")
_ROW_FAMILIES = ("rademacher", "gaussian", "uniform", "constant")
_EIG_TOL = 1e-10
# Unit-scale psi-norm roots with no closed form, stored as the brentq roots of
# their defining equations (bracket [0.3, 30] for t, [1e-8, 10] for r,
# xtol=1e-13, rtol=1e-14); the tests solve them again and compare bit for bit.
# Gaussian psi_1 norm t: E exp(|g|/t) = 2 exp(1/(2t^2)) Phi(1/t) = 2.
GAUSSIAN_PSI1_T = 1.3724949919103473
# U ~ Uniform[0, 1], psi_1 norm 1/r: E exp(r U) = (exp(r) - 1)/r = 2.
UNIFORM_PSI1_R = 1.2564312086261697
# U ~ Uniform[0, 1], psi_2 norm 1/r: E exp(r^2 U^2) = sqrt(pi) erfi(r) / (2r) = 2.
UNIFORM_PSI2_R = 1.294150272770753
SEED_MAX = 2**64 - 1  # Philox keys are 64-bit
BLOCK = 1024  # replications per stream; bounds the size of each block's temporaries
# A simulated value may pass its model's bound by this much, relative to the
# size of the terms its statistic sums: far above the rounding of any sum of
# fewer than 10^6 terms, far below any error in the bound itself.
_BOUND_SLACK = 1e-9


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """The Philox stream with counter word 2 = rep (order-independent).

    The simulators draw block rep from it; the RIP estimators draw
    replication rep from it.  rep is an integer in [0, 2^63 - 1]: past that
    numpy can no longer set the counter word exactly.
    """
    rep = check_int("rep", rep, 0, 2**63 - 1)
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, rep, 0]))


def _check_seed(seed) -> int:
    """seed as an int; DomainError unless it is an integer in [0, SEED_MAX]."""
    return check_int("seed", seed, 0, SEED_MAX)


def _replication_streams(seed: int):
    """rep -> a Generator drawing what replication_rng(seed, rep) draws.

    One Philox is built per call and reset for each rep to the state that
    replication_rng builds: counter [0, 0, rep, 0] and an empty buffer.
    That is several times cheaper than a new Philox per rep.  Every rep
    gets the same Generator back, so draw from it before the next rep.
    """
    bitgen = np.random.Philox(key=seed)
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # fresh: counter 0, nothing buffered
    counter = state["state"]["counter"]

    def at(rep: int) -> np.random.Generator:
        counter[2] = rep
        bitgen.state = state
        return rng

    return at


def _simulate(reps: int, seed: int, draw, stat, *, base_point=None, value_bound=None):
    """The SupremumSample of reps replications: checks reps and seed, draws by block.

    draw(rng) returns the BLOCK driver rows of a block, shape (BLOCK, dim).
    stat maps them to one supremum value per row.  The final block keeps
    only the rows it needs.  Replication r is row r mod BLOCK of block
    r // BLOCK, whose rows are drawn from replication_rng(seed, block), so a
    shorter run is a prefix of a longer one.  value_bound is the model's
    almost-sure bound on every value (see _value_bound), or None.
    """
    reps, seed = check_int("reps", reps, 1), _check_seed(seed)
    parts = []
    for b, start in enumerate(range(0, reps, BLOCK)):
        z = draw(replication_rng(seed, b))
        parts.append(stat(z)[: reps - start])
    values = np.concatenate(parts)
    values.setflags(write=False)  # so that SupremumSample keeps it without a copy
    return SupremumSample(replications=reps, seed=seed, values=values, base_point=base_point,
                          value_bound=value_bound)


def _value_bound(bound: float, size: float | None = None) -> float | None:
    """A model's almost-sure bound on its supremum statistic, as a sample declares it.

    bound is the bound in exact arithmetic.  The float statistic may pass it
    by its rounding, so the declared bound adds _BOUND_SLACK times size, the
    magnitude of the terms the statistic sums (bound itself by default).  A
    bound past the float range declares none.
    """
    declared = bound + _BOUND_SLACK * (bound if size is None else size)
    return declared if math.isfinite(declared) else None


def _driver_bound(base: RowDistribution) -> float | None:
    """max |z| over the draws of base: |scale|, or None for the unbounded Gaussian."""
    return None if base.name == "gaussian" else abs(base.scale)


def _largest_row_sum(a: np.ndarray) -> float:
    """max over rows of the sum of the row's entries (>= 0); inf past the float range."""
    with np.errstate(over="ignore"):
        return float(a.sum(axis=1).max())


@dataclass(frozen=True)
class RowDistribution:
    """A scaled standardized driver with exactly known moments and psi-norms.

    scale multiplies the standardized variable; for "constant" the value is
    the scale itself, and its mean; every other family has mean 0.
    """

    name: str
    scale: float = 1.0

    def __post_init__(self):
        if self.name not in _ROW_FAMILIES:
            raise UnsupportedFamilyError(
                f"unknown row distribution {self.name!r}; expected one of {_ROW_FAMILIES}"
            )
        check_real("scale", self.scale, -math.inf)

    def mean(self) -> float:
        return self.scale if self.name == "constant" else 0.0

    def second_moment(self) -> float:
        second = square(self.scale)
        if not math.isfinite(second):
            raise DomainError(f"row second moment is not finite: scale^2 overflows at scale = "
                              f"{self.scale:g}")
        return second / 3.0 if self.name == "uniform" else second

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        if self.name == "rademacher":
            return self.scale * (2.0 * rng.integers(0, 2, size) - 1.0)
        if self.name == "gaussian":
            return self.scale * rng.standard_normal(size)
        if self.name == "uniform":
            return self.scale * rng.uniform(-1.0, 1.0, size)
        return np.full(size, float(self.scale))

    def psi_norm(self, alpha: float) -> OrliczNorm:
        """Exact psi_alpha norm (alpha in {1, 2})."""
        if alpha not in (1, 2):
            raise UnsupportedFamilyError(
                f"exact row psi-norms are implemented for alpha in {{1, 2}}, got {alpha}"
            )
        s = abs(self.scale)  # s = 0 gives 0 in every formula below
        if self.name in ("rademacher", "constant"):
            # |X| is the constant s.
            return psi_norm_analytic("constant", s, alpha)
        if self.name == "gaussian":
            if alpha == 2:
                return psi_norm_analytic("gaussian", s, alpha)
            return OrliczNorm(1.0, s * GAUSSIAN_PSI1_T, "analytic")
        # uniform on [-s, s]; |X|/s ~ U[0,1].
        r = UNIFORM_PSI1_R if alpha == 1 else UNIFORM_PSI2_R
        return OrliczNorm(float(alpha), s / r, "analytic")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """a read-only: unlike _freeze, a copy only when a, or the array it views,
    can still be written (by the caller), so that the read-only arrays the
    simulators build are kept as they are."""
    owner = a if a.base is None else a.base
    if a.flags.writeable or not isinstance(owner, np.ndarray) or owner.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ProcessModel:
    """An index set plus the data needed to draw the process on it.

    kind selects the family; covariance is gaussian-only, coefficients hold
    one row per index point (martingale step weights, or per-summand scales
    for empirical/squares applied to iid copies of base), and step_bounds
    are the declared per-step sup-norm increment bounds of the martingale
    family.
    """

    kind: str
    labels: tuple
    covariance: np.ndarray | None = None
    coefficients: np.ndarray | None = None
    base: RowDistribution | None = None
    step_bounds: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise UnsupportedFamilyError(f"unknown process kind {self.kind!r}")
        seen = set()
        for t in self.labels:
            try:
                seen.add(t)
            except TypeError:
                raise ModelError(f"index labels must be hashable, got {t!r}") from None
        if len(seen) != len(self.labels):
            raise ModelError("index labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def psi_norm_matrix(self, alpha: float) -> np.ndarray:
        """Per-(point, summand) psi_alpha norms |coeff| * ||base||_psi."""
        if self.kind not in ("empirical", "squares"):
            raise UnsupportedFamilyError(
                f"psi-norm matrices apply to empirical/squares models, not {self.kind!r}"
            )
        return np.abs(self.coefficients) * self.base.psi_norm(alpha).value


def _labels(labels, n: int, what: str) -> tuple:
    """labels as a tuple (t0, t1, ... by default); one per row of what."""
    labels = (tuple(f"t{i}" for i in range(n)) if labels is None
              else check_labels(labels, ModelError))
    if len(labels) != n:
        raise ModelError(f"label count must match {what}")
    return labels


def gaussian_model(covariance, labels=None) -> ProcessModel:
    """Centered Gaussian process given by its covariance matrix."""
    cov = check_array("covariance", covariance, 2, square=True, error=ModelError)
    if not np.allclose(cov, cov.T, rtol=1e-12, atol=1e-12):
        raise ModelError("covariance must be symmetric")
    w = np.linalg.eigvalsh(0.5 * cov + 0.5 * cov.T)  # halves first: cov + cov.T can overflow
    if w.min() < -_EIG_TOL:
        raise ModelError(
            f"covariance is not positive semidefinite (min eigenvalue {w.min():.3e})"
        )
    labels = _labels(labels, cov.shape[0], "covariance size")
    return ProcessModel(kind="gaussian", labels=labels, covariance=_freeze(cov))


def martingale_model(coefficients, labels=None, step_bounds=None) -> ProcessModel:
    """Family X_{t,k} = sum_{j<=k} t_j eps_j driven by shared Rademacher signs.

    coefficients has one coefficient vector t per row; step_bounds declares
    per-step sup-norm increment bounds (default |coefficients|, which the
    realized increments attain exactly).
    """
    c = check_array("coefficients", coefficients, 2, error=ModelError)
    if step_bounds is None:
        b = np.abs(c)
    else:
        b = check_array("step_bounds", step_bounds, 2, nonnegative=True, error=ModelError)
        if b.shape != c.shape:
            raise ModelError(f"step_bounds must match coefficients in shape {c.shape}, "
                             f"got {b.shape}")
    labels = _labels(labels, c.shape[0], "coefficient rows")
    return ProcessModel(
        kind="martingale-family", labels=labels, coefficients=_freeze(c), step_bounds=_freeze(b)
    )


def _summand_model(kind: str, coefficients, base: RowDistribution, labels) -> ProcessModel:
    c = check_array("coefficients", coefficients, 2, error=ModelError)
    if not isinstance(base, RowDistribution):
        raise ModelError("base must be a RowDistribution")
    labels = _labels(labels, c.shape[0], "coefficient rows")
    return ProcessModel(kind=kind, labels=labels, coefficients=_freeze(c), base=base)


def empirical_model(coefficients, base: RowDistribution, labels=None) -> ProcessModel:
    """Summands X_{t_i} = coeff[t, i] * Z_i with iid Z_i ~ base."""
    return _summand_model("empirical", coefficients, base, labels)


def squares_model(coefficients, base: RowDistribution, labels=None) -> ProcessModel:
    """Same row structure as empirical_model, simulated through its squares."""
    return _summand_model("squares", coefficients, base, labels)


def canonical_metric(model: ProcessModel) -> FiniteMetricSpace:
    """The increment metric the theory attaches to this process kind.

    gaussian: d(s,t)^2 = Cov_ss + Cov_tt - 2 Cov_st; martingale-family:
    root-sum-of-squares of per-step sup-norm differences (Euclidean distance
    of coefficient rows, from metric's pairwise kernel with no (n, n, m)
    array); squares: max per-summand psi_2 distance, from the same kernel.
    """
    if model.kind == "martingale-family":
        return space_from_points(model.coefficients, "l2", model.labels)
    if model.kind == "squares":
        psi2 = model.base.psi_norm(2).value
        d = _pairwise(model.coefficients, lambda diff: _NORMS["linf"](diff) * psi2)
    elif model.kind == "gaussian":
        v = np.diag(model.covariance)
        sq = v[:, None] + v[None, :] - 2.0 * model.covariance
        d = np.sqrt(np.clip(sq, 0.0, None))
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
    else:
        raise UnsupportedFamilyError(
            f"no single canonical metric for kind {model.kind!r}"
            + ("; use mixed_metrics" if model.kind == "empirical" else "")
        )
    return build_metric_space(d, labels=model.labels)


@dataclass(frozen=True)
class MixedTailMetrics:
    """Subexponential (d1) and subgaussian (d2) scales on the same points."""

    d1: FiniteMetricSpace
    d2: FiniteMetricSpace

    def __post_init__(self):
        if self.d1.labels != self.d2.labels:
            raise DomainError("d1 and d2 must be defined on identical label sets")


def mixed_metrics(model: ProcessModel) -> MixedTailMetrics:
    """Unscaled (d1, d2) psi_1 increment metrics of an empirical model.

    d1(s,t) = max_i ||X_{t_i} - X_{s_i}||_{psi_1}; d2 is the quadratic mean
    of the same per-summand norms.  The 1/m, 1/sqrt(m) scalings belong to
    the bound evaluator, not to the metrics.
    """
    if model.kind != "empirical":
        raise UnsupportedFamilyError(f"mixed metrics apply to empirical models, not {model.kind!r}")
    c = model.coefficients
    psi1 = model.base.psi_norm(1).value
    d1 = _pairwise(c, lambda diff: _NORMS["linf"](diff) * psi1)
    d2 = _pairwise(c, lambda diff: np.sqrt(((diff * psi1) ** 2).mean(axis=-1)))
    return MixedTailMetrics(
        d1=build_metric_space(d1, labels=model.labels),
        d2=build_metric_space(d2, labels=model.labels),
    )


def empirical_parameters(model: ProcessModel) -> tuple[float, float]:
    """(sigma, K) scales for empirical_process_bound from the psi_1 norms.

    Per index point the summands obey the subexponential average inequality
    with nu_t = ((1/m) sum_i norm^2)^(1/2) and kappa_t = max_i norm; the
    returned pair is the sup over points of each.
    """
    norms = model.psi_norm_matrix(1)
    sigma = float(power_reduce(lambda v: np.sqrt((v**2).mean(axis=1)), norms).max())
    K = float(norms.max())
    return sigma, K


def _resolve_point(labels: tuple, point) -> int:
    if point in labels:
        return labels.index(point)
    if isinstance(point, (int, np.integer)) and not isinstance(point, bool):
        if 0 <= point < len(labels):
            return int(point)
    raise DomainError(f"unknown index point {point!r}")


@dataclass(frozen=True)
class SupremumSample:
    """Per-replication supremum draws from one seeded simulation.

    value_bound, when not None, is an almost-sure upper bound on every value
    that the simulator derived from its model, rounding slack included; a
    value above it is refused, so a wrong bound fails loudly.
    """

    replications: int
    seed: int
    values: np.ndarray
    base_point: object | None = None
    value_bound: float | None = None

    def __post_init__(self):
        vals = check_array("values", self.values, 1, nonnegative=True, empty_ok=True,
                           error=ModelError)
        if vals.shape[0] != self.replications:
            raise ModelError(f"values must have one entry per replication ({self.replications}), "
                             f"got {vals.shape[0]}")
        if self.value_bound is not None:
            bound = check_real("value_bound", self.value_bound, 0.0)
            if vals.size and vals.max() > bound:
                i = int(np.argmax(vals))
                raise ModelError(f"values must be <= the model's bound {bound!r}, "
                                 f"got {float(vals[i])!r} at entry [{i}]")
            object.__setattr__(self, "value_bound", bound)
        object.__setattr__(self, "values", _frozen(vals))


def _require_kind(model: ProcessModel, kind: str):
    if model.kind != kind:
        raise UnsupportedFamilyError(f"expected a {kind!r} model, got {model.kind!r}")


def simulate_gaussian(model: ProcessModel, reps: int, seed: int, base_point=0) -> SupremumSample:
    """sup_t |X_t - X_t0| draws (or raw sup_t |X_t| when base_point is None)."""
    _require_kind(model, "gaussian")
    w, V = np.linalg.eigh(model.covariance)
    if w.min() < -_EIG_TOL:
        raise ModelError(
            f"covariance is not positive semidefinite (min eigenvalue {w.min():.3e})"
        )
    L = V * np.sqrt(np.clip(w, 0.0, None))
    n = model.size
    idx = None if base_point is None else _resolve_point(model.labels, base_point)

    def stat(z):
        x = z @ L.T
        return np.abs(x if idx is None else x - x[:, idx, None]).max(axis=1)

    return _simulate(
        reps,
        seed,
        lambda rng: rng.standard_normal((BLOCK, n)),
        stat,
        base_point=None if idx is None else model.labels[idx],
    )


def simulate_martingale_family(model: ProcessModel, reps: int, seed: int) -> SupremumSample:
    """sup_t |X_{t,n} - X_{t,0}| for the shared-driver coefficient family."""
    _require_kind(model, "martingale-family")
    c = model.coefficients
    excess = np.abs(c) - model.step_bounds
    if np.any(excess > 1e-12):
        t, k = (int(i) for i in np.argwhere(excess > 1e-12)[0])
        raise ModelError(
            f"step {k} of point {model.labels[t]!r} exceeds its declared sup-norm "
            f"bound ({abs(c[t, k]):g} > {model.step_bounds[t, k]:g})"
        )
    n_steps = c.shape[1]
    return _simulate(
        reps,
        seed,
        lambda rng: 2.0 * rng.integers(0, 2, (BLOCK, n_steps)) - 1.0,
        lambda eps: _martingale_sup(eps, c),
        value_bound=_value_bound(_largest_row_sum(np.abs(c))),  # max_t sum_k |c_tk|
    )


def _martingale_sup(eps: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sup_t |sum_k c[t, k] eps_k| for each row of signs eps."""
    return np.abs(eps @ c.T).max(axis=1)


def _summand_count(model: ProcessModel, kind: str, m: int) -> int:
    _require_kind(model, kind)
    m = check_int("m", m, 1)
    if m != model.coefficients.shape[1]:
        raise DomainError(
            f"m = {m} disagrees with the model's {model.coefficients.shape[1]} summands"
        )
    return m


def simulate_empirical(model: ProcessModel, m: int, reps: int, seed: int) -> SupremumSample:
    """sup_t |(1/m) sum_i (X_{t_i} - E X_{t_i})| draws."""
    m = _summand_count(model, "empirical", m)
    mu = model.base.mean()
    a = _driver_bound(model.base)  # |z - mu| <= |scale|: a constant base has z - mu = 0
    return _simulate(
        reps,
        seed,
        lambda rng: model.base.sample(rng, (BLOCK, m)),
        lambda z: _empirical_sup(z, mu, model.coefficients),
        value_bound=None if a is None else _value_bound(
            a * _largest_row_sum(np.abs(model.coefficients)) / m),
    )


def _empirical_sup(z: np.ndarray, mu: float, c: np.ndarray) -> np.ndarray:
    """sup_t |(1/m) sum_i c[t, i] (z_i - mu)| for each row z of m draws."""
    return np.abs((z - mu) @ c.T).max(axis=1) / c.shape[1]


def simulate_squares(model: ProcessModel, m: int, reps: int, seed: int) -> SupremumSample:
    """sup_t |(1/m) sum_i (X_{t_i}^2 - E X_{t_i}^2)| draws."""
    m = _summand_count(model, "squares", m)
    s2 = model.base.second_moment()
    c2 = model.coefficients**2

    def stat(z):
        sq_mean = (z**2) @ c2.T / m  # (BLOCK, points): sum_i c2[t, i] z_i^2 / m
        return np.abs(sq_mean - s2 * c2.mean(axis=1)).max(axis=1)

    bound = None
    a = _driver_bound(model.base)
    if a is not None:
        # z^2 lies in [0, a^2] (uniform) or is a^2 (signs, constants), so
        # |z^2 - s2| <= max(a^2 - s2, s2 - min z^2); 0 for signs and constants.
        a2 = square(a)
        spread = max(a2 - s2, s2 - (0.0 if model.base.name == "uniform" else a2))
        weight = _largest_row_sum(c2) / m  # max_t (1/m) sum_i c_ti^2
        bound = _value_bound(weight * spread, weight * (a2 + s2))
    return _simulate(reps, seed, lambda rng: model.base.sample(rng, (BLOCK, m)), stat,
                     value_bound=bound)


def simulate_squares_increment(
    model: ProcessModel, s, t, m: int, reps: int, seed: int
) -> SupremumSample:
    """||X_t - X_s||_{L2(mu_m)} draws for one pair of index points."""
    m = _summand_count(model, "squares", m)
    i, j = _resolve_point(model.labels, s), _resolve_point(model.labels, t)
    dc = model.coefficients[j] - model.coefficients[i]
    a = _driver_bound(model.base)  # the draws are at most a * (mean_i dc_i^2)^(1/2)
    return _simulate(
        reps,
        seed,
        lambda rng: model.base.sample(rng, (BLOCK, m)),
        lambda z: np.sqrt(((dc * z) ** 2).mean(axis=1)),
        base_point=model.labels[i],
        value_bound=None if a is None else _value_bound(
            a * float(power_reduce(lambda v: np.sqrt((v**2).mean(axis=-1)), dc))),
    )


def simulate_chaos(
    matrices, xi: RowDistribution, reps: int, seed: int, decoupled: bool = False
) -> SupremumSample:
    """sup_A | ||A xi||^2 - E ||A xi||^2 | draws over a matrix family.

    With decoupled=True, draws an independent copy xi' per replication and
    returns sup_A |xi . (A^H A) xi'| instead (the bilinear comparison term).
    """
    stack = _matrix_stack(matrices)
    if not isinstance(xi, RowDistribution):
        raise ModelError("xi must be a RowDistribution")
    if xi.mean() != 0.0:
        raise ModelError("chaos components must be mean-zero")
    n = stack.shape[2]
    bound = _chaos_bound(stack, xi)
    if decoupled:
        grams = _grams(stack)

        def stat(xy):
            x, y = xy[:, :n], xy[:, n:]
            # (x @ grams)[k, r, j] = sum_i x_ri G_kij
            return np.abs(((x @ grams) * y).sum(axis=2)).max(axis=0)

        return _simulate(reps, seed, lambda rng: xi.sample(rng, (BLOCK, 2 * n)), stat,
                         value_bound=bound)
    s2 = xi.second_moment()
    return _simulate(reps, seed, lambda rng: xi.sample(rng, (BLOCK, n)),
                     lambda x: _chaos_sup(x, stack, s2), value_bound=bound)


def _chaos_bound(stack: np.ndarray, xi: RowDistribution) -> float | None:
    """n a^2 max_A ||A||_op^2 for components |xi_i| <= a: an almost-sure
    bound on both chaos statistics, or None for Gaussian components.

    Plain: ||A x||^2 <= ||A||_op^2 ||x||^2 <= n a^2 ||A||_op^2 and the
    centring term s2 ||A||_F^2 <= a^2 rank(A) ||A||_op^2 both lie in
    [0, n a^2 ||A||_op^2], and so does the modulus of their difference.
    Decoupled: |x . (A^H A) y| <= ||A x|| ||A y|| <= n a^2 ||A||_op^2.
    """
    a = _driver_bound(xi)
    if a is None:
        return None
    op = float(np.linalg.svd(stack, compute_uv=False).max())
    return _value_bound(stack.shape[2] * square(a) * square(op))


def _grams(stack: np.ndarray) -> np.ndarray:
    """A^H A for each matrix A of the stack: the decoupled chaos statistic's
    form.  A Gram matrix past the float range is refused by the index k of its matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        grams = np.einsum("kmi,kmj->kij", stack.conj(), stack)
    return check_array("chaos Gram matrices matrices[k]^H matrices[k]", grams, 3, complex_ok=True)


def _chaos_sup(x: np.ndarray, stack: np.ndarray, s2: float) -> np.ndarray:
    """sup_A | ||A x||^2 - s2 ||A||_F^2 | for each row x: the plain chaos
    statistic, centred by E ||A xi||^2 for components of second moment s2.

    The rows go through in chunks of errors.block_step(k m), so the (rows,
    k, m) table of the products A x stays within one block, or one row,
    however tall the k matrices are.  einsum computes each row on its own,
    so no value depends on the chunking.  A matrix whose terms pass the
    float range is computed again scaled by 2^-e, the power of two that brings
    its largest modulus into [1/2, 1), and multiplied back by 2^(2e); a value
    past the float range even so is refused by the index k of its matrix.
    Every other value is computed as written, so it keeps its bits.
    """
    k, m = stack.shape[:2]
    step = errors.block_step(k * m)
    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], step):
        rows = x[lo:lo + step]
        dev = _chaos_deviations(rows, stack, s2)
        for j in errors.nonfinite_columns(dev):
            e = math.frexp(float(np.abs(stack[j]).max()))[1]
            with np.errstate(over="ignore"):
                col = np.ldexp(_chaos_deviations(rows, stack[j:j + 1] * 2.0**-e, s2)[:, 0], 2 * e)
            dev[:, j] = check_array(f"chaos statistics of matrices[{j}] by row", col, 1)
        out[lo:lo + step] = dev.max(axis=1)
    return out


def _chaos_deviations(x: np.ndarray, stack: np.ndarray, s2: float) -> np.ndarray:
    """| ||A x||^2 - s2 ||A||_F^2 | by row x and matrix A of stack; inf or NaN on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        means = s2 * (np.abs(stack).reshape(stack.shape[0], -1) ** 2).sum(axis=1)
        q = (np.abs(np.einsum("kmn,rn->rkm", stack, x)) ** 2).sum(axis=2)
        return np.abs(q - means)


def _check_sign_law(law: str, n: int, width: int) -> None:
    """Refuse a law on the 2^n sign patterns whose widest table is 2^n x max(n, width)."""
    w = max(n, width)
    _check_table_budget(f"{law} refused: n = {n} signs need a 2^n x {w} table", w << n)


def sign_patterns(n: int) -> np.ndarray:
    """All 2^n sign vectors in {-1, +1}^n; refused past the table budget (n <= 17).

    At n = 17 the martingale, empirical and plain chaos laws together took
    0.18-0.20 s at a peak RSS of 110 MB on a 2-core Intel Xeon.
    """
    n = check_int("n", n, 1)
    _check_sign_law("exhaustive sign enumeration", n, n)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return 2.0 * bits - 1.0


def exact_martingale_distribution(model: ProcessModel) -> np.ndarray:
    """Equally likely sup values over all driver sign patterns."""
    _require_kind(model, "martingale-family")
    c = model.coefficients
    _check_sign_law("exact martingale law", c.shape[1], c.shape[0])
    return _martingale_sup(sign_patterns(c.shape[1]), c)


def exact_empirical_distribution(model: ProcessModel) -> np.ndarray:
    """Equally likely sup values of the centered average (Rademacher base)."""
    _require_kind(model, "empirical")
    if model.base.name != "rademacher":
        raise UnsupportedFamilyError("exact enumeration needs a rademacher base")
    c = model.coefficients
    _check_sign_law("exact empirical law", c.shape[1], c.shape[0])
    return _empirical_sup(model.base.scale * sign_patterns(c.shape[1]), 0.0, c)


def exact_chaos_distribution(matrices, decoupled: bool = False) -> np.ndarray:
    """Equally likely chaos sup values over Rademacher sign patterns.

    Plain form enumerates 2^n component vectors; decoupled form enumerates
    all 2^(2n) independent pairs, k 4^n entries for k matrices.  Either is
    refused past errors._TABLE_BUDGET before its largest table is built.
    """
    stack = _matrix_stack(matrices)
    k, m, n = stack.shape
    if decoupled:
        _check_table_budget(f"matrix count k = {k}, dimension n = {n}: a pair table", k * 4**n)
        signs = sign_patterns(n)
        grams = _grams(stack)
        bil = np.einsum("ai,kij,bj->kab", signs, grams, signs)
        return np.abs(bil).max(axis=0).ravel()
    _check_sign_law("exact chaos law", n, k * m)
    return _chaos_sup(sign_patterns(n), stack, 1.0)
