"""Subsampled unitary / bounded-row systems and exact restricted isometries.

The sampling model keeps each row of an N x N unitary independently with
probability m/N and rescales by sqrt(N/m), so the expected row count is m
and the expected Gram matrix is the identity.  Restricted isometry
constants are computed exactly by enumerating size-s supports and taking
extreme eigenvalues of the s x s Grams; sample-complexity thresholds invert
the fitted sufficiency condition by integer bisection.

One kernel serves the exact constant and the Monte Carlo: the N x N Gram is
formed once per matrix (once per replication, with the selectors as a 0/1
row weight on the rescaled unitary), the s x s blocks of a table of
supports are gathered from it, and LAPACK eigvalsh runs on stacks of at most
_BATCH of them.  Unselected rows add exact zeros and the unitary is rescaled
before the sums, so each delta_s is bit for bit that of the enumeration over
the rescaled selected rows alone.  This holds up to 8192 rows, numpy's einsum
buffer; beyond it numpy sums in buffer-sized pieces laid out by operand shape,
and the last bits may differ.

Both refuse, through errors._check_table_budget and before any table, Gram,
eigvalsh call or selector draw, an enumeration whose largest table would
pass errors._TABLE_BUDGET entries (see _supports).

The Monte Carlo only asks whether some delta_S reaches delta.  A Gershgorin /
Rayleigh bracket, widened by eigvalsh's backward error, answers that for most
replications; eigvalsh runs on the blocks it leaves open, so every failure
count is the one eigvalsh on every block gives.  The exact constant runs
eigvalsh on every support.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import (
    ConvergenceError,
    DomainError,
    ModelError,
    _check_indices,
    _check_table_budget,
    check_array,
    check_int,
    check_number,
    check_real,
)
from .processes import SEED_MAX, _replication_streams, replication_rng
from .validation import exceedance_lower_bound, exceedance_upper_bound

__all__ = [
    "RipInstance",
    "RipReport",
    "BosSystem",
    "build_dft",
    "sample_selectors",
    "subsample",
    "subsampled_instance",
    "restricted_isometry_constant",
    "sample_complexity",
    "estimate_failure_probability",
    "check_bos",
]

# Support tables of at most this many indices (512 KB) are kept across calls,
# four at most; larger ones are rebuilt on each call, so an enumeration over
# more supports keeps nothing once it ends.
_CACHED_ENTRIES = 1 << 16
UNITARY_TOL = 1e-10
WITNESS_TOL = 1e-9
COMPLEXITY_CAP = 1 << 60
_BATCH = 4096
_SCREEN_TOL = 1e-9
_BOS_TEST_VECTORS = 8  # random unit vectors check_bos tries isotropy on


def build_dft(N: int) -> np.ndarray:
    """The N x N unitary discrete Fourier matrix (unimodular entries / sqrt(N)),
    refused before it is built when N^2 passes errors._TABLE_BUDGET (N > 2048)."""
    N = check_int("N", N, 1)
    _check_table_budget(f"discrete Fourier matrix refused: N = {N}, an N^2 table", N * N)
    k = np.arange(N)
    return np.exp(2j * np.pi * np.outer(k, k) / N) / math.sqrt(N)


def _as_unitary(U) -> np.ndarray:
    U = check_array("U", U, 2, square=True, complex_ok=True)
    residual = np.abs(U.conj().T @ U - np.eye(U.shape[0])).max()
    if residual > UNITARY_TOL:
        raise DomainError(f"U is not unitary (max |U*U - I| = {residual:.3e})")
    return U


def sample_selectors(N: int, m: int, seed: int, rep: int = 0) -> np.ndarray:
    """Indices kept by independent Bernoulli(m/N) selectors (E|I| = m)."""
    N = check_int("N", N, 1)
    m = check_int("m", m, 0, N)
    seed = check_int("seed", seed, 0, SEED_MAX)
    return np.flatnonzero(_selector_mask(replication_rng(seed, rep), N, m))


def _selector_mask(rng: np.random.Generator, N: int, m: int) -> np.ndarray:
    """A replication's Bernoulli(m/N) keep mask over the N rows, drawn from its stream."""
    return rng.random(N) < m / N


def subsample(U, I, m: int) -> np.ndarray:
    """Row restriction to I rescaled by sqrt(N/m); empty I gives a 0 x N matrix."""
    U = check_array("U", U, 2, complex_ok=True)
    N = U.shape[0]
    m = check_int("m", m, 1)
    I = _check_indices("selector indices", I, N, f"selector indices must lie in [0, {N})")
    return math.sqrt(N / m) * U[I]


@dataclass(frozen=True)
class RipReport:
    """Exact restricted isometry constant with its attaining witness."""

    s: int
    delta_s: float
    witness_support: tuple
    witness_direction: np.ndarray
    witness_value: float

    def __post_init__(self):
        if self.delta_s < 0:
            raise DomainError(f"delta_s must be >= 0, got {self.delta_s}")
        if abs(self.witness_value - self.delta_s) > WITNESS_TOL:
            raise DomainError(
                f"witness reproduces {self.witness_value:.12g}, not delta_s = "
                f"{self.delta_s:.12g}"
            )


def _support_table(N: int, s: int) -> np.ndarray:
    """Read-only (C(N, s), s) table of the size-s supports in lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(N), s))
    table = np.fromiter(flat, dtype=np.intp, count=math.comb(N, s) * s).reshape(-1, s)
    table.flags.writeable = False
    return table


_cached_support_table = functools.lru_cache(maxsize=4)(_support_table)


def _supports(N: int, s: int) -> np.ndarray:
    """_support_table(N, s), kept across calls if it holds at most _CACHED_ENTRIES indices.

    A CapacityError refuses it first, through errors._check_table_budget,
    when the largest table of the enumeration would pass the budget: the
    C(N, s) x s support table, the N x N Gram (for s >= 2; size-1 supports
    read squared column norms), or one eigvalsh stack of s x s blocks, at
    most _BATCH of them.  A failure curve stacks the Grams and blocks of
    several replications only as far as the budget holds them.
    """
    n_supports = math.comb(N, s)
    _check_table_budget(
        f"support enumeration refused: C({N}, {s}) supports of {s} indices, a table",
        max(n_supports * s, N * N if s > 1 else 0, min(n_supports, _BATCH) * s * s))
    small = n_supports * s <= _CACHED_ENTRIES
    return (_cached_support_table if small else _support_table)(N, s)


def _grams(weights: np.ndarray, A: np.ndarray, s: int) -> np.ndarray:
    """(R, N, N) Grams sum_i weights[r, i] conj(A[i, k]) A[i, l] of the columns of A.

    With 0/1 weights each entry is the same sequential sum as over the kept
    rows alone.  Size-1 supports read only the diagonal, so for s = 1 the
    squared column norms are broadcast instead of forming N x N Grams.
    """
    R, N = weights.shape[0], A.shape[1]
    if s == 1:
        norms = np.einsum("ri,ik,ik->rk", weights, A.conj(), A)
        return np.broadcast_to(norms[:, None, :], (R, N, N))
    return np.einsum("ri,ik,il->rkl", weights, A.conj(), A)


def _block_deltas(grams: np.ndarray, rows: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Values max(lambda_max - 1, 1 - lambda_min) of the s x s blocks grams[rows[k]][S_k, S_k].

    S_k is supports[k].  Each eigvalsh call sees at most _BATCH blocks, so
    the gathered stack stays bounded whatever the table size.  LAPACK
    handles every block of a stack on its own, so a block's value does not
    depend on which other blocks share its call.
    """
    out = np.empty(rows.size)
    for lo in range(0, rows.size, _BATCH):
        r = rows[lo:lo + _BATCH, None, None]
        S = supports[lo:lo + _BATCH]
        w = np.linalg.eigvalsh(grams[r, S[:, :, None], S[:, None, :]])
        out[lo:lo + _BATCH] = np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0])
    return out


def _support_brackets(grams: np.ndarray, supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, C) arrays low <= delta_S <= high around the value _block_deltas computes.

    With D the diagonal of the s x s Gram G of support S, Gershgorin gives
    delta_S <= max_i |D_i - 1| + sum_{j != i} |G_ij|, and Rayleigh quotients
    give delta_S >= |mid - 1| + |G_ab| with mid = (D_a + D_b) / 2 on the unit
    vectors (e_a + e^{i phi} e_b) / sqrt(2), and >= |D_a - 1| on e_a (the
    pair a = b).  eigvalsh returns the eigenvalues of G + E with
    ||E||_2 <= p(s) eps ||G||_2 (Golub & Van Loan, Matrix Computations, 4th
    ed., section 8.1), and ||G||_2 <= s max |G_ij|, so widening both ends by
    tau = _SCREEN_TOL (1 + s max |G_ij|) = 4.5e6 eps (1 + s max |G_ij|) covers
    any p(s) up to a million together with the rounding of the bracket and of
    the final subtraction of 1 (max |G_ij| is taken over the bracketed
    entries, and |G_ii| = D_i).  Supports are bracketed _BATCH // R at a time.
    """
    R, (C, s) = grams.shape[0], supports.shape
    diag = grams.diagonal(axis1=1, axis2=2).real
    low, high = np.empty((R, C)), np.empty((R, C))
    step = max(1, _BATCH // R)
    for lo in range(0, C, step):
        S = supports[lo:lo + step].T
        D = diag[:, S]  # (R, s, supports)
        dev = np.abs(D - 1.0)
        radius = np.zeros_like(D)
        rayleigh = dev.max(axis=1)
        scale = float(D.max())
        for a, b in itertools.combinations(range(s), 2):
            g = np.abs(grams[:, S[a], S[b]])
            radius[:, a] += g
            radius[:, b] += g
            rayleigh = np.maximum(rayleigh, np.abs(0.5 * (D[:, a] + D[:, b]) - 1.0) + g)
            scale = max(scale, float(g.max()))
        tau = _SCREEN_TOL * (1.0 + s * scale)
        low[:, lo:lo + step] = rayleigh - tau
        high[:, lo:lo + step] = (dev + radius).max(axis=1) + tau
    return low, high


def _screened_failures(grams: np.ndarray, supports: np.ndarray, delta: float) -> int:
    """How many of the R Grams have a support whose computed delta_S is >= delta.

    The brackets settle most replications: one fails if some support's low
    reaches delta and passes if every high stays below it.  eigvalsh runs on
    the supports of the others whose high reaches delta, with the same
    >= delta test, so the count is that of eigvalsh on every support.
    """
    low, high = _support_brackets(grams, supports)
    fails = (low >= delta).any(axis=1)
    rows, cols = np.nonzero((high >= delta) & ~fails[:, None])
    fails[rows[_block_deltas(grams, rows, supports[cols]) >= delta]] = True
    return int(np.count_nonzero(fails))


def restricted_isometry_constant(A, s: int) -> RipReport:
    """sup over unit s-sparse x of | ||A x||^2 - 1 |, by support enumeration.

    For each size-s support the extreme eigenvalues of the restricted Gram
    give the local sup; the global max is attained on a single support, with
    lexicographically-first tie-breaking.  The one refusal is the table
    budget's CapacityError, raised by _supports before the support table,
    the Gram or any eigvalsh call.
    """
    # a selection of no rows gives a 0 x N matrix, on which every delta_s is 1
    A = check_array("A", A, 2, complex_ok=True, empty_ok=True)
    if A.shape[1] == 0:
        raise DomainError(f"A must have at least one column, got shape {A.shape}")
    N = A.shape[1]
    s = check_int("s", s, 1, N)
    supports = _supports(N, s)
    gram = _grams(np.ones((1, A.shape[0])), A, s)
    deltas = _block_deltas(gram, np.zeros(supports.shape[0], dtype=np.intp), supports)
    k = int(np.argmax(deltas))  # the first maximum: lexicographically-first support
    best_delta = float(deltas[k])
    best_support = tuple(int(i) for i in supports[k])
    cols = A[:, best_support]
    gram = cols.conj().T @ cols
    w, V = np.linalg.eigh(gram)
    if w[-1] - 1.0 >= 1.0 - w[0]:
        vec = V[:, -1]
    else:
        vec = V[:, 0]
    witness = np.zeros(N, dtype=complex)
    witness[list(best_support)] = vec
    value = float(abs(np.linalg.norm(A @ witness) ** 2 - 1.0))
    return RipReport(
        s=s,
        delta_s=best_delta,
        witness_support=best_support,
        witness_direction=witness,
        witness_value=value,
    )


@dataclass(frozen=True)
class RipInstance:
    """One realized subsampled-unitary draw plus its scaled row matrix."""

    N: int
    m: int
    K: float
    selector_seed: int
    I: tuple
    U: np.ndarray
    U_I: np.ndarray

    @property
    def realized_rows(self) -> int:
        return len(self.I)

    def delta(self, s: int) -> RipReport:
        return restricted_isometry_constant(self.U_I, s)


def subsampled_instance(U, m: int, seed: int, K: float | None = None, rep: int = 0) -> RipInstance:
    """Draw selectors for a unitary U and package the rescaled row matrix.

    K defaults to the attained sqrt(N) * max |U_kl|; an explicit smaller K is
    rejected because the flatness premise would be false.
    """
    U = _as_unitary(U)
    N = U.shape[0]
    m = check_int("m", m, 1, N)
    seed = check_int("seed", seed, 0, SEED_MAX)
    attained = math.sqrt(N) * float(np.abs(U).max())
    if K is None:
        K = attained
    elif attained > K + 1e-12:
        raise DomainError(f"declared K = {K:g} is below the attained flatness {attained:g}")
    I = sample_selectors(N, m, seed, rep)
    return RipInstance(
        N=N,
        m=m,
        K=float(K),
        selector_seed=int(seed),
        I=tuple(int(i) for i in I),
        U=U,
        U_I=subsample(U, I, m),
    )


def sample_complexity(
    s: int, K: float, delta: float, eta: float, d1_fit: float, d2_fit: float, N: int
) -> int:
    """Minimal integer m with m >= s K^2 delta^-2 max(d1 ln^2(s) ln(m) ln(N), d2 ln(1/eta)).

    All logarithms are natural and ln^2(s) means (ln s)^2.  The inequality is
    monotone in m beyond its crossing point; the minimum is located by
    doubling followed by integer bisection, capped at 2^60.
    """
    s = check_int("s", s, 1)
    N = check_int("N", N, 1)
    for name, v in (("K", K), ("d1_fit", d1_fit), ("d2_fit", d2_fit), ("delta", delta)):
        check_real(name, v, 0.0, strict=True)
    if not 0.0 < check_number("eta", eta) <= 1.0:
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    lead = s * K**2 / delta**2
    log_term = d1_fit * math.log(s) ** 2 * math.log(N)
    tail_term = d2_fit * math.log(1.0 / eta)

    def satisfied(m: int) -> bool:
        return m >= lead * max(log_term * math.log(m), tail_term)

    hi = 1
    while not satisfied(hi):
        hi *= 2
        if hi > COMPLEXITY_CAP:
            raise ConvergenceError(
                f"no sample count below 2^60 satisfies the condition "
                f"(s={s}, K={K:g}, delta={delta:g}, eta={eta:g})"
            )
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


def estimate_failure_probability(
    N: int,
    m: int,
    s: int,
    delta: float,
    reps: int,
    seed: int,
    U=None,
) -> dict:
    """Monte Carlo estimate of P(delta_s >= delta) under Bernoulli selectors.

    U defaults to the discrete Fourier matrix.  Equality counts as failure
    (delta = 0 therefore estimates 1).  Returns the exceedance fraction with
    one-sided Clopper-Pearson bounds at validation.CONFIDENCE and the mean
    realized row count.

    Replication rep draws its selectors from the stream of
    replication_rng(seed, rep), read off one Philox per call that is reset to
    each replication's counter.  Its Gram is that of the rescaled unitary
    with the 0/1 selectors as row weights, and it goes through the exact
    constant's kernel, screened by _support_brackets: eigvalsh runs only on
    the supports the bracket leaves open, so each failure count is the one
    eigvalsh on every support gives.
    """
    U = build_dft(N) if U is None else _as_unitary(U)
    N = U.shape[0]
    m = check_int("m", m, 1, N)
    reps = check_int("reps", reps, 1)
    seed = check_int("seed", seed, 0, SEED_MAX)
    check_real("delta", delta, 0.0)
    s = check_int("s", s, 1, N)
    supports = _supports(N, s)
    A = math.sqrt(N / m) * U  # scaled before the sums, as subsample() does
    # Replications go through the kernel in chunks that fill one eigvalsh
    # stack of _BATCH supports and whose Grams and blocks fit the table
    # budget, and at least one, so memory does not grow with reps.
    n_supports = supports.shape[0]
    chunk = max(1, min(_BATCH // n_supports,
                       errors._TABLE_BUDGET // max(N * N, n_supports * s * s)))
    streams = _replication_streams(seed)
    failures = 0
    realized = 0
    for lo in range(0, reps, chunk):
        keep = np.array([_selector_mask(streams(rep), N, m)
                         for rep in range(lo, min(lo + chunk, reps))])
        realized += int(keep.sum())
        failures += _screened_failures(_grams(keep, A, s), supports, delta)
    return {
        "N": N,
        "m": m,
        "s": s,
        "delta": float(delta),
        "reps": reps,
        "failures": failures,
        "estimate": failures / reps,
        "ci_lower": exceedance_lower_bound(failures, reps),
        "ci_upper": exceedance_upper_bound(failures, reps),
        "mean_realized_rows": realized / reps,
    }


@dataclass(frozen=True)
class BosSystem:
    """A validated bounded orthonormal system given by finitely many rows."""

    rows: np.ndarray
    weights: np.ndarray
    K: float

    @property
    def dimension(self) -> int:
        return self.rows.shape[1]

    def sample_matrix(self, m: int, seed: int, rep: int = 0) -> np.ndarray:
        """m iid weighted row draws scaled by 1/sqrt(m)."""
        m = check_int("m", m, 1)
        rng = replication_rng(check_int("seed", seed, 0, SEED_MAX), rep)
        idx = rng.choice(self.rows.shape[0], size=m, p=self.weights)
        return self.rows[idx] / math.sqrt(m)


def check_bos(rows, K: float, weights=None, seed: int = 0) -> BosSystem:
    """Validate isotropy and flatness of a finite row system.

    Isotropy requires sum_i w_i X_i X_i^H = I, checked entrywise (standard
    basis) and on _BOS_TEST_VECTORS random unit vectors drawn from seed, to
    1e-8; flatness requires every entry of every row to have modulus <= K.
    Violations are rejected with the maximal residual.
    """
    rows = check_array("rows", rows, 2, complex_ok=True)
    n, N = rows.shape
    if weights is None:
        weights = np.full(n, 1.0 / n)
    else:
        weights = check_array("weights", weights, 1, nonnegative=True)
        if weights.shape != (n,) or abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("weights must be a probability vector over the rows")
    check_real("K", K, 0.0, strict=True)
    seed = check_int("seed", seed, 0, SEED_MAX)
    flat = float(np.abs(rows).max())
    if flat > K + 1e-12:
        raise ModelError(f"row sup-norm {flat:.12g} exceeds the declared bound K = {K:g}")
    M = np.einsum("i,ia,ib->ab", weights, rows, rows.conj())
    residual = float(np.abs(M - np.eye(N)).max())
    if residual > 1e-8:
        raise ModelError(f"row system is not isotropic (max residual {residual:.3e})")
    rng = replication_rng(seed, 0)
    for _ in range(_BOS_TEST_VECTORS):
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        x /= np.linalg.norm(x)
        second = float(weights @ (np.abs(rows.conj() @ x) ** 2))
        if abs(second - 1.0) > 1e-8:
            raise ModelError(
                f"isotropy fails on a test vector (|E|<X,x>|^2 - 1| = {abs(second - 1.0):.3e})"
            )
    return BosSystem(rows=rows, weights=weights, K=float(K))
