"""The subsampled discrete Fourier transform and exact restricted isometries.

The sampling model keeps each row of the N-point unitary DFT independently
with probability m/N and rescales by sqrt(N/m), so the expected row count is
m and the expected Gram matrix is the identity.  Restricted isometry
constants of a supplied matrix are computed exactly by enumerating size-s
supports and taking extreme eigenvalues of the s x s Grams; sample-complexity
thresholds invert the fitted sufficiency condition by integer bisection.

The exact constant forms the N x N Gram of its matrix once, gathers the
s x s blocks of a table of supports from it, and runs LAPACK eigvalsh on a
block of them at a time (errors.block_step; see _stacked_deltas).  An
enumeration whose larger table would pass errors._TABLE_BUDGET is refused
before any table, Gram or eigvalsh call (see _supports).

The subsampled DFT skips the N x N Gram: its Gram is circulant, one FFT per
draw gives it, and delta_S is constant on translation classes of supports.
The DFT's constant and its failure curve, the Monte Carlo over Bernoulli
selectors, share one rerun routine, _kernel_reruns: the kernel above runs,
on the kept rows' columns, only on the supports whose circulant value lies
within a certified margin of the decision, so the DFT's constants,
witnesses and failure counts are those of the kernel on the rescaled kept
rows, bit for bit (see _dft_maximum and _circulant_failures, refused
through _classes, before any selector draw).  The kernel's sums are
the einsum with unit row weights; up to 8192 rows, numpy's einsum buffer,
they are the sequential sums over the rows, and beyond it numpy sums in
buffer-sized pieces laid out by operand shape, so the last bits may differ.
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
    _check_table_budget,
    check_array,
    check_int,
    check_number,
    check_real,
)
from .processes import _check_seed, _replication_streams, replication_rng
from .validation import exceedance_lower_bound, exceedance_upper_bound

__all__ = [
    "RipInstance",
    "RipReport",
    "build_dft",
    "sample_selectors",
    "subsampled_instance",
    "restricted_isometry_constant",
    "sample_complexity",
    "estimate_failure_probability",
]

WITNESS_TOL = 1e-9
COMPLEXITY_CAP = 1 << 60
_SCREEN_TOL = 1e-9


def build_dft(N: int) -> np.ndarray:
    """The N x N unitary discrete Fourier matrix (unimodular entries / sqrt(N)),
    refused before it is built when N^2 passes errors._TABLE_BUDGET (N > 2048)."""
    N = _check_dft_size(N)
    k = np.arange(N)
    return _dft_entries(k, k, N)


def _check_dft_size(N) -> int:
    N = check_int("N", N, 1)
    _check_table_budget(f"discrete Fourier matrix refused: N = {N}, an N^2 table", N * N)
    return N


def _dft_entries(rows, cols, N: int) -> np.ndarray:
    """build_dft(N)[rows][:, cols], entry for entry the same floats, without the N x N table."""
    return np.exp(2j * np.pi * np.outer(rows, cols) / N) / math.sqrt(N)


def _dft_flatness(N: int) -> float:
    """sqrt(N) max |build_dft(N)[k, l]|, the attained K, from blocks of rows.

    An entry depends on k and l only through the product kl, so the rows'
    entries on and right of the diagonal hold every value, read a block of
    rows at a time.
    """
    k = np.arange(N)
    step = errors.block_step(N)
    top = max(float(np.abs(_dft_entries(k[lo:lo + step], k[lo:], N)).max())
              for lo in range(0, N, step))
    return math.sqrt(N) * top


def sample_selectors(N: int, m: int, seed: int, rep: int = 0) -> np.ndarray:
    """Indices kept by independent Bernoulli(m/N) selectors (E|I| = m)."""
    N = check_int("N", N, 1)
    m = check_int("m", m, 0, N)
    seed = _check_seed(seed)
    return np.flatnonzero(_selector_mask(replication_rng(seed, rep), N, m))


def _selector_mask(rng: np.random.Generator, N: int, m: int) -> np.ndarray:
    """A replication's Bernoulli(m/N) keep mask over the N rows, drawn from its stream."""
    return rng.random(N) < m / N


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
        # relative above delta_s = 1: the rounding of both values grows with ||A||^2
        if abs(self.witness_value - self.delta_s) > WITNESS_TOL * max(1.0, self.delta_s):
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


# Tables of at most _BLOCK_ENTRIES indices are kept, four at most; larger ones are rebuilt.
_cached_support_table = functools.lru_cache(maxsize=4)(_support_table)


def _supports(N: int, s: int) -> np.ndarray:
    """_support_table(N, s), kept across calls if it holds at most _BLOCK_ENTRIES indices.

    A CapacityError refuses it first, through errors._check_table_budget,
    when the larger table of the enumeration would pass the budget: the
    C(N, s) x s support table or the N x N Gram (for s >= 2; size-1 supports
    read squared column norms).
    """
    n_supports = math.comb(N, s)
    _check_table_budget(
        f"support enumeration refused: C({N}, {s}) supports of {s} indices, a table",
        max(n_supports * s, N * N if s > 1 else 0))
    small = n_supports * s <= errors._BLOCK_ENTRIES
    return (_cached_support_table if small else _support_table)(N, s)


def _gram(A: np.ndarray, s: int) -> np.ndarray:
    """The N x N Gram sum_i conj(A[i, k]) A[i, l] of the columns of A.

    It is the einsum with unit row weights, the sum _kernel_reruns forms on
    its blocks.  Size-1 supports read only the diagonal, so for s = 1 the
    squared column norms are broadcast instead of forming the N x N Gram.
    """
    ones, N = np.ones(A.shape[0]), A.shape[1]
    if s == 1:
        return np.broadcast_to(np.einsum("i,ik,ik->k", ones, A.conj(), A), (N, N))
    return np.einsum("i,ik,il->kl", ones, A.conj(), A)


def _block_deltas(gram: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Values max(lambda_max - 1, 1 - lambda_min) of the s x s blocks gram[S, S], S in supports."""
    def blocks(lo, hi):
        S = supports[lo:hi]
        return gram[S[:, :, None], S[:, None, :]]

    return _stacked_deltas(supports.shape[0], supports.shape[1] ** 2, blocks)


def _stacked_deltas(count: int, per_block: int, blocks) -> np.ndarray:
    """max(lambda_max - 1, 1 - lambda_min), by eigvalsh, of the count Hermitian
    blocks that blocks(lo, hi) gathers, blocks lo to hi - 1 at a time.

    A stack holds errors.block_step(per_block) blocks of per_block gathered
    entries each.  LAPACK handles every block of a stack on its own, so a
    block's value does not depend on which other blocks share its call.
    """
    step = errors.block_step(per_block)
    out = np.empty(count)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        w = np.linalg.eigvalsh(blocks(lo, hi))
        out[lo:hi] = np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0])
    return out


# ---------------------------------------------------------------- the subsampled DFT
#
# With A = sqrt(N/m) F[I] for the N-point DFT F and kept rows I, the Gram is
# circulant: G_kl = (1/m) sum_{i in I} e^{2 pi i i (l - k) / N} = g[(l - k) mod N]
# with g = conj(FFT(mask)) / m, so one length-N FFT gives every entry.  Every
# support S has a translate S - j (mod N) that holds 0, and G[S, S] is G[S - j,
# S - j] with rows and columns permuted; G[-S, -S] is its conjugate, since
# g[-d] = conj(g[d]).  So delta_S is constant on the classes of supports under
# translation and reflection, and one support holding 0 per class, the class
# table, carries every value.  The circulant values decide; only values within
# the margin _circulant_margin of the decision go through the kernel above, on
# the s x s blocks of the kept rows' columns (_kernel_reruns), so the constant,
# its witness and every failure count are those of the N x N Gram kernel.


def _class_table(N: int, s: int) -> np.ndarray:
    """Read-only table, in lexicographic order, of one size-s support holding 0 per class.

    A support 0 = a_0 < ... < a_{s-1} holding 0 is fixed by its cyclic gaps
    (a_1 - a_0, ..., N - a_{s-1}); translating another a_j to 0 rotates
    them, and reflecting reverses them.  The row kept is the one whose gaps
    come first, lexicographically, among those 2s sequences.  It is read off
    the C(N - 1, s - 1) supports holding 0.
    """
    if s == 1:
        table = np.zeros((1, 1), dtype=np.intp)
    else:
        rest = _support_table(N - 1, s - 1)
        table = np.hstack([np.zeros((rest.shape[0], 1), dtype=np.intp), rest + 1])
        gaps = np.diff(table, axis=1, append=N)
        first = np.ones(table.shape[0], dtype=bool)
        for other in (gaps, gaps[:, ::-1]):
            for r in range(s):
                diff = np.roll(other, -r, axis=1) - gaps
                lead = diff[np.arange(diff.shape[0]), (diff != 0).argmax(axis=1)]
                first &= lead >= 0  # gaps <= the rotation, lexicographically
        table = table[first]
    table.flags.writeable = False
    return table


_cached_class_table = functools.lru_cache(maxsize=4)(_class_table)


def _class_count(N: int, s: int) -> int:
    """C(N - 1, s - 1), the rows of _class_table(N, s), which is not built.

    A CapacityError refuses the count, through errors._check_table_budget,
    when the larger table of the DFT path would pass the budget: the
    C(N - 1, s - 1) supports holding 0 that the classes are read off, or
    the N translates (or reflections) of one class, which hold one
    replication's length-N circulant row.  The circulant path builds no
    N x N table.
    """
    n_classes = math.comb(N - 1, s - 1)
    _check_table_budget(
        f"support enumeration refused: C({N - 1}, {s - 1}) supports of {s} indices holding 0, "
        f"a table", max(n_classes * s, N * s))
    return n_classes


def _classes(N: int, s: int) -> np.ndarray:
    """_class_table(N, s) once _class_count admits it, cached if it holds <= _BLOCK_ENTRIES."""
    small = _class_count(N, s) * s <= errors._BLOCK_ENTRIES
    return (_cached_class_table if small else _class_table)(N, s)


def _circulant_rows(keep: np.ndarray, m: int) -> np.ndarray:
    """(R, N) rows g with G_kl = g[(l - k) mod N] for the kept rows of sqrt(N/m) F."""
    return np.fft.fft(keep, axis=1).conj() / m


def _class_deltas(g: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """(R, C) values delta_S of the circulant Grams with first rows g on the classes.

    delta_S = |g_0 - 1| on a singleton and |g_0 - 1| + |g_d| on {0, d}, the
    extreme eigenvalues of [[g_0, g_d], [conj(g_d), g_0]] being g_0 +- |g_d|;
    larger classes go through eigvalsh (_stacked_deltas).
    """
    (R, N), (C, s) = g.shape, classes.shape
    dev = np.abs(g[:, :1].real - 1.0)
    if s == 1:
        return dev
    if s == 2:
        return dev + np.abs(g[:, classes[:, 1]])

    def blocks(lo, hi):
        pairs = np.arange(lo, hi)
        S = classes[pairs % C]
        return g[(pairs // C)[:, None, None], (S[:, None, :] - S[:, :, None]) % N]

    return _stacked_deltas(R * C, s * s, blocks).reshape(R, C)


def _circulant_margin(g: np.ndarray, s: int) -> np.ndarray:
    """Per row g, a tau >= |circulant delta_S - kernel delta_S| on every support S.

    Let max |g| >= g_0 = |I| / m bound the Gram entries.  The kernel's
    entries e^{2 pi i kl / N} / sqrt(N) have phases rounded by at most
    1.5 eps 2 pi kl / N < 3 pi N eps, so each of its Gram entries, a sum of
    |I| products of modulus 1 / m, lies within ((6 pi + 1) N + O(1)) eps
    max |g| of the exact one.  The FFT's entries lie within 7 log2(N) eps
    ||FFT(mask)||_2 / m <= 7 log2(N) sqrt(N / |I|) eps |I| / m < 7.5 N eps
    max |g| of it (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 24.1).  The two Grams thus differ entrywise by less than
    32 N eps max |g|, and by Weyl their eigenvalues by less than s times
    that.  eigvalsh returns the eigenvalues of G + E with ||E||_2 <= p(s) eps
    ||G||_2 (Golub & Van Loan, Matrix Computations, 4th ed., section 8.1),
    and ||G||_2 <= s max |g|, so _SCREEN_TOL = 1e-9 = 4.5e6 eps covers that
    for any p(s) up to a million, with the rounding of the circulant value
    and of the final subtraction of 1; tau = (_SCREEN_TOL + 32 N eps)
    (1 + s max |g|) covers both computations.
    """
    N = g.shape[1]
    eps = np.finfo(float).eps
    return (_SCREEN_TOL + 32 * N * eps) * (1.0 + s * np.abs(g).max(axis=1))


def _circulant_values(keep: np.ndarray, m: int,
                      classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, C) circulant values delta_S on the classes, and (R,) margins tau, of R kept-row masks."""
    g = _circulant_rows(keep, m)
    return _class_deltas(g, classes), _circulant_margin(g, classes.shape[1])


def _kernel_reruns(columns, rows: int, N: int, classes: np.ndarray):
    """(supports, the kernel's delta_S on each) over the N translates (S + c) mod N
    and the N reflections (c - S) mod N, each sorted, of the given classes, in
    groups of errors.block_step(N s) classes.  A symmetric or periodic class
    repeats supports.

    columns(cols) gives the kept rows' columns sqrt(N/m) F[I][:, cols], rows
    by len(cols), as subsampled_instance computes them: gathered from an
    instance's U_I, or computed for each stack where |I| x N is too large to
    hold.  Each s x s block is the einsum Gram of its columns with unit row
    weights, the same sum of the same products as _gram's entries, so the
    value is bit for bit the one the kernel reads off that Gram.  One block
    gathers |I| s <= N s entries of columns, which fits the budget _classes
    checked.
    """
    s = classes.shape[1]
    ones = np.ones(rows)
    shifts = np.arange(N)[:, None]
    step = errors.block_step(N * s)
    for c in range(0, classes.shape[0], step):
        S = classes[c:c + step, None, :]
        for moved in (S + shifts, shifts - S):
            supports = np.sort(moved % N, axis=2).reshape(-1, s)

            def blocks(lo, hi):
                X = columns(supports[lo:hi].ravel()).reshape(rows, hi - lo, s)
                return np.einsum("i,ick,icl->ckl", ones, X.conj(), X)

            yield supports, _stacked_deltas(supports.shape[0], max(rows * s, s * s), blocks)


def _dft_maximum(inst: RipInstance, s: int) -> tuple[float, tuple]:
    """The kernel's largest delta_S over all supports of a DFT instance's U_I =
    sqrt(N/m) F[I], and its lexicographically first support, as the full
    enumeration finds them.

    With tau from _circulant_margin and M the largest circulant value, the
    kernel's maximum is at least M - tau, so every support attaining it has a
    circulant value of at least M - 2 tau.  The kernel runs on every translate
    of the classes there and nowhere else, on columns gathered from U_I.
    """
    classes = _classes(inst.N, s)
    keep = np.zeros((1, inst.N), dtype=bool)
    keep[0, list(inst.I)] = True
    values, tau = _circulant_values(keep, inst.m, classes)
    values, tau = values[0], tau[0]
    near = classes[values >= values.max() - 2.0 * tau]
    best_delta, best_support = -1.0, None
    for supports, deltas in _kernel_reruns(lambda cols: inst.U_I[:, cols], inst.realized_rows,
                                           inst.N, near):
        top = float(deltas.max())
        tied = supports[deltas == top]
        first = tuple(tied[np.lexsort(tied.T[::-1])[0]])
        if top > best_delta or (top == best_delta and first < best_support):
            best_delta, best_support = top, first
    return best_delta, best_support


def _circulant_failures(keep: np.ndarray, m: int, classes: np.ndarray, delta: float) -> int:
    """How many of the R kept-row masks give the DFT a support whose kernel delta_S is >= delta.

    A replication whose largest circulant value lies tau or more above
    delta fails, and one whose value lies more than tau below it passes.
    Otherwise the kernel runs on the translates of its classes whose value
    reaches delta - tau, with the same >= delta test, from its kept rows'
    columns alone, so the count is that of the N x N Gram kernel.
    """
    values, tau = _circulant_values(keep, m, classes)
    top = values.max(axis=1)
    fails = top - tau >= delta
    N = keep.shape[1]
    scale = math.sqrt(N / m)
    for r in np.flatnonzero(~fails & (top + tau >= delta)):
        I = np.flatnonzero(keep[r])
        reruns = _kernel_reruns(lambda cols: scale * _dft_entries(I, cols, N), I.size, N,
                                classes[values[r] + tau[r] >= delta])
        fails[r] = any((deltas >= delta).any() for _, deltas in reruns)
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
    s = check_int("s", s, 1, A.shape[1])
    supports = _supports(A.shape[1], s)
    deltas = _block_deltas(_gram(A, s), supports)
    k = int(np.argmax(deltas))  # the first maximum: lexicographically-first support
    return _rip_report(A, s, float(deltas[k]), supports[k])


def _rip_report(A: np.ndarray, s: int, best_delta: float, support) -> RipReport:
    """The report on A's largest delta_s, best_delta, attained on support, and
    its witness direction."""
    N = A.shape[1]
    best_support = tuple(int(i) for i in support)
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
    """One draw of the subsampled N-point DFT: the kept rows I, their read-only
    rescaled entries U_I = sqrt(N/m) F[I], and the DFT's attained flatness K."""

    N: int
    m: int
    K: float
    selector_seed: int
    I: tuple
    U_I: np.ndarray

    @property
    def realized_rows(self) -> int:
        return len(self.I)

    def delta(self, s: int) -> RipReport:
        """restricted_isometry_constant(U_I, s) through the circulant Gram, bit for bit."""
        s = check_int("s", s, 1, self.N)
        return _rip_report(self.U_I, s, *_dft_maximum(self, s))


def _instance_arguments(N, m, seed) -> tuple[int, int, int]:
    """N, m and seed as subsampled_instance checks them, N as build_dft does."""
    N = _check_dft_size(N)
    return N, check_int("m", m, 1, N), _check_seed(seed)


def subsampled_instance(N: int, m: int, seed: int) -> RipInstance:
    """The kept rows of the N-point DFT under Bernoulli(m/N) selectors, rescaled by sqrt(N/m).

    The rows are computed as build_dft computes them, without the N x N
    table; the flatness K, the attained sqrt(N) max |F_kl|, reads all N^2
    entries a row block at a time, so N is refused as build_dft refuses it.
    """
    N, m, seed = _instance_arguments(N, m, seed)
    K = _dft_flatness(N)
    I = sample_selectors(N, m, seed)
    U_I = math.sqrt(N / m) * _dft_entries(I, np.arange(N), N)
    U_I.flags.writeable = False  # delta reads supports off I and columns off U_I
    return RipInstance(N=N, m=m, K=K, selector_seed=seed, I=tuple(int(i) for i in I), U_I=U_I)


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
    square = delta * delta  # K * K saturates to inf where K**2 raised OverflowError
    lead = s * (K * K) / square if square > 0.0 else math.inf
    if not math.isfinite(lead):
        raise DomainError(f"s K^2 / delta^2 is not finite (s={s}, K={K:g}, delta={delta:g})")
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


def estimate_failure_probability(N: int, m: int, s: int, delta: float, reps: int,
                                 seed: int) -> dict:
    """Monte Carlo estimate of P(delta_s >= delta) for the subsampled N-point
    discrete Fourier matrix under Bernoulli(m/N) selectors.

    Equality counts as failure (delta = 0 therefore estimates 1).  Returns
    the exceedance fraction with one-sided Clopper-Pearson bounds at
    validation.CONFIDENCE and the mean realized row count.

    Replication rep draws its selectors from the stream of
    replication_rng(seed, rep), read off one Philox per call that is reset to
    each replication's counter.  Each failure count is the one eigvalsh on
    every support of the rescaled kept rows gives.  A replication costs one
    length-N FFT, and for s >= 3 an eigvalsh pass over one s x s block per
    class of supports under translation and reflection (_circulant_failures);
    N^2 need not fit the table budget.
    """
    N = check_int("N", N, 1)
    m = check_int("m", m, 1, N)
    reps = check_int("reps", reps, 1)
    seed = _check_seed(seed)
    check_real("delta", delta, 0.0)
    s = check_int("s", s, 1, N)
    # Replications go through in chunks whose circulant rows and class values
    # fit one block, and at least one, so memory does not grow with reps.
    classes = _classes(N, s)
    chunk = errors.block_step(max(N, classes.shape[0]))
    streams = _replication_streams(seed)
    failures = 0
    realized = 0
    for lo in range(0, reps, chunk):
        keep = np.array([_selector_mask(streams(rep), N, m)
                         for rep in range(lo, min(lo + chunk, reps))])
        realized += int(keep.sum())
        failures += _circulant_failures(keep, m, classes, delta)
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
