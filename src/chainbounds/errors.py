"""Shared exception types.

Every rejection carries a message naming the offending entry, so callers can
surface validation failures without re-deriving them.  The argument
validators below are shared by every module: check_int, check_number and
check_real for a count, a seed, an order or a scale, and check_array for
every array a caller hands in (a coefficient matrix, a covariance, a matrix
family, a sample), metric spaces excepted, whose checks name entries by
their role; _check_indices reads an index list through it, check_labels
reads the point labels of a metric space or a process model, and check_keys
refuses a key of a JSON input that nothing reads.
"""

import math
import sys

import numpy as np

__all__ = [
    "ChainboundsError",
    "MetricValidationError",
    "DomainError",
    "CapacityError",
    "ConvergenceError",
    "UnsupportedFamilyError",
    "ModelError",
    "MissingConstantError",
]


class ChainboundsError(ValueError):
    """Base class for all library-specific errors."""


class MetricValidationError(ChainboundsError):
    """A distance matrix is not a finite semi-metric (message names the entry)."""


class DomainError(ChainboundsError):
    """An argument lies outside the validity range of a bound or operation."""


class CapacityError(ChainboundsError):
    """An exact computation was requested above its combinatorial size cap."""


# The most entries any exhaustive table may hold (float64: 32 MB): the gamma
# searches, the sign-pattern laws and pair tables, and the RIP support
# enumeration and rip.build_dft.  It admits gamma_exact on up to 16 points and
# on 17 at a lone free level 2, gamma_prime on up to 12 points, sign_patterns
# on up to 17, supports of 2 indices among up to 2048 and of 3 among up to
# 204, and build_dft up to N = 2048.
_TABLE_BUDGET = 1 << 22
# The most entries one block of a blocked loop, or a table kept across calls,
# holds (float64: 256 KB, the fastest block of metric's triangle certificate).
_BLOCK_ENTRIES = 1 << 15


def block_step(per_item: int) -> int:
    """Items per block of a blocked loop whose items hold per_item entries each:
    as many as _BLOCK_ENTRIES (or a smaller budget) holds, and at least one."""
    return max(1, min(_BLOCK_ENTRIES, _TABLE_BUDGET) // per_item)


def _check_table_budget(what: str, entries: int) -> None:
    """CapacityError, before anything is built, when the table what describes
    (its message reads on with "of N entries") would pass _TABLE_BUDGET
    entries; a count past 10^15 is named by the power of ten below it."""
    if entries > _TABLE_BUDGET:
        size = entries if entries < 10**15 else f"at least 10^{len(str(entries)) - 1}"
        raise CapacityError(f"{what} of {size} entries, above the budget of {_TABLE_BUDGET}")


class ConvergenceError(ChainboundsError):
    """An iterative solver exhausted its iteration budget."""


class UnsupportedFamilyError(ChainboundsError):
    """No closed form is available for the requested distribution family."""


class ModelError(ChainboundsError):
    """A process model is inconsistent (unknown mean, violated increment bound, ...)."""


class MissingConstantError(ChainboundsError):
    """A bound requires a fitted constant that was not supplied."""


def check_int(name: str, v, low: int, high: int | None = None) -> int:
    """v as an int; DomainError unless it is an integer in [low, high].

    Integral floats are accepted; bools (numpy's too), NaN, infinities and
    non-numbers are not.
    """
    try:
        integral = not isinstance(v, (bool, np.bool_)) and int(v) == v
    except (ValueError, OverflowError, TypeError):  # NaN, infinities, non-numbers
        integral = False
    if not integral:
        raise DomainError(f"{name} must be an integer, got {v!r}")
    v = int(v)
    if v < low or (high is not None and v > high):
        hi = "" if high is None else f" and <= {high}"
        raise DomainError(f"{name} must be >= {low}{hi}, got {v}")
    return v


def check_number(name: str, v) -> float:
    """v as a float, NaN and infinities included; DomainError unless it is a
    real number.  Bools and complex numbers (numpy's too) and non-numbers
    (None, strings, containers) are rejected by name."""
    try:
        # math.isfinite reads bools and numpy complex numbers as reals
        if isinstance(v, (bool, np.bool_, np.complexfloating)):
            raise TypeError
        math.isfinite(v)  # TypeError for every non-number
    except TypeError:
        raise DomainError(f"{name} must be a real number, got {v!r}") from None
    return float(v)


def check_real(name: str, v, low: float, strict: bool = False) -> float:
    """v as a float; DomainError unless it is a real number (see check_number),
    finite and >= low (> low if strict; low = -inf asks only for finite)."""
    x = check_number(name, v)
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        op = "" if low == -math.inf else f" and {'>' if strict else '>='} {low:g}"
        raise DomainError(f"{name} must be finite{op}, got {v!r}")
    return x


def check_array(name: str, values, ndim: int | None, *, square: bool = False,
                nonnegative: bool = False, complex_ok: bool = False, empty_ok: bool = False,
                error: type[ChainboundsError] = DomainError) -> np.ndarray:
    """values as a float array (complex if complex_ok), not copied when it is
    one already; error, naming name, unless it is a rectangular array of
    integers or floats (or complex numbers if complex_ok) with ndim axes (any
    if None), square if asked, nonempty unless empty_ok, and finite (and >= 0
    if nonnegative).  Bools, strings and objects are refused; so is a ragged
    nesting.  A bad entry is named by its index."""
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy refuses ragged nestings
        raise error(f"{name} must be a rectangular array, not ragged") from None
    if arr.dtype.kind not in ("iufc" if complex_ok else "iuf"):
        kind = "real or complex" if complex_ok else "real"
        raise error(f"{name} must hold {kind} numbers, got dtype {arr.dtype}")
    if (ndim is not None and arr.ndim != ndim) or (square and arr.shape[0] != arr.shape[1]):
        raise error(f"{name} must be a {'square ' if square else ''}{ndim}-D array, "
                    f"got shape {arr.shape}")
    if arr.size == 0 and not empty_ok:
        raise error(f"{name} must be nonempty, got shape {arr.shape}")
    arr = np.asarray(arr, dtype=complex if complex_ok else float)
    ok = np.isfinite(arr)
    if nonnegative:
        ok &= arr >= 0
    if not ok.all():
        index = [int(i) for i in np.unravel_index(np.argmin(ok), arr.shape)]
        rule = "finite and >= 0" if nonnegative else "finite"
        raise error(f"{name} must be {rule}, got {arr[tuple(index)]} at entry {index}")
    return arr


def check_keys(what: str, obj: dict, readable) -> None:
    """DomainError naming each key of the JSON object obj, described by what,
    that nothing reads, with the keys that are read."""
    unread = sorted(set(obj) - set(readable))
    if unread:
        raise DomainError(f"{what} has unread key{'s' * (len(unread) > 1)} {str(unread)[1:-1]}; "
                          f"it reads {str(sorted(readable))[1:-1] or 'none'}")


def check_labels(labels, error: type[ChainboundsError]) -> tuple:
    """labels as a tuple; error, naming labels, unless they are a list, a
    tuple or a 1-D array (a string or a scalar is no list of labels)."""
    if not (isinstance(labels, (list, tuple))
            or (isinstance(labels, np.ndarray) and labels.ndim == 1)):
        raise error(f"labels must be a list of point labels, got {labels!r}")
    return tuple(labels)


def _check_indices(name: str, values, size: int, out_of_range: str) -> np.ndarray:
    """values as a 1-D int array of indices into range(size), empty allowed;
    DomainError, naming name, unless check_array admits it as a 1-D array and
    each entry is an integer (integral floats pass, as in check_int), and
    DomainError(out_of_range) unless each lies in [0, size)."""
    arr = check_array(name, values, 1, empty_ok=True)
    fractional = arr != np.floor(arr)
    if fractional.any():
        i = int(np.argmax(fractional))
        raise DomainError(f"{name} must hold integers, got {arr[i]} at entry [{i}]")
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise DomainError(out_of_range)
    return arr.astype(int)


def alpha_power(base: float, exponent: float, what: str, alpha: float) -> float:
    """base ** exponent, with exponent a power of 1/alpha; a DomainError names
    what, at this alpha, where the float power overflows."""
    try:
        return base ** exponent
    except OverflowError:
        raise DomainError(f"{what} is not finite at alpha = {alpha:g}") from None


def square(x: float) -> float:
    """x ** 2, bit for bit, or inf where that float power overflows (x * x
    differs from x ** 2 in the last place on about 0.09% of floats)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def power_reduce(reduce, values: np.ndarray, degree: int = 1):
    """reduce(values), for a reduction over the last axis built from powers,
    sums and roots that is homogeneous of the given degree: reduce(c x) =
    c^degree reduce(x) for c > 0.

    It is computed as written, so every normal finite result keeps its bits.
    Where a power or a sum inside overflows, or underflows to a result that
    is 0 or subnormal, the result is computed again from the values divided
    by their largest modulus along the axis and multiplied back by it degree
    times, so it is finite and positive wherever the true value is.
    Rescaling every result would move the last bits of some normal ones.
    """
    with np.errstate(over="ignore"):
        out = reduce(values)
        lost = ~(np.isfinite(out) & (np.abs(out) >= sys.float_info.min))  # past or below normal
        if not lost.any():
            return out
        top = np.abs(values).max(axis=-1, keepdims=True)
        top = np.where((top > 0) & np.isfinite(top), top, 1.0)  # an all-zero row stays 0
        redo = reduce(values / top)
        for _ in range(degree):
            redo = top[..., 0] * redo
        return np.where(lost, redo, out)


def nonfinite_columns(values: np.ndarray) -> np.ndarray:
    """Indices of the columns of the 2-D array values holding an entry that is not finite."""
    return np.flatnonzero(~np.isfinite(values).all(axis=0))


def alpha_exp(exponent: float, what: str, alpha: float) -> float:
    """e^exponent, with exponent a function of alpha; a DomainError names what,
    at this alpha, where the float exponential overflows."""
    try:
        return math.exp(exponent)
    except OverflowError:
        raise DomainError(f"{what} is not finite at alpha = {alpha:g}") from None
