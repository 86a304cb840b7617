"""Shared exception types.

Every rejection carries a message naming the offending entry, so callers can
surface validation failures without re-deriving them.  The argument
validators below are shared by every module that takes a count, a seed, an
order, a scale or a confidence level.
"""

import math

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

    Integral floats are accepted; bools, NaN, infinities and non-numbers are not.
    """
    try:
        integral = not isinstance(v, bool) and int(v) == v
    except (ValueError, OverflowError, TypeError):  # NaN, infinities, non-numbers
        integral = False
    if not integral:
        raise DomainError(f"{name} must be an integer, got {v!r}")
    v = int(v)
    if v < low or (high is not None and v > high):
        hi = "" if high is None else f" and <= {high}"
        raise DomainError(f"{name} must be >= {low}{hi}, got {v}")
    return v


def check_real(name: str, v, low: float, strict: bool = False) -> float:
    """v as a float; DomainError unless it is finite and >= low (> low if strict).

    Bools and non-numbers (None, strings, containers) are rejected by name.
    """
    try:
        if isinstance(v, bool):
            raise TypeError
        finite = math.isfinite(v)
    except TypeError:
        raise DomainError(f"{name} must be a real number, got {v!r}") from None
    if not (finite and (v > low if strict else v >= low)):
        op = ">" if strict else ">="
        raise DomainError(f"{name} must be finite and {op} {low:g}, got {v!r}")
    return float(v)


def check_confidence(confidence) -> float:
    """confidence as a float; DomainError unless it lies in (0.5, 1)."""
    if not 0.5 < confidence < 1.0:  # False for NaN
        raise DomainError(f"confidence must lie in (0.5, 1), got {confidence}")
    return float(confidence)


def alpha_power(base: float, exponent: float, what: str, alpha: float) -> float:
    """base ** exponent, with exponent a power of 1/alpha; a DomainError names
    what, at this alpha, where the float power overflows."""
    try:
        return base ** exponent
    except OverflowError:
        raise DomainError(f"{what} is not finite at alpha = {alpha:g}") from None
