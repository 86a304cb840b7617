"""Shared exception types.

Every rejection carries a message naming the offending entry, so callers can
surface validation failures without re-deriving them.  The argument
validators below are shared by every module that takes a count, a seed, an
order or a scale.
"""

import math

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
    finite and >= low (> low if strict)."""
    x = check_number(name, v)
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        op = ">" if strict else ">="
        raise DomainError(f"{name} must be finite and {op} {low:g}, got {v!r}")
    return x


def alpha_power(base: float, exponent: float, what: str, alpha: float) -> float:
    """base ** exponent, with exponent a power of 1/alpha; a DomainError names
    what, at this alpha, where the float power overflows."""
    try:
        return base ** exponent
    except OverflowError:
        raise DomainError(f"{what} is not finite at alpha = {alpha:g}") from None
