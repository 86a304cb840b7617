"""Evaluated inequality containers: tail bounds and moment bounds.

A TailBound is a statement P(X >= threshold(u)) <= envelope(u) for u in
[u_min, inf).  Thresholds are affine in (1, sqrt(u), u) with a common leading
factor; envelopes are exponential families clipped to [0, 1].  A MomentBound
carries an order-p value together with the additive decomposition that
produced it.  Both record the constants they consumed and whether any of
those constants were fitted rather than derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = ["PowerEnvelope", "MinEnvelope", "DegenerateEnvelope", "TailBound", "MomentBound"]


@dataclass(frozen=True)
class PowerEnvelope:
    """prefactor * exp(-rate * u^power), clipped to [0, 1]."""

    prefactor: float
    rate: float
    power: float

    def __post_init__(self):
        if not self.prefactor > 0:
            raise DomainError(f"envelope prefactor must be positive, got {self.prefactor}")
        if not (self.rate >= 0 and self.power > 0):
            raise DomainError("envelope rate must be >= 0 and power > 0")

    def probability(self, u) -> float | np.ndarray:
        arr = np.asarray(u, dtype=float)
        out = np.clip(self.prefactor * np.exp(-self.rate * arr ** self.power), 0.0, 1.0)
        return float(out) if arr.ndim == 0 else out

    def to_dict(self) -> dict:
        return {
            "kind": "exp-power",
            "prefactor": self.prefactor,
            "rate": self.rate,
            "power": self.power,
        }


@dataclass(frozen=True)
class MinEnvelope:
    """prefactor * exp(-c * min(u^2 / s2^2, u / sinf)), clipped to [0, 1]."""

    prefactor: float
    c: float
    s2: float
    sinf: float

    def __post_init__(self):
        if not (self.prefactor > 0 and self.c >= 0):
            raise DomainError("envelope prefactor must be positive and c >= 0")
        if not (self.s2 > 0 and self.sinf > 0):
            raise DomainError("envelope scales must be positive")

    def probability(self, u) -> float | np.ndarray:
        arr = np.asarray(u, dtype=float)
        expo = self.c * np.minimum(arr ** 2 / self.s2 ** 2, arr / self.sinf)
        out = np.clip(self.prefactor * np.exp(-expo), 0.0, 1.0)
        return float(out) if arr.ndim == 0 else out

    def to_dict(self) -> dict:
        return {
            "kind": "exp-min",
            "prefactor": self.prefactor,
            "c": self.c,
            "s2": self.s2,
            "sinf": self.sinf,
        }


@dataclass(frozen=True)
class DegenerateEnvelope:
    """Tail of an almost-surely-zero variable: 1 at u = 0, 0 beyond."""

    def probability(self, u) -> float | np.ndarray:
        arr = np.asarray(u, dtype=float)
        out = np.where(arr > 0, 0.0, 1.0)
        return float(out) if arr.ndim == 0 else out

    def to_dict(self) -> dict:
        return {"kind": "degenerate"}


@dataclass(frozen=True)
class TailBound:
    """P(X >= factor * (const + sqrt_coeff * sqrt(u) + linear * u)) <= envelope(u)."""

    factor: float
    const: float
    sqrt_coeff: float
    linear: float
    envelope: PowerEnvelope | MinEnvelope | DegenerateEnvelope
    u_min: float = 1.0
    constants: dict = field(default_factory=dict)
    fitted: bool = False
    name: str = ""

    def __post_init__(self):
        for label, v in (
            ("factor", self.factor),
            ("const", self.const),
            ("sqrt_coeff", self.sqrt_coeff),
            ("linear", self.linear),
        ):
            if v < 0 or not math.isfinite(v):
                raise DomainError(f"threshold coefficient {label} must be finite and >= 0, got {v}")

    def _valid_u(self, u) -> np.ndarray:
        arr = np.asarray(u, dtype=float)
        if not np.all(arr >= self.u_min):  # NaN fails too
            raise DomainError(
                f"{self.name or 'bound'} is valid for u >= {self.u_min}, got {arr.min()}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{self.name or 'bound'} needs a finite u, got {arr.max()}")
        return arr

    def threshold(self, u) -> float | np.ndarray:
        arr = self._valid_u(u)
        out = self.factor * (self.const + self.sqrt_coeff * np.sqrt(arr) + self.linear * arr)
        return float(out) if arr.ndim == 0 else out

    def probability(self, u) -> float | np.ndarray:
        self._valid_u(u)
        return self.envelope.probability(u)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "threshold": {
                "factor": self.factor,
                "const": self.const,
                "sqrt_coeff": self.sqrt_coeff,
                "linear": self.linear,
            },
            "envelope": self.envelope.to_dict(),
            "u_min": self.u_min,
            "constants_used": dict(self.constants),
            "fitted": self.fitted,
        }


@dataclass(frozen=True)
class MomentBound:
    """(E X^p)^(1/p) <= value, with value = sum of the decomposition terms."""

    p: float
    decomposition: tuple[tuple[str, float], ...]
    constants: dict = field(default_factory=dict)
    fitted: bool = False
    name: str = ""

    def __post_init__(self):
        if not self.p >= 1:
            raise DomainError(f"moment order must be >= 1, got {self.p}")
        for label, v in self.decomposition:
            if v < 0 or not math.isfinite(v):
                raise DomainError(f"decomposition term {label!r} must be finite and >= 0, got {v}")

    @property
    def value(self) -> float:
        return float(sum(v for _, v in self.decomposition))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "p": self.p,
            "value": self.value,
            "decomposition": {k: v for k, v in self.decomposition},
            "constants_used": dict(self.constants),
            "fitted": self.fitted,
        }
