"""Registry of chaining constants: derived defaults plus fitted overrides.

Defaults carry only values with a derivation behind them: the alpha = 2
chaining constants C_2 <= 86 and D_2 <= 9 and the union-step constant
(<= 16; its convergent series evaluates to about 5.83, see
union_bound_constant in conversions).  Bounds whose constants are not pinned
down anywhere must receive explicit fitted values; anything fitted taints
every downstream report with fitted=True.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import DomainError, MissingConstantError

__all__ = ["ConstantRegistry", "DEFAULT_REGISTRY"]

_DEFAULT_C = {2.0: 86.0}
_DEFAULT_D = {2.0: 9.0}
_DEFAULT_UNION = 16.0
# Every fitted name a lookup reads: these, and a chaining constant's C_a or
# D_a, with a > 0 written as _chaining looks it up, f"{alpha:g}" (C_2, D_0.5).
_FITTED_NAMES = frozenset(
    ["union_c", "hanson_wright_c"]
    + [f"{key}_{c}" for key in ("mixed", "empirical", "squares", "chaos") for c in "Cc"]
)


def _is_read(name) -> bool:
    """Whether some lookup reads the fitted name (see _FITTED_NAMES)."""
    if not isinstance(name, str):
        return False
    if name in _FITTED_NAMES:
        return True
    prefix, _, alpha = name.partition("_")
    try:
        a = float(alpha)
    except ValueError:
        return False
    return prefix in ("C", "D") and 0 < a < math.inf and f"{a:g}" == alpha


@dataclass(frozen=True)
class ConstantRegistry:
    """Immutable constant store.

    fitted maps constant names (e.g. "mixed_C", "hanson_wright_c", or
    overrides "C_2", "D_2", "union_c") to user-supplied values; a name no
    lookup reads is refused, so a misspelling cannot pass unused.  Lookups
    return (value, fitted_flag) pairs so evaluators can propagate the flag.
    """

    fitted: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, v in self.fitted.items():
            if not _is_read(name):
                raise DomainError(
                    f"unknown fitted constant {name!r}: no bound reads it; the names read are "
                    f"{', '.join(sorted(_FITTED_NAMES))}, and C_a, D_a for alpha = a > 0 "
                    "written as in '{alpha:g}' (C_2, D_0.5)"
                )
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise DomainError(f"fitted constant {name!r} must be a real number, got {v!r}")
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"fitted constant {name!r} must be finite and positive, got {v}")
        fitted = {name: float(v) for name, v in self.fitted.items()}
        object.__setattr__(self, "fitted", MappingProxyType(fitted))

    def with_fitted(self, **named: float) -> "ConstantRegistry":
        merged = dict(self.fitted)
        merged.update(named)
        return ConstantRegistry(fitted=merged)

    @classmethod
    def from_json(cls, path) -> "ConstantRegistry":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise DomainError("constants file must hold a JSON object of name -> value")
        return cls(fitted={str(k): v for k, v in data.items()})

    def _chaining(self, name: str, defaults: dict, alpha: float) -> tuple[float, bool]:
        key = f"{name}_{alpha:g}"
        if key in self.fitted:
            return float(self.fitted[key]), True
        if float(alpha) in defaults:
            return defaults[float(alpha)], False
        raise MissingConstantError(
            f"no derived chaining constant {name} for alpha = {alpha:g}; "
            f"supply a fitted override named {key!r}"
        )

    def chaining_C(self, alpha: float) -> tuple[float, bool]:
        return self._chaining("C", _DEFAULT_C, alpha)

    def chaining_D(self, alpha: float) -> tuple[float, bool]:
        return self._chaining("D", _DEFAULT_D, alpha)

    def union_c(self) -> tuple[float, bool]:
        if "union_c" in self.fitted:
            return float(self.fitted["union_c"]), True
        return _DEFAULT_UNION, False

    def require(self, name: str) -> tuple[float, bool]:
        """A constant with no derived default; must have been fitted."""
        if name in self.fitted:
            return float(self.fitted[name]), True
        raise MissingConstantError(
            f"constant {name!r} has no derived value; supply it explicitly "
            f"(e.g. registry.with_fitted({name}=...) or a --fit file)"
        )

    def snapshot(self) -> dict:
        return {
            "defaults": {
                "C": {f"{a:g}": v for a, v in _DEFAULT_C.items()},
                "D": {f"{a:g}": v for a, v in _DEFAULT_D.items()},
                "union_c": _DEFAULT_UNION,
            },
            "fitted": dict(self.fitted),
        }


DEFAULT_REGISTRY = ConstantRegistry()
