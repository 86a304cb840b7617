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
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import DomainError, MissingConstantError

__all__ = ["ConstantRegistry", "DEFAULT_REGISTRY"]

_DEFAULT_C = {2.0: 86.0}
_DEFAULT_D = {2.0: 9.0}
_DEFAULT_UNION = 16.0


@dataclass(frozen=True)
class ConstantRegistry:
    """Immutable constant store.

    fitted maps constant names (e.g. "mixed_C", "hanson_wright_c", or
    overrides "C_2", "D_2", "union_c") to user-supplied values.  Lookups
    return (value, fitted_flag) pairs so evaluators can propagate the flag.
    """

    fitted: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, v in self.fitted.items():
            fv = float(v)
            if not math.isfinite(fv) or fv <= 0:
                raise DomainError(f"fitted constant {name!r} must be finite and positive, got {v}")
        object.__setattr__(self, "fitted", MappingProxyType(dict(self.fitted)))

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
        return cls(fitted={str(k): float(v) for k, v in data.items()})

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
