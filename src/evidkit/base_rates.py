"""Expert base-rate assignment from class-importance weights.

Domain experts rank defect classes by severity with a class-importance
weight (CIW). Those weights reshape the prior of each binary head: the
defective base rate is shifted up by sigmoid(CIW) - 1/2 and the
non-defective base rate down by the same amount, so a more important
class needs less evidence before the model leans defective. The pair
being shifted is always the uniform (1/2, 1/2), so the defective base
rate is exactly sigmoid(CIW).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .opinions import BaseRatePair


def sigmoid(x: float) -> float:
    """Logistic function 1 / (1 + exp(-x)), saturation-safe."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


@dataclass(frozen=True)
class CIWTable:
    """Ordered (class name, importance weight) pairs, one per known class."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        seen = set()
        for name, weight in self.entries:
            if name in seen:
                raise ConfigError(f"duplicate class name in CIW table: {name!r}")
            seen.add(name)
            if not math.isfinite(weight):
                raise ConfigError(f"CIW for class {name!r} must be finite, got {weight!r}")

    @classmethod
    def from_pairs(cls, pairs) -> "CIWTable":
        return cls(tuple((str(n), float(w)) for n, w in pairs))

    @classmethod
    def uniform(cls, class_names, weight: float = 1.0) -> "CIWTable":
        return cls(tuple((str(n), float(weight)) for n in class_names))

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(weight for _, weight in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def adjust_base_rates(ciw: CIWTable) -> tuple[BaseRatePair, ...]:
    """Shift the uniform (1/2, 1/2) base rates by the expert importance weights.

    For class k the shift sigmoid(ciw_k) - 1/2 gives a_pos = sigmoid(ciw_k)
    and a_neg = 1 - a_pos, computed as such: adding the shift back to 1/2
    would cancel digits for weights below ln(1/3). The pair must lie
    strictly inside (0, 1); a weight extreme enough to round either rate
    to 0 or 1 (above about 36.7 or below about -37.4) is a configuration
    error.
    """
    adjusted = []
    for name, weight in ciw.entries:
        a_pos = sigmoid(weight)
        a_neg = 1.0 - a_pos
        if not (0.0 < a_pos < 1.0 and 0.0 < a_neg < 1.0):
            raise ConfigError(
                f"adjusted base rate for class {name!r} falls outside (0, 1): "
                f"({a_pos!r}, {a_neg!r}); CIW {weight!r} is too extreme for prior "
                "(0.5, 0.5)"
            )
        adjusted.append(BaseRatePair(a_pos, a_neg))
    return tuple(adjusted)


def base_rate_arrays(ciw: CIWTable) -> tuple[np.ndarray, np.ndarray]:
    """adjust_base_rates as float64 (a_pos, a_neg) arrays."""
    bases = adjust_base_rates(ciw)
    return (
        np.array([p.a_pos for p in bases], dtype=np.float64),
        np.array([p.a_neg for p in bases], dtype=np.float64),
    )
