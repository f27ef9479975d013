"""Certified/heuristic bound pairs returned by all constant estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


def _close(a: float, b: float) -> bool:
    """Agreement to 1e-9 relative to the larger modulus (exact at 0 and inf)."""
    scale = max(abs(a), abs(b))
    return a == b or (math.isfinite(scale) and abs(a - b) <= 1e-9 * scale)


@dataclass
class BoundEstimate:
    """A two-sided estimate for a sup- or inf-type constant.

    ``lower`` is always certified by ``witness``: re-evaluating the stored
    witness reproduces it.  ``upper`` is certified only when
    ``upper_certified`` is set; otherwise it is ``inf`` (sup-type) or a
    heuristic value.  ``heuristic`` marks estimates whose search was budgeted
    rather than exhaustive.
    """

    lower: float
    upper: float = math.inf
    witness: dict[str, Any] | None = None
    upper_certified: bool = False
    heuristic: bool = True
    note: str = ""

    def __post_init__(self) -> None:
        if self.upper < self.lower and not _close(self.lower, self.upper):
            raise ValueError(
                f"inconsistent bound pair: lower={self.lower} exceeds upper={self.upper}"
            )

    @property
    def exact(self) -> bool:
        return self.upper_certified and _close(self.lower, self.upper)

    def as_dict(self) -> dict[str, Any]:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "upper_certified": self.upper_certified,
            "heuristic": self.heuristic,
            "witness": self.witness,
            "note": self.note,
        }


@dataclass
class RatioTracker:
    """Running max of sampled ratios together with the best witness."""

    best: float = -math.inf
    witness: dict[str, Any] | None = field(default=None)

    def update(self, value: float, witness: dict[str, Any]) -> bool:
        if value > self.best:
            self.best = value
            self.witness = witness
            return True
        return False


@dataclass
class MinTracker:
    """Running min of sampled values together with the best witness."""

    best: float = math.inf
    witness: dict[str, Any] | None = field(default=None)

    def update(self, value: float, witness: dict[str, Any]) -> bool:
        if value < self.best:
            self.best = value
            self.witness = witness
            return True
        return False
