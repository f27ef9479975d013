"""Iterated sequence improvement for democracy lower bounds.

One step maps a positive sequence s to

    t_m = m * (sum_{n<=m} 1/s_n^2)^(-1/2),

and the chain starts from the constant sequence 1.  The first stage is
sqrt(m) exactly, the second m/sqrt(H_m) with H_m the harmonic numbers, and
the third-stage ratio t_m/m = (sum_{n<=m} H_n/n^2)^(-1/2) converges to
(2 zeta(3))^(-1/2) ~ 0.644945 by Euler's identity sum H_n/n^2 = 2 zeta(3).  All
running sums use compensated accumulation so stage values at m = 10^6 are
trustworthy to a relative 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidWeightError
from .numerics import compensated_cumsum

__all__ = ["GrowthSequence", "harmonic", "bootstrap_step", "bootstrap_chain", "BootstrapChain"]


@dataclass(frozen=True, eq=False)
class GrowthSequence:
    """A positive sequence indexed m = 1..M; values[i] is the term at m = i+1."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise InvalidWeightError("growth sequence must be a nonempty 1-d array")
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise InvalidWeightError("growth sequence entries must be positive and finite")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)

    def term(self, m: int) -> float:
        """The value at rank m (1-based)."""
        if not 1 <= m <= len(self):
            raise IndexError(f"rank must lie in [1, {len(self)}], got {m}")
        return float(self.values[m - 1])


def harmonic(M: int) -> GrowthSequence:
    """Partial sums H_m = sum_{n<=m} 1/n."""
    if M < 1:
        raise InvalidWeightError("length must be >= 1")
    n = np.arange(1, M + 1, dtype=float)
    return GrowthSequence(compensated_cumsum(1.0 / n), "harmonic")


def bootstrap_step(s, label: str | None = None) -> GrowthSequence:
    """Apply t_m = m (sum_{n<=m} s_n^(-2))^(-1/2) to a positive sequence."""
    s = s if isinstance(s, GrowthSequence) else GrowthSequence(s)
    m = np.arange(1, len(s) + 1, dtype=float)
    sums = compensated_cumsum(s.values**-2.0)
    out = m * sums**-0.5
    return GrowthSequence(out, label if label is not None else f"step({s.label})")


@dataclass(frozen=True, eq=False)
class BootstrapChain:
    """Stages of the iterated improvement; stages[0] is the constant 1."""

    stages: tuple[GrowthSequence, ...]

    @property
    def iterations(self) -> int:
        return len(self.stages) - 1

    @property
    def length(self) -> int:
        return len(self.stages[0])

    @property
    def final_over_m(self) -> np.ndarray:
        """The last stage divided by m."""
        m = np.arange(1, self.length + 1, dtype=float)
        return self.stages[-1].values / m


def bootstrap_chain(M: int, iterations: int) -> BootstrapChain:
    """Iterate the improvement step ``iterations`` times from the constant 1."""
    if M < 1:
        raise InvalidWeightError("length must be >= 1")
    if iterations < 0:
        raise InvalidWeightError("iterations must be >= 0")
    stages = [GrowthSequence(np.ones(M), "stage0")]
    for k in range(1, iterations + 1):
        stages.append(bootstrap_step(stages[-1], label=f"stage{k}"))
    return BootstrapChain(tuple(stages))
