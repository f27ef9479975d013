"""Certified/heuristic bound pairs returned by all constant estimators, and
the first-best tracker behind every witness search.

Every search reports through :meth:`Tracker.estimate`, which holds the one
rule for a sup-type bound: the lower bound is the best witness value, clamped
to the upper bound; the upper bound is certified exactly when it is finite,
since an estimator passes a finite one only when a proved inequality (or an
exhaustive search) gives it.  Every gauge ratio a search offers comes from
:func:`ratios`, the one rule for dividing two gauges.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np


def ratios(num, den) -> np.ndarray:
    """The one ratio rule of the witness searches: ``num / den`` where
    ``den > 0``, -inf (no ratio) elsewhere, and NaN, with no warning, where
    both gauges overflowed (inf / inf); :meth:`Tracker.offer` ranks NaN last."""
    with np.errstate(invalid="ignore"):
        return np.divide(num, den, out=np.full(np.broadcast(num, den).shape, -math.inf),
                         where=np.asarray(den) > 0)


def _close(a: float, b: float) -> bool:
    """Agreement to 1e-9 relative to the larger modulus (exact at 0 and inf)."""
    scale = max(abs(a), abs(b))
    return a == b or (math.isfinite(scale) and abs(a - b) <= 1e-9 * scale)


@dataclass
class BoundEstimate:
    """A two-sided estimate for a sup- or inf-type constant.

    ``lower`` is always certified by ``witness``: re-evaluating the stored
    witness reproduces it (up to the clamp to a certified ``upper``).
    ``upper`` is certified only when ``upper_certified`` is set; otherwise it
    is ``inf`` (sup-type) or a heuristic value.  Searches build their
    estimates with :meth:`Tracker.estimate`.  ``heuristic`` marks estimates
    whose search was budgeted rather than exhaustive.
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
        return asdict(self)


class Tracker:
    """The first best value offered, by the sense ``maximize``, with its witness.

    Offering a block of values keeps the same winner as offering its entries
    one at a time: a later value replaces the best only when strictly better,
    and a NaN never does.
    """

    def __init__(self, maximize: bool = True) -> None:
        self.maximize = maximize
        self.best = -math.inf if maximize else math.inf
        self.witness: Any = None

    def update(self, value: float, witness: Any) -> None:
        if value > self.best if self.maximize else value < self.best:
            self.best, self.witness = value, witness

    def offer(self, values, witness_of: Callable[[int], Any], eligible=None) -> None:
        """Offer the first best eligible entry of the 1-d block ``values`` (a
        NaN entry is not eligible); ``witness_of(j)`` builds the witness of
        entry j, and only if it wins."""
        keyed = np.asarray(values, dtype=float) * (1.0 if self.maximize else -1.0)
        if eligible is not None:
            keyed = np.where(eligible, keyed, -math.inf)
        if keyed.size == 0:
            return
        j = int(np.argmax(keyed))
        if math.isnan(keyed[j]):  # argmax stops at the first NaN: rank NaN entries last
            keyed = np.where(np.isnan(keyed), -math.inf, keyed)
            j = int(np.argmax(keyed))
        if keyed[j] > (self.best if self.maximize else -self.best):
            self.best, self.witness = float(values[j]), witness_of(j)

    def estimate(self, upper: float = math.inf, heuristic: bool = True,
                 note: str = "") -> BoundEstimate:
        """The search's bound pair: the best value, clamped to ``upper``, with
        its witness; ``upper`` is certified exactly when it is finite."""
        return BoundEstimate(min(self.best, upper), upper, self.witness,
                             upper_certified=math.isfinite(upper), heuristic=heuristic,
                             note=note)
