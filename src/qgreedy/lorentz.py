"""Weights, primitive weights, and the weighted Lorentz gauges.

A weight is a finite positive sequence w; its primitive weight is the running
sum s_n = w_1 + ... + w_n.  The gauge of d_q(w) evaluates the non-increasing
rearrangement a* of the input against s:

    ||f||_{q,w} = (sum_n (a_n*)^q s_n^(q-1) w_n)^(1/q)        (q < inf)
    ||f||_{inf,w} = sup_n s_n a_n*

Weights here are plain 1-d numpy arrays; every evaluation uses the prefix of
length equal to the vector dimension.  :func:`lorentz_gauge` holds no formula
of its own: it is the gauge of a :class:`~qgreedy.spaces.LorentzSpace` on that
prefix, the 1-row case of the row kernel in :mod:`qgreedy.spaces`, so one
vector gets the same bits here as from ``ambient_gauge_rows``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidWeightError
from .numerics import compensated_cumsum
from .spaces import LorentzSpace, ambient_gauge, as_vector, check_exponent, check_weight

__all__ = [
    "check_weight",
    "primitive_weight",
    "difference_weight",
    "power_primitive",
    "power_weight",
    "log_damped_primitive",
    "lorentz_gauge",
]


def primitive_weight(w, m: int | None = None) -> np.ndarray:
    """Running sums s_n = w_1 + ... + w_n (compensated accumulation).

    With ``m`` given, only the length-m prefix of the weight is used.
    """
    w = check_weight(w)
    if m is not None:
        if not 1 <= m <= w.size:
            raise InvalidWeightError(f"prefix length must lie in [1, {w.size}], got {m}")
        w = w[:m]
    return compensated_cumsum(w)


def difference_weight(s) -> np.ndarray:
    """Recover w from its primitive weight: w_n = s_n - s_{n-1}, s_0 = 0."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise InvalidWeightError("primitive weight must be a nonempty 1-d array")
    if not np.all(np.isfinite(s)):
        raise InvalidWeightError("primitive weight has non-finite entries")
    w = np.diff(s, prepend=0.0)
    if np.any(w <= 0):
        raise InvalidWeightError("primitive weight must be positive and strictly increasing")
    return w


def power_primitive(alpha: float, length: int) -> np.ndarray:
    """The primitive weight s_n = n^alpha."""
    if length < 1:
        raise InvalidWeightError("length must be >= 1")
    return np.arange(1, length + 1, dtype=float) ** float(alpha)


def power_weight(alpha: float, length: int) -> np.ndarray:
    """The weight whose primitive weight is n^alpha."""
    return difference_weight(power_primitive(alpha, length))


def log_damped_primitive(p: float, q: float, length: int) -> np.ndarray:
    """The primitive weight s_n = n^(1/p) / (1 + log n)^q."""
    check_exponent(p)
    if length < 1:
        raise InvalidWeightError("length must be >= 1")
    n = np.arange(1, length + 1, dtype=float)
    return n ** (1.0 / p) / (1.0 + np.log(n)) ** float(q)


def lorentz_gauge(f, q, w) -> float:
    """Evaluate the d_q(w) gauge of ``f`` using the length-matched weight prefix."""
    f = as_vector(f)
    q = check_exponent(q)
    w = check_weight(w)
    if w.size < f.size:
        raise InvalidWeightError(
            f"weight prefix of length {w.size} is shorter than the vector dimension {f.size}"
        )
    return ambient_gauge(LorentzSpace(q, w[: f.size]), f) if f.size else 0.0
