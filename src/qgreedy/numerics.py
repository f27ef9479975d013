"""Low-level numeric kernels: compensated accumulation, slope fits, and
sign-pattern tables."""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 512


def compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Prefix sums that do not drift on long inputs.

    Within a chunk the plain running sum keeps the local error near
    ``_CHUNK * eps`` of the chunk total; chunk totals are exactly rounded
    (``math.fsum``) and carried with Neumaier compensation, so the error of
    every prefix stays at a few ulps even for 10^6 terms.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    carry = 0.0
    comp = 0.0
    for i in range(0, x.size, _CHUNK):
        seg = x[i : i + _CHUNK]
        np.cumsum(seg, out=out[i : i + _CHUNK])
        out[i : i + _CHUNK] += carry
        out[i : i + _CHUNK] += comp
        total = math.fsum(seg)
        s = carry + total
        if abs(carry) >= abs(total):
            comp += (carry - s) + total
        else:
            comp += (total - s) + carry
        carry = s
    return out


def loglog_slope(m: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope of log y against log m.

    Returns ``(slope, intercept, residual)`` with the residual measured as the
    root-mean-square deviation of log y from the fitted line.
    """
    m = np.asarray(m, dtype=float)
    y = np.asarray(y, dtype=float)
    if m.size < 2:
        raise ValueError("slope fit needs at least two points")
    if np.any(m <= 0) or np.any(y <= 0):
        raise ValueError("slope fit needs positive data")
    lx = np.log(m)
    ly = np.log(y)
    coeff = np.polyfit(lx, ly, 1)
    fitted = coeff[0] * lx + coeff[1]
    res = float(np.sqrt(np.mean((ly - fitted) ** 2)))
    return float(coeff[0]), float(coeff[1]), res


def sign_patterns(k: int, start: int, stop: int) -> np.ndarray:
    """Rows of +/-1 for pattern ids ``start <= i < stop`` over k positions.

    Bit j of the id gives the sign of position j, so the full table for
    ``start=0, stop=2**k`` enumerates every pattern exactly once.
    """
    ids = np.arange(start, stop, dtype=np.uint64)[:, None]
    bits = (ids >> np.arange(k, dtype=np.uint64)) & np.uint64(1)
    return bits.astype(np.float64) * 2.0 - 1.0
