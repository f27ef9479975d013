"""Low-level numeric kernels: compensated accumulation, slope fits, and
sign-pattern tables.

The compensated prefix sums total each 512-term chunk exactly rounded, as
``math.fsum`` would, from vectorised error-free transformations (TwoSum over
the chunk's own cumsum); ``math.fsum`` runs only for the rare chunk whose
rounding the error bound cannot decide.  A :class:`RunningTotal` carries
the sums from one piece of an input to the next, so a long input streams
through in blocks with the bits of one whole-array call."""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 512
_BLOCK_ROWS = 16  # chunks per vectorised block: its 64 KB temporaries add little to peak memory
# |exact chunk sum - (hi + lo)| <= 511^2 u^2 * l1, about 2^-88 * l1 (see _chunk_totals)
_TOTAL_SLACK = 2.0**-80
_FSUM_SAFE = 2.0**1000  # below this l1 norm no partial sum of math.fsum overflows
_TINY = np.finfo(float).smallest_subnormal  # covers the rounding of the bound near underflow


def _chunk_totals(rows: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every row of ``rows``, given ``sums = np.cumsum(rows, axis=1)``.

    Each cumsum step c_k = fl(c_{k-1} + x_k) has an exact error e_k, which
    TwoSum recovers, so a row sums exactly to c_last + sum(e_k) (Sum2 of
    Ogita, Rump and Oishi, "Accurate sum and dot product", 2005).  The e_k
    total at most 511 u l1 (u = 2^-53, l1 the row's l1 norm), and their float
    sum errs by at most gamma_510 of that, so hi + lo, with hi = c_last and
    lo = fl(sum e_k), is within 2^-88 l1 of the exact sum.  A correctly rounded
    sum is unique: where hi + lo, renormalized to total + resid, stays within
    ``_TOTAL_SLACK * l1`` of total and short of the rounding midpoint on
    resid's side, total is fsum's value.  Other rows (a tie, a non-finite
    value, an l1 norm that fsum's partials could overflow on) call fsum.
    """
    a, x, s = sums[:, :-1], rows[:, 1:], sums[:, 1:]
    with np.errstate(invalid="ignore", over="ignore"):
        l1 = np.abs(rows).sum(axis=1)
        # TwoSum's err = (a - (s - bv)) + (x - bv), in two temporaries
        bv = s - a
        err = s - bv
        np.subtract(a, err, out=err)
        np.subtract(x, bv, out=bv)
        err += bv
        hi, lo = sums[:, -1], err.sum(axis=1)
        total = hi + lo
        bv = total - hi
        resid = (hi - (total - bv)) + (lo - bv)
        # the gap to the next float toward zero halves below a power of two
        gap = np.abs(np.spacing(total))
        toward = (resid == 0) | (np.signbit(resid) != np.signbit(total))
        gap[toward & (np.abs(np.frexp(total)[0]) == 0.5)] /= 2
        decided = (np.abs(resid) + (l1 * _TOTAL_SLACK + _TINY) < gap / 2) & (l1 < _FSUM_SAFE)
    for r in np.flatnonzero(~decided).tolist():
        total[r] = math.fsum(rows[r])
    return total


class RunningTotal:
    """Where a compensated prefix sum stands after the pieces fed so far: the
    exactly rounded chunk totals carried with Neumaier compensation as
    ``(carry, comp)``.  Only the last piece may end inside a chunk."""

    __slots__ = ("carry", "comp", "ended")

    def __init__(self) -> None:
        self.carry = 0.0
        self.comp = 0.0
        self.ended = False


def compensated_cumsum(x: np.ndarray, total: RunningTotal | None = None) -> np.ndarray:
    """Prefix sums that do not drift on long inputs.

    Within a chunk the plain running sum keeps the local error near
    ``_CHUNK * eps`` of the chunk total; chunk totals are exactly rounded
    (``math.fsum``'s value, from error-free double-double sums in
    :func:`_chunk_totals`) and carried with Neumaier compensation, so the error
    of every prefix stays at a few ulps even for 10^6 terms.  Full chunks are
    cumsummed and totalled ``_BLOCK_ROWS`` at a time; a last partial chunk,
    or a whole input shorter than a chunk, takes one cumsum and one fsum.

    Given a ``total``, the sums carry on from the pieces fed to it before and
    ``total`` moves past ``x``.  Fed in pieces that are whole chunks, all but
    the last, the input gets the bits of one call on the whole of it.
    """
    x = np.asarray(x, dtype=float)
    total = RunningTotal() if total is None else total
    if total.ended:
        raise ValueError("only the last piece of a running total may end inside a chunk")
    out = np.empty_like(x)
    carry, comp = total.carry, total.comp
    full = x.size - x.size % _CHUNK
    rows, sums = x[:full].reshape(-1, _CHUNK), out[:full].reshape(-1, _CHUNK)
    for i in range(0, rows.shape[0], _BLOCK_ROWS):
        block, cum = rows[i : i + _BLOCK_ROWS], sums[i : i + _BLOCK_ROWS]
        np.cumsum(block, axis=1, out=cum)
        start = np.empty((block.shape[0], 2))  # (carry, comp) before each chunk
        for r, chunk in enumerate(_chunk_totals(block, cum).tolist()):
            start[r] = carry, comp
            s = carry + chunk
            if abs(carry) >= abs(chunk):
                comp += (carry - s) + chunk
            else:
                comp += (chunk - s) + carry
            carry = s
        cum += start[:, :1]
        cum += start[:, 1:]
    np.cumsum(x[full:], out=out[full:])
    out[full:] += carry
    out[full:] += comp
    math.fsum(x[full:])  # the last total moves no carry, but fsum raises on inf - inf or overflow
    total.carry, total.comp, total.ended = carry, comp, full < x.size
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


_SIGNS = np.array([-1.0, 1.0])  # random signs, indexed by a draw of 0 or 1


def sign_patterns(k: int, start: int, stop: int) -> np.ndarray:
    """Rows of +/-1 for pattern ids ``start <= i < stop`` over k positions.

    Bit j of the id gives the sign of position j, so the full table for
    ``start=0, stop=2**k`` enumerates every pattern exactly once.
    """
    ids = np.arange(start, stop, dtype=np.uint64)[:, None]
    bits = (ids >> np.arange(k, dtype=np.uint64)) & np.uint64(1)
    return bits.astype(np.float64) * 2.0 - 1.0
