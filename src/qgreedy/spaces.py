"""Quasi-norm gauges for the ambient sequence spaces.

All spaces are finite-dimensional and real.  Three ambient kinds are
supported: plain ``lp`` with 0 < p <= inf, block spaces taking the Euclidean
norm inside consecutive coordinate blocks before an outer lp sum, and
weighted Lorentz spaces (gauge evaluated in :mod:`qgreedy.lorentz`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidExponentError,
    InvalidVectorError,
    InvalidWeightError,
)

__all__ = [
    "Lp",
    "BlockLpL2",
    "LorentzSpace",
    "AmbientSpace",
    "as_vector",
    "check_exponent",
    "lp_gauge",
    "lp_gauge_rows",
    "ambient_gauge",
    "ambient_gauge_rows",
    "dual_gauge",
    "p_convexity",
    "nonincreasing_rearrangement",
    "p_triangle_defect",
]


def as_vector(f, dim: int | None = None) -> np.ndarray:
    """Coerce ``f`` to a finite 1-d float array, optionally checking length."""
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1:
        raise InvalidVectorError(f"expected a 1-d coefficient array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidVectorError("vector has non-finite entries")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(f"vector length {arr.size} != ambient dimension {dim}")
    return arr


def check_exponent(p) -> float:
    """Validate a gauge exponent: any p in (0, inf]."""
    p = float(p)
    if math.isnan(p) or p <= 0.0:
        raise InvalidExponentError(f"exponent must lie in (0, inf], got {p}")
    return p


def _scaled_lp(a: np.ndarray, p: float) -> np.ndarray:
    """Row-wise (sum a_j^p)^(1/p) of moduli with each row's max factored out."""
    scale = a.max(axis=-1, keepdims=True)
    ratio = np.divide(a, scale, out=np.zeros_like(a), where=scale > 0)
    return scale[..., 0] * np.sum(ratio**p, axis=-1) ** (1.0 / p)


def lp_gauge(f, p) -> float:
    """(sum |f_j|^p)^(1/p) for finite p, max |f_j| for p = inf; an over- or
    underflowed plain result is recomputed with the largest modulus factored out."""
    f = as_vector(f)
    p = check_exponent(p)
    a = np.abs(f)
    if math.isinf(p):
        return float(a.max()) if a.size else 0.0
    val = float(np.sum(a**p) ** (1.0 / p))
    if val == math.inf or (val == 0.0 and a.any()):
        val = float(_scaled_lp(a, p))
    return val


def lp_gauge_rows(mat: np.ndarray, p: float) -> np.ndarray:
    """Row-wise lp gauge of a 2-d array (fast path, no per-row validation);
    rows whose plain result is 0 or inf are recomputed as in :func:`lp_gauge`."""
    a = np.abs(mat)
    if math.isinf(p):
        return a.max(axis=1)
    out = np.sum(a**p, axis=1) ** (1.0 / p)
    redo = (out == 0.0) | (out == math.inf)
    if redo.any():
        out[redo] = _scaled_lp(a[redo], p)
    return out


@dataclass(frozen=True)
class Lp:
    """The sequence space l_p at dimension ``dim``."""

    p: float
    dim: int
    kind: ClassVar[str] = "lp"

    def __post_init__(self) -> None:
        check_exponent(self.p)
        if int(self.dim) < 1:
            raise InvalidVectorError("ambient dimension must be >= 1")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True)
class BlockLpL2:
    """(sum_b ||f restricted to block b||_2^p)^(1/p) over consecutive blocks."""

    p: float
    blocks: tuple[int, ...]
    kind: ClassVar[str] = "block_lp_l2"

    def __post_init__(self) -> None:
        check_exponent(self.p)
        blocks = tuple(int(b) for b in self.blocks)
        if not blocks or any(b < 1 for b in blocks):
            raise InvalidVectorError("blocks must be a nonempty list of sizes >= 1")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "p", float(self.p))

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.blocks)[:-1])).astype(int)


@dataclass(frozen=True, eq=False)
class LorentzSpace:
    """Weighted Lorentz sequence space d_q(w) at dimension ``len(weight)``."""

    q: float
    weight: np.ndarray
    kind: ClassVar[str] = "lorentz"

    def __post_init__(self) -> None:
        check_exponent(self.q)
        w = np.asarray(self.weight, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise InvalidWeightError("weight must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise InvalidWeightError("weight entries must be positive and finite")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "q", float(self.q))

    @property
    def dim(self) -> int:
        return int(self.weight.size)


AmbientSpace = Union[Lp, BlockLpL2, LorentzSpace]


def _block_norms(space: BlockLpL2, f: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduceat(f * f, space.offsets))


def ambient_gauge(space: AmbientSpace, f) -> float:
    """Gauge of ``f`` in the given ambient space."""
    f = as_vector(f, dim=space.dim)
    if isinstance(space, Lp):
        return lp_gauge(f, space.p)
    if isinstance(space, BlockLpL2):
        return lp_gauge(_block_norms(space, f), space.p)
    from .lorentz import lorentz_gauge

    return lorentz_gauge(f, space.q, space.weight)


def ambient_gauge_rows(space: AmbientSpace, mat: np.ndarray) -> np.ndarray:
    """Row-wise ambient gauge (vectorized kernel for enumeration loops)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != space.dim:
        raise DimensionMismatchError(f"expected rows of length {space.dim}")
    if isinstance(space, Lp):
        return lp_gauge_rows(mat, space.p)
    if isinstance(space, BlockLpL2):
        norms = np.sqrt(np.add.reduceat(mat * mat, space.offsets, axis=1))
        return lp_gauge_rows(norms, space.p)
    a = np.sort(np.abs(mat), axis=1)[:, ::-1]
    w = space.weight
    from .lorentz import primitive_weight

    s = primitive_weight(w)
    if math.isinf(space.q):
        return np.max(s[None, :] * a, axis=1)
    q = space.q
    return np.sum(a**q * (s ** (q - 1.0) * w)[None, :], axis=1) ** (1.0 / q)


def dual_gauge(space: AmbientSpace, u) -> float:
    """Norm of the functional with coordinate array ``u`` on the ambient space.

    For p <= 1 the dual gauge of l_p is the sup norm; for 1 < p < inf the
    conjugate-exponent norm; for p = inf the l_1 norm.  Block spaces use the
    same outer rule on inner Euclidean norms.  Weighted Lorentz ambients are
    not supported.
    """
    u = as_vector(u, dim=space.dim)
    if isinstance(space, LorentzSpace):
        raise NotImplementedError("dual gauge for weighted Lorentz ambients is not provided")
    if isinstance(space, Lp):
        inner = np.abs(u)
    else:
        inner = _block_norms(space, u)
    p = space.p
    if p <= 1.0:
        return float(inner.max()) if inner.size else 0.0
    if math.isinf(p):
        return float(inner.sum())
    return lp_gauge(inner, p / (p - 1.0))


def p_convexity(space: AmbientSpace) -> float | None:
    """Largest r <= 1 with a valid r-triangle inequality, or None if unknown."""
    if isinstance(space, (Lp, BlockLpL2)):
        return min(space.p, 1.0)
    return None


def nonincreasing_rearrangement(f) -> np.ndarray:
    """Moduli of the entries of ``f`` sorted in non-increasing order."""
    f = as_vector(f)
    return np.sort(np.abs(f))[::-1].copy()


def p_triangle_defect(f, g, p) -> float:
    """||f+g||_p^p - ||f||_p^p - ||g||_p^p; never positive for 0 < p <= 1."""
    p = check_exponent(p)
    if p > 1.0:
        raise InvalidExponentError("triangle defect is defined for 0 < p <= 1")
    f = as_vector(f)
    g = as_vector(g)
    if f.size != g.size:
        raise DimensionMismatchError("operands must share a dimension")
    return float(lp_gauge(f + g, p) ** p - lp_gauge(f, p) ** p - lp_gauge(g, p) ** p)
