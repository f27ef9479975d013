"""Quasi-norm gauges for the ambient sequence spaces.

All spaces are finite-dimensional and real.  Three ambient kinds are
supported: plain ``lp`` with 0 < p <= inf, block spaces taking the Euclidean
norm inside consecutive coordinate blocks before an outer lp sum, and
weighted Lorentz spaces (weights and primitive weights in :mod:`qgreedy.lorentz`).

Each space has one gauge path, a plain formula over the rows of a 2-d block
of moduli, computed in place in the one moduli array it takes: a fresh one,
or a scratch the caller owns and reuses from block to block.  A scalar gauge
is its 1-row case, so one vector gets the same bits from every entry point.
A row that over- or underflowed is recomputed with its largest modulus
factored out, so no gauge returns inf or 0 when the true value is finite and
nonzero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidExponentError,
    InvalidVectorError,
    InvalidWeightError,
)
from .numerics import compensated_cumsum

__all__ = [
    "Lp",
    "BlockLpL2",
    "LorentzSpace",
    "AmbientSpace",
    "as_vector",
    "check_exponent",
    "check_weight",
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


def check_weight(w) -> np.ndarray:
    """Validate a weight: a nonempty 1-d array of positive finite entries."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise InvalidWeightError("weight must be a nonempty 1-d array")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise InvalidWeightError("weight entries must be positive and finite")
    return w


# A batched gauge call scores at most _ROW_CAP rows, and the search loops size
# their blocks so that no (rows x dimension) temporary exceeds _BLOCK_FLOATS
# floats (256 KB): 1024 rows at dimension 32.
_ROW_CAP = 4096
_BLOCK_FLOATS = 1 << 15


def _block_buffer(width: int, rows: int = 0) -> np.ndarray:
    """A flat float buffer that holds any block of a search whose blocks are
    capped at _BLOCK_FLOATS floats or ``rows`` rows of length ``width``.  Its
    pages are touched only as blocks fill them, and every block of the search
    reuses them (see :func:`_scratch`)."""
    return np.empty(max(_BLOCK_FLOATS, rows * width, width))


def _scratch(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """A C-contiguous view of the first prod(shape) floats of the flat ``buffer``."""
    return buffer[:math.prod(shape)].reshape(shape)


def _block_rows(width: int) -> int:
    """The most rows of length ``width`` that one capped rows call scores."""
    return max(1, min(_ROW_CAP, _BLOCK_FLOATS // max(1, width)))


def _row_chunks(items, width: int, rows_per_item: int = 1):
    """Consecutive lists of ``items`` (any iterable, consumed lazily) that fit
    one capped rows call at ``rows_per_item`` rows of length ``width`` each."""
    it = iter(items)
    size = max(1, _block_rows(width) // max(1, rows_per_item))
    while chunk := list(itertools.islice(it, size)):
        yield chunk


def _subset_sums(vectors: np.ndarray, lo: int, hi: int):
    """Every index set A of sizes lo..hi over the rows of ``vectors``, by size
    and then lexicographically (indicator order, descending, index 0 most
    significant), in capped blocks of (sums, sizes, witness_of): the one
    enumerator of subset sums behind every exact kernel.

    The indices split into a head [0, h) and a tail [h, d); a set is a head subset H
    (in the order of the head table) followed by a tail subset of the remaining size.
    Its sum is H's table sum plus the tail members, read from a lexicographic
    table of tail subsets and added one at a time, so it has the bits of
    ``vectors[list(A)].sum(axis=0)`` (-0.0 for the empty set).
    """
    d = vectors.shape[0]
    cap = _block_rows(vectors.shape[1])
    h = _head_size(d, lo, hi, cap)
    head, head_sizes, head_sums = _head_table(vectors, h, max(0, lo - (d - h)), min(h, hi))
    comb = _capped_binomials(d, hi, cap)
    tables: dict[tuple[int, int], np.ndarray] = {}
    for k in range(lo, hi + 1):
        at = np.flatnonzero((head_sizes >= k - (d - h)) & (head_sizes <= k))
        # a stack of frontier segments, the next in feed order on top; a row is
        # a partial set: its sum, size, last decided index and members
        pending = [(head_sums[at], head_sizes[at], np.full(at.size, h - 1), [head[i] for i in at])]
        while pending:
            sums, size, last, members = pending.pop()
            counts = comb[d - 1 - last, k - size]  # completions of each row
            if counts[0] > cap:  # the first row alone overfills a block: queue its children
                j = np.arange(last[0] + 1, d - k + size[0] + 1)
                if size.size > 1:
                    pending.append((sums[1:], size[1:], last[1:], members[1:]))
                pending.append((sums[0] + vectors[j], np.full(j.size, size[0] + 1), j,
                                [members[0] + (i,) for i in j.tolist()]))
                continue
            n = int(np.searchsorted(np.cumsum(counts), cap, side="right"))
            if n < size.size:
                pending.append((sums[n:], size[n:], last[n:], members[n:]))
            more = k - size[:n]
            avail = np.where(more > 0, d - 1 - last[:n], 0)
            block, starts = _completions(vectors, sums[:n], avail, more, counts[:n], tables)
            yield block, np.full(len(block), k), _completion_witness(
                d, starts, avail, more, members[:n], tables)


def _head_size(d: int, lo: int, hi: int, cap: int) -> int:
    """The largest h <= d / 2 whose head table of subsets of [0, h), of the
    sizes that sets of lo..hi members can have there, fits one block of ``cap`` rows."""
    for h in range(d // 2, 0, -1):
        if sum(math.comb(h, j) for j in range(max(0, lo - (d - h)), min(h, hi) + 1)) <= cap:
            return h
    return 0


def _head_table(vectors: np.ndarray, h: int, lo: int, hi: int):
    """Every subset of [0, h) with lo..hi members, in indicator order
    (descending, index 0 most significant): member tuples, sizes, and sums
    adding the members in member order from -0.0 (which adds nothing)."""
    bits = np.zeros((1, h), dtype=bool)
    sizes = np.zeros(1, dtype=int)
    sums = np.full((1, vectors.shape[1]), -0.0)
    for i in range(h):
        rep = np.repeat(np.arange(sizes.size), 2)
        take = np.resize([True, False], rep.size)  # each row with i, then without
        grown = sizes[rep] + take
        keep = (grown <= hi) & (grown + h - 1 - i >= lo)
        rep, take, sizes = rep[keep], take[keep], grown[keep]
        bits, sums = bits[rep], sums[rep]
        bits[:, i] = take
        sums[take] += vectors[i]
    return [tuple(np.flatnonzero(row).tolist()) for row in bits], sizes, sums


def _capped_binomials(n_max: int, r_max: int, cap: int) -> np.ndarray:
    """C(n, r) for n <= n_max and r <= r_max, each value above ``cap`` read as cap + 1."""
    table = np.zeros((n_max + 1, r_max + 1), dtype=np.int64)
    table[:, 0] = 1
    for n in range(1, n_max + 1):
        table[n, 1:] = np.minimum(table[n - 1, :-1] + table[n - 1, 1:], cap + 1)
    return table


def _lex_table(tables: dict, n: int, r: int) -> np.ndarray:
    """The r-subsets of range(n) in lexicographic order, one per row."""
    if (n, r) not in tables:
        tables[(n, r)] = np.array(list(itertools.combinations(range(n), r)),
                                  dtype=np.intp).reshape(math.comb(n, r), r)
    return tables[(n, r)]


def _completions(vectors: np.ndarray, sums, n, r, counts, tables):
    """The sums of the completions of each frontier row, row by row and
    lexicographically, and each row's first position: a row takes r more
    members from the last n indices.  Rows with the same (n, r) extend
    together, each tail r-subset of the table added one member at a time; a
    complete row (r = 0) has n = 0."""
    d, dim = vectors.shape
    starts = np.cumsum(counts) - counts
    out = np.empty((int(counts.sum()), dim))
    keys = n * (int(r.max()) + 1) + r
    for key in np.unique(keys):
        rows = np.flatnonzero(keys == key)
        tail = vectors[d - int(n[rows[0]]):]
        table = _lex_table(tables, int(n[rows[0]]), int(r[rows[0]]))
        x = np.repeat(sums[rows][:, None, :], len(table), axis=1)
        for col in table.T:
            x += tail[col]
        out[(starts[rows, None] + np.arange(len(table))).ravel()] = x.reshape(-1, dim)
    return out, starts


def _completion_witness(d, starts, n, r, members, tables):
    """witness_of for a block of :func:`_completions`: row q's set, members sorted."""
    def witness(q: int) -> dict[str, list[int]]:
        f = int(np.searchsorted(starts, q, side="right")) - 1
        tail = _lex_table(tables, int(n[f]), int(r[f]))[q - int(starts[f])]
        return {"set": list(members[f]) + (d - int(n[f]) + tail).tolist()}
    return witness


def _guarded(plain, rows: np.ndarray, moduli, *args, scratch=None):
    """``plain(moduli(rows, scratch), *args)`` over the rows of the 2-d ``rows``.
    ``moduli`` writes the moduli into ``scratch`` (a fresh array when it is
    None), which ``plain`` may overwrite in place.  The gauges are
    homogeneous, so a row whose result came out inf, nan, or 0 is recomputed
    from the moduli of its row of ``rows`` as M * plain(row / M, *args), with
    M the row's largest modulus; in-range results are the plain formula's."""
    out = plain(moduli(rows, scratch), *args)
    # one range test: every result in (0, inf), NaN failing it
    if (out.size == 0 or rows.shape[1] == 0
            or 0.0 < np.minimum.reduce(out) <= np.maximum.reduce(out) < math.inf):
        return out
    bad = ~np.isfinite(out) | (out == 0.0)
    if bad.any():
        sub = moduli(rows[bad], None)
        scale = sub.max(axis=1, keepdims=True)
        ratio = np.divide(sub, scale, out=np.zeros_like(sub), where=scale > 0)
        out[bad] = scale[:, 0] * plain(ratio, *args)
    return out


def _lp_sum(a: np.ndarray, p: float):
    """The plain l_p sum of each row of the moduli ``a``, which it overwrites;
    the row max at p = inf.  ``a **= p`` takes the kernel of ``a ** p``, so
    every row keeps the bits of the out-of-place formula."""
    if math.isinf(p):
        return a.max(axis=-1)
    a **= p
    return np.add.reduce(a, axis=-1) ** (1.0 / p)


def lp_gauge(f, p) -> float:
    """(sum |f_j|^p)^(1/p) for finite p, max |f_j| for p = inf: the 1-row
    case of :func:`lp_gauge_rows`, after validation; 0 for an empty vector."""
    f = as_vector(f)
    p = check_exponent(p)
    return float(lp_gauge_rows(f[None, :], p)[0]) if f.size else 0.0


def lp_gauge_rows(mat: np.ndarray, p: float) -> np.ndarray:
    """Row-wise lp gauge of a 2-d array (no validation); a row whose plain
    result over- or underflowed is recomputed as in :func:`_guarded`."""
    return _guarded(_lp_sum, mat, np.abs, p)


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

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.blocks)[:-1])).astype(int)


@dataclass(frozen=True, eq=False)
class LorentzSpace:
    """Weighted Lorentz sequence space d_q(w) at dimension ``len(weight)``.

    The weight is validated and its primitive weight (compensated running
    sums) computed once, here; every gauge evaluation reads the stored array,
    and the table s^(q-1) of the finite-q kernel, computed at its first use.
    """

    q: float
    weight: np.ndarray
    primitive: np.ndarray = field(init=False, repr=False)
    kind: ClassVar[str] = "lorentz"

    def __post_init__(self) -> None:
        check_exponent(self.q)
        w = check_weight(self.weight)
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "primitive", compensated_cumsum(w))
        object.__setattr__(self, "q", float(self.q))

    @property
    def dim(self) -> int:
        return int(self.weight.size)

    @cached_property
    def table(self) -> np.ndarray:
        """s^(q-1) for the primitive weight s, as the kernel multiplies it in (finite q)."""
        return self.primitive ** (self.q - 1.0)


AmbientSpace = Union[Lp, BlockLpL2, LorentzSpace]


def _block_norms(space: BlockLpL2, a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the blocks of each row of the moduli ``a``, which it
    overwrites (plain formula)."""
    np.multiply(a, a, out=a)
    norms = np.add.reduceat(a, space.offsets, axis=-1)
    return np.sqrt(norms, out=norms)


def _block_sum(a: np.ndarray, space: BlockLpL2):
    return _lp_sum(_block_norms(space, a), space.p)


def _lorentz_sum(a: np.ndarray, space: LorentzSpace):
    """d_q(w) gauge of non-increasing moduli ``a``, which it overwrites, against
    the primitive weight s; the products in the order a^q * s^(q-1) * w."""
    if math.isinf(space.q):
        a *= space.primitive
        return a.max(axis=-1)
    a **= space.q
    a *= space.table
    a *= space.weight
    return np.add.reduce(a, axis=-1) ** (1.0 / space.q)


def _sorted_moduli(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The moduli of each row, non-increasing, in ``out`` or a fresh array,
    contiguous either way: numpy may take a different power kernel for a
    strided view, and the last ulp would follow it."""
    a = np.abs(rows, out=out)
    np.negative(a, out=a)
    a.sort(axis=-1)
    return np.negative(a, out=a)


def _rows_gauge(space: AmbientSpace, rows: np.ndarray, scratch: np.ndarray | None = None):
    """Ambient gauge of each row of the 2-d ``rows``, which it leaves unchanged;
    the moduli go to ``scratch`` if given (see :func:`ambient_gauge_rows`)."""
    if isinstance(space, Lp):
        return _guarded(_lp_sum, rows, np.abs, space.p, scratch=scratch)
    if isinstance(space, BlockLpL2):
        return _guarded(_block_sum, rows, np.abs, space, scratch=scratch)
    return _guarded(_lorentz_sum, rows, _sorted_moduli, space, scratch=scratch)


def ambient_gauge(space: AmbientSpace, f) -> float:
    """Gauge of ``f`` in the ambient space: a validated 1-row call of the row kernel."""
    f = as_vector(f, dim=space.dim)
    return float(_rows_gauge(space, f[None, :])[0])


def ambient_gauge_rows(space: AmbientSpace, mat: np.ndarray,
                       scratch: np.ndarray | None = None) -> np.ndarray:
    """Row-wise ambient gauge (vectorized kernel for enumeration loops).

    ``scratch``, if given, is a caller-owned float array of the shape of
    ``mat`` and C-contiguous (a prefix view from :func:`_scratch` is one); the
    kernel computes the moduli there, in place of a fresh array, with the same
    bits, and leaves ``mat`` unchanged.  A search that scores block after
    block reuses one scratch, so it does not allocate a block per call."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != space.dim:
        raise DimensionMismatchError(f"expected rows of length {space.dim}")
    return _rows_gauge(space, mat, _checked_scratch(mat, scratch))


def _checked_scratch(mat: np.ndarray, scratch: np.ndarray | None) -> np.ndarray | None:
    """``scratch`` if it can hold the moduli of ``mat`` in the kernel's layout."""
    if scratch is not None and not (scratch.shape == mat.shape and scratch.dtype == np.float64
                                    and scratch.flags.c_contiguous):
        raise ValueError(f"a gauge scratch must be a C-contiguous float array of shape "
                         f"{mat.shape}, got {scratch.dtype} {scratch.shape}")
    return scratch


def _dual_sum(a: np.ndarray, space: AmbientSpace):
    inner = a if isinstance(space, Lp) else _block_norms(space, a)
    p = space.p  # the conjugate exponent: inf for p <= 1, 1 for p = inf
    return _lp_sum(inner, math.inf if p <= 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0))


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
    return float(_guarded(_dual_sum, u[None, :], np.abs, space)[0])


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
