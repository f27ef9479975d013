"""Strong absoluteness, concentration sets, the family-size counting
inequality, and the sign-average square-function comparison.

The reference system throughout is the unit vector basis of l_p with
0 < p < 1, for which the l_1 coefficient sum is dominated by
max{A(eps) * sup-coefficient, eps * gauge} with A(eps) = eps^(-p/(1-p)).
The implemented A is that closed-form upper bound for the smallest admissible
constant; downstream deltas are therefore conservative (smaller delta, larger
concentration set), which preserves the counting inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import InvalidExponentError, PreconditionError
from .numerics import _SIGNS
from .rng import KHINTCHINE_MC, PAIR_FAMILIES, substream
from .spaces import _subset_sums, as_vector, lp_gauge_rows

__all__ = [
    "strongly_absolute_function",
    "strongly_absolute_check",
    "strongly_absolute_rows",
    "AbsoluteCheck",
    "PairFamily",
    "random_pair_family",
    "concentration_set",
    "counting_parameters",
    "counting_inequality_check",
    "CountingCheck",
    "khintchine_square_function",
    "SquareFunctionComparison",
    "NORMALIZATION_TOL",
]

NORMALIZATION_TOL = 1e-9
_DOMINATION_TOL = 1e-12  # relative and absolute slack of the Lemma 3.2 comparison
_COUNTING_TOL = 1e-9  # absolute slack of the counting inequality
_EXACT_SIGN_LIMIT = 20
_MIN_PAIRING = 0.2  # of |x*(x)| / (|x*|_2 |x|_2) <= 1 (Cauchy-Schwarz), so below 1
# Rejection rounds per family.  A draw is kept with probability about 0.045 at
# dim 100 (the cosine is roughly N(0, 1/dim)), so a family of 100 pairs needs
# more than 1000 rounds with probability below 1e-18; at dim 1000 it is about
# 2e-10 a draw, and the rounds run out.
_PAIRING_ROUNDS = 1000
_PAIRING_HOPELESS = 1e-12  # a family less likely than this to complete is not drawn


def _check_p_strict(p) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise InvalidExponentError(f"exponent must lie in (0, 1), got {p}")
    return p


def strongly_absolute_function(p: float, eps: float) -> float:
    """A(eps) = eps^(-p/(1-p)), the domination constant for l_p, 0 < p < 1."""
    p = _check_p_strict(p)
    eps = float(eps)
    if eps <= 0:
        raise InvalidExponentError(f"eps must be positive, got {eps}")
    try:
        return eps ** (-p / (1.0 - p))
    except OverflowError:
        raise InvalidExponentError(
            f"A(eps) = eps^(-p/(1-p)) exceeds the float range at p = {p!r}, eps = {eps!r}"
        ) from None


@dataclass(frozen=True)
class AbsoluteCheck:
    lhs: float
    rhs: float
    holds: bool


def strongly_absolute_check(f, p: float, eps: float) -> AbsoluteCheck:
    """Evaluate ||f||_1 <= max{A(eps) ||f||_inf, eps ||f||_p} for the unit system
    (the 1-row case of :func:`strongly_absolute_rows`)."""
    lhs, rhs, holds = strongly_absolute_rows(as_vector(f)[None, :], (p,), (eps,))
    return AbsoluteCheck(lhs=float(lhs[0]), rhs=float(rhs[0, 0, 0]), holds=bool(holds[0, 0, 0]))


def strongly_absolute_rows(rows: np.ndarray, p_values, eps_values):
    """:func:`strongly_absolute_check` for every row f_i of a 2-d array at every
    (p_values[k], eps_values[e]): returns lhs[i] = ||f_i||_1 and rhs[k, i, e],
    holds[k, i, e].  The l_1 and sup gauges are computed once per row, the l_p
    gauge once per (row, p); each eps is an array comparison with slack
    ``_DOMINATION_TOL``.  Rows are not validated (see :func:`lp_gauge_rows`)."""
    a = np.array([[strongly_absolute_function(p, eps) for eps in eps_values] for p in p_values])
    mat = np.asarray(rows, dtype=float)
    if mat.shape[1] == 0:  # an empty vector has every gauge 0
        mat = np.zeros((mat.shape[0], 1))
    lhs = lp_gauge_rows(mat, 1.0)
    sup = lp_gauge_rows(mat, math.inf)
    gp = np.stack([lp_gauge_rows(mat, p) for p in p_values])
    rhs = np.maximum(a[:, None, :] * sup[None, :, None], np.array(eps_values) * gp[:, :, None])
    return lhs, rhs, lhs[None, :, None] <= rhs * (1 + _DOMINATION_TOL) + _DOMINATION_TOL


@dataclass(frozen=True, eq=False)
class PairFamily:
    """A finite family of (vector, functional) pairs over the l_p unit system.

    Rows of ``vectors`` are the x_n in ambient coordinates, rows of ``duals``
    the coordinate arrays of the x_n*.  Only the normalization
    x_n*(x_n) = 1 is required; biorthogonality across pairs is not.
    """

    vectors: np.ndarray
    duals: np.ndarray
    p: float

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=float)
        u = np.asarray(self.duals, dtype=float)
        _check_p_strict(self.p)
        if v.ndim != 2 or v.shape != u.shape or v.shape[0] < 1:
            raise PreconditionError("vectors and duals must be matching nonempty 2-d arrays")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(u))):
            raise PreconditionError("family entries must be finite")
        pairing = np.einsum("ij,ij->i", u, v)
        worst = int(np.argmax(np.abs(pairing - 1.0)))
        if abs(pairing[worst] - 1.0) > NORMALIZATION_TOL:
            raise PreconditionError(
                f"pair {worst} is not normalized: x*_{worst}(x_{worst}) = {pairing[worst]!r}"
            )
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "duals", u)
        object.__setattr__(self, "p", float(self.p))

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def a(self) -> float:
        """Max gauge of a family vector."""
        return float(lp_gauge_rows(self.vectors, self.p).max())

    @cached_property
    def b(self) -> float:
        """Max dual gauge of a functional (sup norm for p < 1)."""
        return float(np.abs(self.duals).max())

    # constants of the unit-vector reference system
    c: ClassVar[float] = 1.0
    k_u: ClassVar[float] = 1.0

    @cached_property
    def products(self) -> np.ndarray:
        """products[n, j] = x_n*(e_j) * e_j*(x_n)."""
        return self.duals * self.vectors


def _pair_family_arrays(dim: int, size: int, p: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (vectors, duals) of :func:`random_pair_family`, unvalidated."""
    # one draw clears the floor with probability at most q = 2 exp(-dim floor^2 / 2)
    # (the spherical-cap bound), a pair within the rounds with at most rounds * q,
    # and the whole family with at most that to the power size
    q = 2.0 * math.exp(-dim * _MIN_PAIRING**2 / 2)
    if min(1.0, _PAIRING_ROUNDS * q) ** size < _PAIRING_HOPELESS:
        raise _pairing_error(f"{size} pairs would all find a functional", dim,
                             f" with probability below {_PAIRING_HOPELESS:g}")
    rng = substream(seed, PAIR_FAMILIES)
    vectors = rng.standard_normal((size, dim))
    vectors /= lp_gauge_rows(vectors, p)[:, None]
    # a draw u is kept when (u . x)^2 >= _MIN_PAIRING^2 |u|^2 |x|^2
    floor = _MIN_PAIRING**2 * np.einsum("ij,ij->i", vectors, vectors)
    duals = np.empty((size, dim))
    raw = np.empty(size)
    pending = np.arange(size)
    for _ in range(_PAIRING_ROUNDS):
        u = rng.standard_normal((pending.size, dim))
        duals[pending] = u
        pairing = np.einsum("ij,ij->i", u, vectors[pending])
        raw[pending] = pairing
        pending = pending[pairing * pairing < floor[pending] * np.einsum("ij,ij->i", u, u)]
        if not pending.size:
            break
    else:
        raise _pairing_error(f"{pending.size} of {size} pairs found no functional", dim)
    duals /= raw[:, None]
    return vectors, duals


def _pairing_error(what: str, dim: int, odds: str = "") -> PreconditionError:
    return PreconditionError(
        f"{what} with |x*(x)| >= {_MIN_PAIRING} |x*|_2 |x|_2 in {_PAIRING_ROUNDS} rounds at "
        f"dimension {dim}{odds}; such draws grow rarer with the dimension: use a smaller --dim"
    )


def random_pair_family(dim: int, size: int, p: float, seed: int = 0) -> PairFamily:
    """A seeded, well-conditioned random family with x_n*(x_n) = 1, drawn
    whole from the one stream ``(seed, PAIR_FAMILIES)``.

    The vectors are a (size, dim) Gaussian block, each row scaled to unit
    l_p gauge.  Functionals are rescaled Gaussian draws: each round draws a
    row for every pair not yet accepted, and a draw whose raw pairing with its
    vector falls below ``_MIN_PAIRING`` (relative to the natural scale) is
    rejected to keep dual norms moderate.  A pair still unaccepted after
    ``_PAIRING_ROUNDS`` rounds raises :class:`PreconditionError`, and so,
    before any draw, does a family whose pairs all clear the floor within
    those rounds with probability below 1e-12 by the spherical-cap bound.
    """
    if size < 1 or size > dim:
        raise PreconditionError("need 1 <= size <= dim")
    return PairFamily(*_pair_family_arrays(dim, size, p, seed), p)


def _concentrated(products: np.ndarray, delta) -> np.ndarray:
    """Mask of the coordinates j where |products[..., n, j]| >= delta for some
    n, with one delta per leading index."""
    return np.abs(products).max(axis=-2) >= np.expand_dims(delta, -1)


def concentration_set(family: PairFamily, delta: float) -> np.ndarray:
    """Coordinates j where |x_n*(e_j) e_j*(x_n)| >= delta for some pair n."""
    if delta <= 0:
        raise PreconditionError(f"delta must be positive, got {delta}")
    return np.flatnonzero(_concentrated(family.products, delta))


def counting_parameters(C: float, a: float, b: float, c: float, k_u: float,
                        p: float) -> tuple[float, float]:
    """The (eps, delta) pair used by the counting inequality:

    eps = (C-1)/C / (a b c K_u),  delta = (C-1)/C / A(eps).
    """
    if not (math.isfinite(C) and C > 1):
        raise PreconditionError(f"C must be finite and exceed 1, got {C}")
    for name, val in (("a", a), ("b", b), ("c", c), ("k_u", k_u)):
        if not (math.isfinite(val) and val >= 1):
            raise PreconditionError(f"constant {name} must be finite and >= 1, got {val}")
    frac = (C - 1.0) / C
    eps = frac / (a * b * c * k_u)
    delta = frac / strongly_absolute_function(p, eps)
    return eps, delta


@dataclass(frozen=True)
class CountingCheck:
    size: int
    bound: float
    holds: bool
    eps: float
    delta: float
    omega: tuple[int, ...]


def counting_inequality_check(family: PairFamily, C: float = 2.0) -> CountingCheck:
    """Verify |A| <= C * sum over the concentration set of |lambda_j|,
    where lambda_j = sum_n x_n*(e_j) e_j*(x_n) (the one-family case of
    :func:`_counting_rows`)."""
    eps, delta, hit, bound, holds = _counting_rows(family.vectors[None], family.duals[None],
                                                   family.p, C)
    return CountingCheck(
        size=family.size,
        bound=float(bound[0]),
        holds=bool(holds[0]),
        eps=float(eps[0]),
        delta=float(delta[0]),
        omega=tuple(np.flatnonzero(hit[0]).tolist()),
    )


def _counting_rows(vectors: np.ndarray, duals: np.ndarray, p: float, C: float):
    """:func:`counting_inequality_check` for every family of a stack of
    families of one size: ``vectors[f]`` and ``duals[f]`` are family f's
    (size, dim) arrays over the unit system.  Returns per family eps, delta,
    the concentration mask, the bound and whether the inequality holds.
    The stack is not validated (see :class:`PairFamily`)."""
    count, size, dim = vectors.shape
    a = lp_gauge_rows(vectors.reshape(-1, dim), p).reshape(count, size).max(axis=1)
    b = np.abs(duals).reshape(count, -1).max(axis=1)
    eps, delta = np.array([
        counting_parameters(C, max(ai, 1.0), max(bi, 1.0), PairFamily.c, PairFamily.k_u, p)
        for ai, bi in zip(a.tolist(), b.tolist())]).reshape(count, 2).T
    products = duals * vectors
    hit = _concentrated(products, delta)
    bound = C * np.where(hit, np.abs(products.sum(axis=1)), 0.0).sum(axis=1)
    return eps, delta, hit, bound, size <= bound + _COUNTING_TOL


@dataclass(frozen=True)
class SquareFunctionComparison:
    lhs: float
    rhs: float
    ratio: float
    stderr: float | None
    samples: int


def _gauge_p_mean_exact(vectors: np.ndarray, p: float) -> float:
    """Mean of ||sum eps_n x_n||_p^p over the 2^k sign patterns: total - 2 (mask sum) over
    masks of at most k // 2 members, counted twice (with the complement) below k / 2."""
    k = vectors.shape[0]
    total = vectors.sum(axis=0)
    chunk_sums: list[float] = []
    for sums, sizes, _ in _subset_sums(vectors, 0, k // 2):
        gauges_p = np.sum(np.abs(total - 2.0 * sums) ** p, axis=1)
        chunk_sums.append(float(np.sum(np.where(2 * sizes < k, 2.0, 1.0) * gauges_p)))
    return math.fsum(chunk_sums) / (1 << k)


def khintchine_square_function(vectors, p: float, mode: str = "exact",
                               samples: int = 100_000, seed: int = 0) -> SquareFunctionComparison:
    """Compare the sign-averaged p-th power gauge of sum eps_n x_n against the
    coordinate square function sum_j (sum_n x_n[j]^2)^(p/2).

    Exact mode enumerates all 2^|A| sign patterns (|A| <= 20); Monte Carlo
    mode reports the sample mean with its standard error.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise PreconditionError("need a nonempty 2-d stack of vectors")
    if not np.all(np.isfinite(vectors)):
        raise PreconditionError("vectors must be finite")
    p = float(p)
    if not 0 < p < math.inf:
        raise InvalidExponentError(f"need a finite positive exponent, got {p}")
    rhs = float(np.sum(np.sum(vectors * vectors, axis=0) ** (p / 2.0)))

    k = vectors.shape[0]
    if mode == "exact":
        if k > _EXACT_SIGN_LIMIT:
            raise PreconditionError(
                f"exact sign enumeration is capped at {_EXACT_SIGN_LIMIT} vectors, got {k}"
            )
        lhs = _gauge_p_mean_exact(vectors, p)
        stderr = None
        n_used = 1 << k
    elif mode == "mc":
        if samples < 2:
            raise PreconditionError("Monte Carlo mode needs samples >= 2")
        chunk = 1 << 14
        vals = np.empty(samples)
        done = 0
        idx = 0
        while done < samples:
            take = min(chunk, samples - done)
            rng = substream(seed, KHINTCHINE_MC, idx)
            # the draw of rng.choice([-1.0, 1.0], size=(take, k)), without its copies
            sums = _SIGNS[rng.integers(0, 2, size=(take, k))] @ vectors
            np.abs(sums, out=sums)
            sums **= p
            vals[done : done + take] = sums.sum(axis=1)
            del sums  # not held while the next chunk draws
            done += take
            idx += 1
        lhs = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(samples))
        n_used = samples
    else:
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")

    ratio = lhs / rhs if rhs > 0 else math.nan
    return SquareFunctionComparison(lhs=lhs, rhs=rhs, ratio=ratio, stderr=stderr,
                                    samples=n_used)
