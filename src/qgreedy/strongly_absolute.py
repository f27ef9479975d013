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
from .rng import KHINTCHINE_MC, PAIR_FAMILY, substream
from .spaces import _subset_sums, as_vector, lp_gauge, lp_gauge_rows

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
_EXACT_SIGN_LIMIT = 20
_MIN_PAIRING = 0.2  # of |x*(x)| / (|x*|_2 |x|_2) <= 1 (Cauchy-Schwarz), so below 1


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
    return eps ** (-p / (1.0 - p))


@dataclass(frozen=True)
class AbsoluteCheck:
    lhs: float
    rhs: float
    holds: bool


def strongly_absolute_check(f, p: float, eps: float, tol: float = 1e-12) -> AbsoluteCheck:
    """Evaluate ||f||_1 <= max{A(eps) ||f||_inf, eps ||f||_p} for the unit system
    (the 1-row case of :func:`strongly_absolute_rows`)."""
    lhs, rhs, holds = strongly_absolute_rows(as_vector(f)[None, :], (p,), (eps,), tol)
    return AbsoluteCheck(lhs=float(lhs[0]), rhs=float(rhs[0, 0, 0]), holds=bool(holds[0, 0, 0]))


def strongly_absolute_rows(rows: np.ndarray, p_values, eps_values, tol: float = 1e-12):
    """:func:`strongly_absolute_check` for every row f_i of a 2-d array at every
    (p_values[k], eps_values[e]): returns lhs[i] = ||f_i||_1 and rhs[k, i, e],
    holds[k, i, e].  The l_1 and sup gauges are computed once per row, the l_p
    gauge once per (row, p); each eps is an array comparison with the same
    ``tol``.  Rows are not validated (see :func:`lp_gauge_rows`)."""
    a = np.array([[strongly_absolute_function(p, eps) for eps in eps_values] for p in p_values])
    mat = np.asarray(rows, dtype=float)
    if mat.shape[1] == 0:  # an empty vector has every gauge 0
        mat = np.zeros((mat.shape[0], 1))
    lhs = lp_gauge_rows(mat, 1.0)
    sup = lp_gauge_rows(mat, math.inf)
    gp = np.stack([lp_gauge_rows(mat, p) for p in p_values])
    rhs = np.maximum(a[:, None, :] * sup[None, :, None], np.array(eps_values) * gp[:, :, None])
    return lhs, rhs, lhs[None, :, None] <= rhs * (1 + tol) + tol


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


def random_pair_family(dim: int, size: int, p: float, seed: int = 0) -> PairFamily:
    """A seeded, well-conditioned random family with x_n*(x_n) = 1.

    Functionals are rescaled Gaussian draws; draws whose raw pairing with
    their vector falls below ``_MIN_PAIRING`` (relative to the natural scale)
    are rejected to keep dual norms moderate.
    """
    if size < 1 or size > dim:
        raise PreconditionError("need 1 <= size <= dim")
    vectors = np.empty((size, dim))
    duals = np.empty((size, dim))
    for n in range(size):
        rng = substream(seed, PAIR_FAMILY, n)
        x = rng.standard_normal(dim)
        x /= lp_gauge(x, p)
        while True:
            u = rng.standard_normal(dim)
            raw = float(u @ x)
            scale = float(np.linalg.norm(u) * np.linalg.norm(x))
            if abs(raw) >= _MIN_PAIRING * scale:
                break
        vectors[n] = x
        duals[n] = u / raw
    return PairFamily(vectors, duals, p)


def concentration_set(family: PairFamily, delta: float) -> np.ndarray:
    """Coordinates j where |x_n*(e_j) e_j*(x_n)| >= delta for some pair n."""
    if delta <= 0:
        raise PreconditionError(f"delta must be positive, got {delta}")
    hit = np.max(np.abs(family.products), axis=0) >= delta
    return np.flatnonzero(hit)


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


def counting_inequality_check(family: PairFamily, C: float = 2.0,
                              tol: float = 1e-9) -> CountingCheck:
    """Verify |A| <= C * sum over the concentration set of |lambda_j|,
    where lambda_j = sum_n x_n*(e_j) e_j*(x_n)."""
    a = max(family.a, 1.0)
    b = max(family.b, 1.0)
    eps, delta = counting_parameters(C, a, b, family.c, family.k_u, family.p)
    omega = concentration_set(family, delta)
    lam = family.products.sum(axis=0)
    bound = C * float(np.sum(np.abs(lam[omega])))
    return CountingCheck(
        size=family.size,
        bound=bound,
        holds=family.size <= bound + tol,
        eps=eps,
        delta=delta,
        omega=tuple(int(j) for j in omega),
    )


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
            signs = rng.choice([-1.0, 1.0], size=(take, k))
            vals[done : done + take] = np.sum(np.abs(signs @ vectors) ** p, axis=1)
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
