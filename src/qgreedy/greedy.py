"""Thresholding greedy machinery.

The greedy set of size m keeps the m largest-modulus coefficients, breaking
ties toward the smaller index; the greedy approximation projects onto it, and
the restricted truncation flattens the retained coefficients to the minimal
modulus while keeping their signs.  The estimators below report witness-backed
lower bounds for the associated operator constants; upper bounds are claimed
only where they can be certified (diagonal systems, or summed product bounds
under r-convexity).

The searches score their candidates in blocks: one row-kernel call covers a
block's norms, another its greedy prefixes (or, in forward selection, every
candidate with every index still available), and no call exceeds the row cap
of :mod:`qgreedy.spaces`.  Within and across blocks the first best candidate
wins, as in a one-at-a-time scan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .bases import Basis, _as_index_set, coefficient_transform, coordinate_projection
from .errors import InvalidExponentError
from .estimates import BoundEstimate, RatioTracker
from .rng import CONDITIONALITY_SEARCH, QG_SEARCH, TRUNCATION_SEARCH, substream
from .sampling import COEFF_KINDS, coefficient_sample, plateau_coefficients
from .spaces import Lp, _row_chunks, ambient_gauge_rows

__all__ = [
    "greedy_order",
    "greedy_set",
    "greedy_approximation",
    "restricted_truncation",
    "greedy_truncation",
    "quasi_greedy_constant",
    "truncation_constant",
    "conditionality_growth_profile",
    "ConditionalityRow",
]


def greedy_order(basis: Basis, f) -> np.ndarray:
    """Permutation of {0..d-1} by decreasing |coefficient|, ties by index."""
    coeffs = coefficient_transform(basis, f)
    return np.lexsort((np.arange(basis.d), -np.abs(coeffs)))


def greedy_set(basis: Basis, f, m: int) -> np.ndarray:
    """The unique greedy index set of cardinality m (ascending order)."""
    if not 0 <= m <= basis.d:
        raise ValueError(f"m must lie in [0, {basis.d}], got {m}")
    return np.sort(greedy_order(basis, f)[:m])


def greedy_approximation(basis: Basis, f, m: int) -> np.ndarray:
    """Projection of f onto its greedy set of size m."""
    return coordinate_projection(basis, greedy_set(basis, f, m), f)


def restricted_truncation(basis: Basis, f, A) -> np.ndarray:
    """Flatten the coefficients on A to min_{n in A} |x_n*(f)|, keeping signs.

    The sign of a zero coefficient counts as +1; an empty A returns 0 (empty
    sum convention).
    """
    idx = _as_index_set(A, basis.d)
    if idx.size == 0:
        return np.zeros(basis.dim)
    coeffs = coefficient_transform(basis, f)[idx]
    level = float(np.min(np.abs(coeffs)))
    signs = np.where(coeffs < 0, -1.0, 1.0)
    return level * (signs @ basis.vectors[idx])


def greedy_truncation(basis: Basis, f, m: int) -> np.ndarray:
    """Restricted truncation on the greedy set of size m."""
    return restricted_truncation(basis, f, greedy_set(basis, f, m))


# ---------------------------------------------------------------------------
# constants of the greedy and truncation operators
# ---------------------------------------------------------------------------


def _ratios_over_m(basis: Basis, coeffs: np.ndarray, truncate: bool) -> np.ndarray:
    """Gauges of G_m f (or U_m f) for m = 1..d and every row of the 2-d
    ``coeffs`` (shape (rows, d)), via prefix sums in greedy order (a stable
    sort by decreasing modulus: ties go to the smaller index) and one rows call.
    """
    order = np.argsort(-np.abs(coeffs), axis=1, kind="stable")
    sorted_coeffs = np.take_along_axis(coeffs, order, axis=1)[:, :, None]
    vectors = basis.vectors[order]
    if truncate:
        signs = np.where(sorted_coeffs < 0, -1.0, 1.0)
        prefixes = np.abs(sorted_coeffs) * np.cumsum(signs * vectors, axis=1)
    else:
        prefixes = np.cumsum(sorted_coeffs * vectors, axis=1)
    return ambient_gauge_rows(basis.space, prefixes.reshape(-1, basis.dim)).reshape(coeffs.shape)


def _operator_candidates(d: int, budget: int, seed: int, stream: int):
    """Coefficient arrays in search order: the flat vector (m = d reproduces f
    for the projection and gives ratio 1 after full flattening of a flat
    vector, so a trivial witness always exists), then with a budget the unit
    vectors, alternating signs, deterministic plateaus and the samples."""
    yield np.ones(d)
    if budget <= 0:
        return
    yield from np.eye(d)
    alt = np.ones(d)
    alt[1::2] = -1.0
    yield alt
    for delta in (1e-3, 1e-6, 1e-9):
        for start in (0, 1):
            boosted = np.arange(start, d, 2)
            if boosted.size:
                yield plateau_coefficients(d, boosted, delta)
    yield from _coefficient_samples(d, budget, seed, stream)


def _coefficient_samples(d: int, budget: int, seed: int, stream: int):
    """The budgeted coefficient samples of one search stream, in order."""
    for i in range(budget):
        rng = substream(seed, stream, i)
        yield coefficient_sample(rng, d, COEFF_KINDS[i % len(COEFF_KINDS)])


def _operator_constant(basis: Basis, budget: int, seed: int, stream: int,
                       truncate: bool) -> BoundEstimate:
    d = basis.d
    tracker = RatioTracker()
    # every candidate costs d prefix rows
    for chunk in _row_chunks(_operator_candidates(d, budget, seed, stream), basis.dim, d):
        coeffs = np.array(chunk)
        nf = ambient_gauge_rows(basis.space, coeffs @ basis.vectors)
        gauges = _ratios_over_m(basis, coeffs, truncate)
        m = np.argmax(gauges, axis=1)
        live = nf > 0
        ratios = np.full(len(chunk), -math.inf)
        ratios[live] = gauges[live, m[live]] / nf[live]
        j = int(np.argmax(ratios))
        if live[j]:
            tracker.update(float(ratios[j]), {"coeffs": chunk[j].tolist(), "m": int(m[j]) + 1})

    if basis.is_diagonal():
        # projections and truncations shrink coordinate moduli pointwise
        return BoundEstimate(
            lower=min(tracker.best, 1.0),
            upper=1.0,
            witness=tracker.witness,
            upper_certified=True,
            heuristic=False,
            note="diagonal system; gauge monotone in coordinate moduli",
        )
    return BoundEstimate(
        lower=tracker.best,
        upper=math.inf,
        witness=tracker.witness,
        upper_certified=False,
        heuristic=True,
    )


def quasi_greedy_constant(basis: Basis, budget: int = 2000, seed: int = 0) -> BoundEstimate:
    """Lower bound for sup over (f, m) of ||G_m f|| / ||f||.

    With budget 0 only the trivial witness is evaluated and the bound is 1.
    """
    return _operator_constant(basis, budget, seed, QG_SEARCH, truncate=False)


def truncation_constant(basis: Basis, budget: int = 2000, seed: int = 0) -> BoundEstimate:
    """Lower bound for sup over (f, m) of ||U_m f|| / ||f||."""
    return _operator_constant(basis, budget, seed, TRUNCATION_SEARCH, truncate=True)


# ---------------------------------------------------------------------------
# conditionality growth profile
# ---------------------------------------------------------------------------


@dataclass
class ConditionalityRow:
    m: int
    lower: float
    upper: float
    upper_certified: bool
    log_normalized: float
    witness: dict[str, Any] | None


def _forward_selection(basis: Basis, coeffs: np.ndarray, f_gauges: np.ndarray,
                       max_m: int, rows: list[ConditionalityRow]) -> None:
    """Greedily grow A one index at a time for every row of ``coeffs``,
    maximizing ||S_A f|| at each size; one rows call per size scores every
    candidate with every index still available.  Ties go to the smaller
    index, and each row of ``rows`` keeps the first best ratio in candidate
    order."""
    n, d = coeffs.shape
    if n == 0:
        return
    at = np.arange(n)
    scaled = coeffs[:, :, None] * basis.vectors
    running = np.zeros((n, basis.dim))
    available = np.tile(np.arange(d), (n, 1))
    chosen = np.empty((n, 0), dtype=int)
    for m in range(1, max_m + 1):
        trials = running[:, None, :] + scaled[at[:, None], available]
        vals = ambient_gauge_rows(basis.space, trials.reshape(-1, basis.dim))
        vals = vals.reshape(available.shape)
        j = np.argmax(vals, axis=1)
        picked = available[at, j]
        running = running + scaled[at, picked]
        chosen = np.column_stack((chosen, picked))
        keep = np.ones(available.shape, dtype=bool)
        keep[at, j] = False
        available = available[keep].reshape(n, -1)
        ratios = vals[at, j] / f_gauges
        i = int(np.argmax(ratios))
        row = rows[m - 1]
        if ratios[i] > row.lower:
            row.lower = float(ratios[i])
            row.witness = {"coeffs": coeffs[i].tolist(), "set": sorted(chosen[i].tolist())}


def conditionality_growth_profile(basis: Basis, max_m: int | None = None,
                                  budget: int = 400, seed: int = 0) -> list[ConditionalityRow]:
    """Per-m bounds for sup over |A| <= m of ||S_A||, with the growth diagnostic.

    Lower bounds come from witness search over (f, A); the certified upper
    bound sums the m largest products ||x_n||^r ||x_n*||^r under r-convexity.
    The last column reports lower / (1 + log m)^(1/p), a diagnostic rather than an
    asserted bound.
    """
    if not isinstance(basis.space, Lp):
        raise InvalidExponentError("conditionality profile requires an lp ambient")
    p = basis.space.p
    d = basis.d
    if max_m is None:
        max_m = d
    max_m = min(int(max_m), d)

    r = min(p, 1.0)
    if basis.is_diagonal():
        uppers = np.ones(max_m)
        certified = True
    else:
        products = np.sort(basis.vector_norms * basis.dual_norms)[::-1] ** r
        uppers = np.cumsum(products[:max_m]) ** (1.0 / r)
        certified = True

    rows = [
        ConditionalityRow(m=m, lower=0.0, upper=float(uppers[m - 1]),
                          upper_certified=certified, log_normalized=0.0, witness=None)
        for m in range(1, max_m + 1)
    ]

    # every candidate costs at most d rows per size
    candidates = itertools.chain(np.eye(d), [np.ones(d)],
                                 _coefficient_samples(d, budget, seed, CONDITIONALITY_SEARCH))
    for chunk in _row_chunks(candidates, basis.dim, d):
        coeffs = np.array(chunk)
        nf = ambient_gauge_rows(basis.space, coeffs @ basis.vectors)
        live = nf > 0
        _forward_selection(basis, coeffs[live], nf[live], max_m, rows)

    # ambient unit vectors as inputs
    for chunk in _row_chunks(range(basis.dim), basis.dim, d):
        units = np.eye(basis.dim)[chunk]
        nf = ambient_gauge_rows(basis.space, units)
        _forward_selection(basis, units @ basis.duals.T, nf, max_m, rows)

    for row in rows:
        row.lower = max(row.lower, 1.0)
        if row.upper_certified:
            row.lower = min(row.lower, row.upper)
        row.log_normalized = row.lower / (1.0 + math.log(row.m)) ** (1.0 / p)
    return rows
