"""Thresholding greedy machinery.

The greedy set of size m keeps the m largest-modulus coefficients, breaking
ties toward the smaller index; the greedy approximation projects onto it, and
the restricted truncation flattens the retained coefficients to the minimal
modulus while keeping their signs.  The estimators below report witness-backed
lower bounds for the associated operator constants; upper bounds are claimed
only where they can be certified (diagonal systems, or summed product bounds
under r-convexity).

The searches read their candidates in blocks from
:func:`~qgreedy.bases.candidate_blocks`, which gives each block's
coefficients, vectors and norms; one more row-kernel call scores a block's
greedy prefixes (or, in forward selection, every candidate with every index
still available), and no call exceeds the row cap of :mod:`qgreedy.spaces`.
Each block's ratios, from :func:`~qgreedy.estimates.ratios`, are offered to
a :class:`~qgreedy.estimates.Tracker`, so the first best candidate wins, as
in a one-at-a-time scan.

The quasi-greedy and truncation searches skip the greedy prefixes of a
candidate whose certified ceiling (:func:`~qgreedy.bounds.row_ceilings`: the
gauge of the modulus majorant sum_t |c_t| |x_t|, which bounds every prefix in
a solid ambient, times a derived rounding allowance) cannot beat the running
best; such a candidate could not have won, so the result is the full search's.
Every ambient kind is solid, so l_p, block and Lorentz searches all prune.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .bases import (_DIAGONAL_NOTE, Basis, _as_index_set, candidate_blocks,
                    coefficient_transform, coordinate_projection)
from .bounds import row_ceilings
from .errors import InvalidExponentError
from .estimates import BoundEstimate, Tracker, ratios
from .rng import CONDITIONALITY_SAMPLES, QG_SAMPLES, TRUNCATION_SAMPLES
from .sampling import coefficient_samples, plateau_coefficients, size_cap
from .spaces import Lp, Scratch, ambient_gauge_rows, p_convexity

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
    # built in place: a block allocates one (rows, d, dim) array, not three,
    # so the allocator does not return and fault in block-sized temporaries
    prefixes = basis.vectors[order]
    if truncate:
        prefixes *= np.where(sorted_coeffs < 0, -1.0, 1.0)
        np.cumsum(prefixes, axis=1, out=prefixes)
        prefixes *= np.abs(sorted_coeffs)
    else:
        prefixes *= sorted_coeffs
        np.cumsum(prefixes, axis=1, out=prefixes)
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
    yield from coefficient_samples(d, budget, seed, stream)


def _certified_ceiling(basis: Basis) -> float:
    """The value at which an operator search stops: 1.0 on a diagonal system
    (see :func:`_operator_constant`), inf otherwise."""
    return 1.0 if basis.is_diagonal() else math.inf


def _operator_constant(basis: Basis, budget: int, seed: int, stream: int,
                       truncate: bool) -> BoundEstimate:
    """The quasi-greedy (or, with ``truncate``, truncation) search over the
    candidates of :func:`_operator_candidates`, in capped blocks.

    A candidate whose ceiling (:func:`~qgreedy.bounds.row_ceilings`) over its norm rounds to
    at most the running best is dropped before its greedy prefixes are
    scored.  Its computed ratio, the rounded quotient of a gauge below the
    ceiling by the same norm, could not exceed that best, since rounding is
    monotone; and the tracker replaces its best only with a strictly better
    value, so the winner and its witness are the full search's.

    It stops once the running best reaches :func:`_certified_ceiling`, with
    the same result as the full search.  On a diagonal system f is
    ``coeffs @ vectors``, and each coordinate of f is the single product
    c_j v_jj.  Every greedy prefix or truncation row has, in each coordinate,
    that same product, a product of no larger modulus, or 0.  The gauge adds
    nonnegative terms, and rounding is monotone, so no candidate's ratio
    rounds above 1.0: once one scores 1.0 (the flat vector, at m = d), no
    later candidate is strictly better, and the first witness is kept.
    """
    d = basis.d
    ceiling = _certified_ceiling(basis)
    ceilings = row_ceilings(basis)
    tracker = Tracker()
    candidates = _operator_candidates(d, budget, seed, stream)
    # every candidate costs d prefix rows
    for coeffs, _, nf in candidate_blocks(basis, candidates, d):
        if ceilings is not None:
            with np.errstate(all="ignore"):  # nf = 0 or tiny: inf or nan, never pruned
                live = np.flatnonzero(~(ceilings(coeffs) / nf <= tracker.best))
            if live.size == 0:
                continue
            if live.size < len(coeffs):
                coeffs, nf = coeffs[live], nf[live]
        gauges = _ratios_over_m(basis, coeffs, truncate)
        m = np.argmax(gauges, axis=1)
        tracker.offer(ratios(gauges.max(axis=1), nf),
                      lambda j: {"coeffs": coeffs[j].tolist(), "m": int(m[j]) + 1})
        if tracker.best >= ceiling:
            break
    # G_d and U_d reproduce the flat vector: ratio 1 even where its gauges overflow
    tracker.update(1.0, {"coeffs": [1.0] * d, "m": d})

    if basis.is_diagonal():
        # projections and truncations shrink coordinate moduli pointwise
        return tracker.estimate(1.0, heuristic=False, note=_DIAGONAL_NOTE)
    return tracker.estimate()


def quasi_greedy_constant(basis: Basis, budget: int = 2000, seed: int = 0) -> BoundEstimate:
    """Lower bound for sup over (f, m) of ||G_m f|| / ||f||.

    With budget 0 only the trivial witness is evaluated and the bound is 1.
    """
    return _operator_constant(basis, budget, seed, QG_SAMPLES, truncate=False)


def truncation_constant(basis: Basis, budget: int = 2000, seed: int = 0) -> BoundEstimate:
    """Lower bound for sup over (f, m) of ||U_m f|| / ||f||."""
    return _operator_constant(basis, budget, seed, TRUNCATION_SAMPLES, truncate=True)


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
                       trackers: list[Tracker], inputs: np.ndarray | None = None,
                       scratch: Scratch | None = None) -> None:
    """Greedily grow A one index at a time for every row of ``coeffs``,
    maximizing ||S_A f|| at each size; one rows call per size scores every
    candidate with every index still available.  Ties go to the smaller
    index, and ``trackers[m - 1]`` is offered the ratios of the sets of size
    m.  Given the ambient ``inputs`` f (one row per row of ``coeffs``), a
    witness keeps its f too: synthesizing f from its coefficients rounds.
    The products, the trial sums and the gauge's moduli are written into the
    search's ``scratch`` (made here when None)."""
    n, d = coeffs.shape
    if n == 0:
        return
    dim = basis.dim
    at = np.arange(n)
    scratch = scratch or Scratch()
    scaled = np.multiply(coeffs[:, :, None], basis.vectors, out=scratch("products", n, d, dim))
    flat = scaled.reshape(n * d, dim)
    running = np.zeros((n, dim))
    available = np.tile(np.arange(d), (n, 1))
    chosen = np.empty((n, 0), dtype=int)

    def witness(i: int) -> dict[str, Any]:
        out = {"coeffs": coeffs[i].tolist(), "set": sorted(chosen[i].tolist())}
        if inputs is not None:
            out["f"] = inputs[i].tolist()
        return out

    for tracker in trackers:
        # the rows scaled[i, available[i]], then running[i] added to each (addition
        # commutes exactly); "clip" never applies to these indices, and unlike
        # "raise" it writes straight into the scratch
        trials = np.take(flat, available + d * at[:, None], axis=0, mode="clip",
                         out=scratch("sums", *available.shape, dim))
        np.add(running[:, None, :], trials, out=trials)
        rows = trials.reshape(-1, dim)
        vals = ambient_gauge_rows(basis.space, rows, scratch).reshape(available.shape)
        j = np.argmax(vals, axis=1)
        picked = available[at, j]
        running = running + scaled[at, picked]
        chosen = np.column_stack((chosen, picked))
        keep = np.ones(available.shape, dtype=bool)
        keep[at, j] = False
        available = available[keep].reshape(n, -1)
        tracker.offer(ratios(vals[at, j], f_gauges), witness)


def _log_normalized(lower: float, m: int, p: float) -> float:
    """lower / (1 + log m)^(1/p), through logarithms where the power overflows."""
    try:
        return lower / (1.0 + math.log(m)) ** (1.0 / p)
    except OverflowError:
        return math.exp(math.log(lower) - math.log1p(math.log(m)) / p)


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
    max_m = size_cap(max_m, d, d, "max_m")

    r = p_convexity(basis.space)
    if basis.is_diagonal():
        uppers = np.ones(max_m)
    else:
        products = np.sort(basis.vector_norms * basis.dual_norms)[::-1] ** r
        with np.errstate(over="ignore"):  # an overflowing bound is inf, reported uncertified
            uppers = np.cumsum(products[:max_m]) ** (1.0 / r)

    trackers = [Tracker() for _ in range(max_m)]
    scratch = Scratch()
    # every candidate costs at most d rows per size
    candidates = itertools.chain(np.eye(d), [np.ones(d)],
                                 coefficient_samples(d, budget, seed, CONDITIONALITY_SAMPLES))
    for coeffs, _, nf in candidate_blocks(basis, candidates, d):
        _forward_selection(basis, coeffs, nf, trackers, scratch=scratch)

    # ambient unit vectors as inputs
    for coeffs, units, nf in candidate_blocks(basis, np.eye(basis.dim), d, ambient=True):
        _forward_selection(basis, coeffs, nf, trackers, units, scratch)

    # a witness set of fewer than m members is one of at most m members
    for prev, tracker in zip(trackers, trackers[1:]):
        tracker.update(prev.best, prev.witness)
    rows = []
    for m, (tracker, upper) in enumerate(zip(trackers, uppers.tolist()), 1):
        est = tracker.estimate(upper)
        rows.append(ConditionalityRow(m=m, lower=est.lower, upper=upper,
                                      upper_certified=est.upper_certified,
                                      log_normalized=_log_normalized(est.lower, m, p),
                                      witness=est.witness))
    return rows
