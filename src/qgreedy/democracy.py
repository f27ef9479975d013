"""Democracy functions and the related sign-constant estimators.

phi_u(m) is the sup of ||sum_{n in A} x_n|| over |A| <= m, phi_l(m) the inf
over |A| >= m.  Both modes score a feed of blocks of (sums, sizes,
witness_of), one row-kernel call per block within the row cap of
:mod:`qgreedy.spaces`, and offer each block to a
:class:`~qgreedy.estimates.Tracker`, so the first best set in feed order
wins.  Exact mode feeds every set, by size and then lexicographically, and
reports the value as certified on both sides (for identity coordinates in a
block space it optimizes block occupancies instead, which is exact far
beyond subset range).  Its blocks come from the subset-sum feed of
:mod:`qgreedy.spaces`, which the exact unconditionality constant and the
exact sign average also read; each sum adds its members in member order, so
it has the bits of ``vectors[A].sum(axis=0)``.  Random mode feeds structured
and sampled sets as rows of boolean masks, summed by gathering each row's
members in member order, and reports witness-certified one-sided bounds.
The sign constants score same-size sets in blocks on their sign patterns,
one pattern per set on a basis whose vectors have disjoint supports.
:func:`democracy_profile` is five independent tasks (:func:`profile_tasks`)
and an assembly step; it runs the tasks through
:func:`~qgreedy.tasks.run_tasks` on the usable CPUs, and ``analyze`` runs
them in one list with its other estimators.  Its ``threads`` argument has no
effect.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from .bases import Basis, _as_index_set
from .errors import CombinatorialOverflowError
from .estimates import BoundEstimate, Tracker, ratios
from .greedy import quasi_greedy_constant
from .numerics import _SIGNS, loglog_slope, sign_patterns
from .rng import (
    LOWER_DEMOCRACY_SETS,
    PROFILE_SETS,
    SAMPLE_BLOCK,
    SIGN_CHANGE,
    SIGN_CHANGE_SETS,
    SUCC_PAIR_SAMPLES,
    SUCC_PAIRS,
    SUPER_DEMOCRACY,
    SUPER_DEMOCRACY_SETS,
    UPPER_DEMOCRACY_SETS,
    block_samples,
    substream,
)
from .sampling import random_masks, size_cap, structured_subsets
from .spaces import (_BLOCK_FLOATS, BlockLpL2, _block_buffer, _block_rows, _row_chunks, _scratch,
                     _subset_sums, ambient_gauge_rows, p_convexity)
from .tasks import run_tasks

__all__ = [
    "indicator_gauge",
    "upper_democracy",
    "lower_democracy",
    "succ_constant",
    "sign_change_constant",
    "super_democracy_constant",
    "democracy_profile",
    "profile_tasks",
    "DemocracyProfile",
    "ProfileRow",
    "EXACT_SUBSET_LIMIT",
]

EXACT_SUBSET_LIMIT = 10**7
# A set of at most _SIGN_ENUM_CAP members has its sign patterns enumerated; a
# larger one is scored on the all-ones and the alternating pattern and on 128
# patterns from its own stream, made only for it.
_SIGN_ENUM_CAP = 12
_SWAP_PASSES = 2  # sweeps of the single-swap refinement


def indicator_gauge(basis: Basis, A) -> float:
    """Gauge of sum_{n in A} x_n over the distinct indices of A, each in [0, d)."""
    return float(_indicator_gauges(basis, _mask_of(_as_index_set(A, basis.d), basis.d)[None])[0])


def _mask_of(members, d: int) -> np.ndarray:
    """The indicator row of an index set."""
    mask = np.zeros(d, dtype=bool)
    mask[members] = True
    return mask


def _indicator_gauges(basis: Basis, masks: np.ndarray) -> np.ndarray:
    """Gauges of sum_{n in A} x_n for the index sets marked by the rows of
    ``masks``, in one rows call."""
    return ambient_gauge_rows(basis.space, _indicator_sums(basis, masks))


def _indicator_sums(basis: Basis, masks: np.ndarray, buffers=None) -> np.ndarray:
    """The sums sum_{n in A} x_n of the index sets marked by the rows of ``masks``.

    Sets of one size are gathered and summed together, at most _BLOCK_FLOATS
    gathered floats at a time, each adding its vectors in member order, so a
    sum does not depend on its block.  The sums are a view of the first of
    ``buffers`` (:func:`_indicator_buffers`, made here when None), and the
    gathers and partial sums are written into the other two.
    """
    dim = basis.dim
    sums_buffer, gathered, part = buffers or _indicator_buffers(basis, len(masks))
    sums = _scratch(sums_buffer, len(masks), dim)
    sizes = np.count_nonzero(masks, axis=1)
    for k in set(sizes.tolist()):
        at = np.flatnonzero(sizes == k)
        members = np.nonzero(masks[at])[1].reshape(-1, k)
        step = max(1, _BLOCK_FLOATS // (k * dim))
        for lo in range(0, at.size, step):
            rows = members[lo:lo + step].T
            g = np.take(basis.vectors, rows, axis=0, mode="clip",  # "raise" would copy
                        out=_scratch(gathered, *rows.shape, dim))
            sums[at[lo:lo + step]] = np.add.reduce(g, axis=0,
                                                   out=_scratch(part, rows.shape[1], dim))
    return sums


def _indicator_buffers(basis: Basis, rows: int):
    """Flat buffers (sums, gathered members, partial sums) for the sums of up to
    ``rows`` index sets in :func:`_indicator_sums`."""
    dim = basis.dim
    gathered = min(rows * basis.d, max(_BLOCK_FLOATS // dim, basis.d)) * dim
    return (np.empty(rows * dim), np.empty(gathered),
            np.empty(min(rows, max(1, _BLOCK_FLOATS // dim)) * dim))


# ---------------------------------------------------------------------------
# exact kernels
# ---------------------------------------------------------------------------


def _exact_phi(basis: Basis, m: int, tracker: Tracker) -> BoundEstimate:
    """The exact estimate from a tracker fed every feasible set."""
    return tracker.estimate(tracker.best, heuristic=False)


def _occupancy_extreme(space: BlockLpL2, m: int, maximize: bool) -> tuple[float, list[int]]:
    """Max (or min) of the indicator gauge over occupancy vectors summing to m,
    and an occupancy vector attaining it.

    For identity coordinates the gauge of an indicator sum depends only on
    how many chosen indices fall in each block: gauge = (sum_b c_b^(p/2))^(1/p).
    Dynamic programming over blocks with per-block caps is exact.  A min is
    taken as the max of the negated sums (negation is exact).
    """
    sense = 1.0 if maximize else -1.0
    best = [0.0] + [-math.inf] * m
    choices: list[list[int]] = []
    for b in space.blocks:
        cap = min(b, m)
        gains = [sense * c ** (space.p / 2.0) for c in range(cap + 1)]
        new, row = [-math.inf] * (m + 1), [0] * (m + 1)
        for t in range(m + 1):
            for c in range(min(cap, t) + 1):
                if best[t - c] + gains[c] > new[t]:
                    new[t], row[t] = best[t - c] + gains[c], c
        best = new
        choices.append(row)
    occupancy, t = [0] * len(choices), m
    for bi in range(len(choices) - 1, -1, -1):
        occupancy[bi] = choices[bi][t]
        t -= occupancy[bi]
    return (sense * best[m]) ** (1.0 / space.p), occupancy


def _occupancy_to_set(space: BlockLpL2, occupancy: list[int]) -> list[int]:
    out: list[int] = []
    for offset, size, c in zip(space.offsets, space.blocks, occupancy):
        out.extend(range(int(offset), int(offset) + c))
    return out


def _use_occupancy(basis: Basis) -> bool:
    # exactly the identity: the occupancy gains assume unit vectors
    return isinstance(basis.space, BlockLpL2) and basis.is_diagonal() and bool(
        np.all(np.diag(basis.vectors) == 1.0)
    )


# ---------------------------------------------------------------------------
# democracy functions
# ---------------------------------------------------------------------------


def _phi_u_certified_upper(basis: Basis, m: int) -> float:
    """The r-convexity bound a * m^(1/r) on phi_u(m); inf without r-convexity
    or past the float range (an uncertified bound)."""
    r = p_convexity(basis.space)
    if r is None:
        return math.inf
    try:
        return basis.a * m ** (1.0 / r)
    except OverflowError:
        return math.inf


def _block_spread_sets(basis: Basis) -> list[np.ndarray]:
    """One index per block, for the first k blocks (block ambients only)."""
    if not isinstance(basis.space, BlockLpL2):
        return []
    offsets = basis.space.offsets
    return [np.sort(offsets[:k]) for k in range(1, len(offsets) + 1)]


def _swap_refine(basis: Basis, s, maximize: bool) -> tuple[list[int], float]:
    """Size-preserving single-swap hill climb on the indicator gauge.

    Each member in turn is swapped against every non-member in one rows call;
    the first improving swap (by increasing index) is taken before moving on
    to the next member, so every accepted set has the starting size.
    """
    current = _mask_of(np.asarray(s, dtype=int), basis.d)
    best = float(_indicator_gauges(basis, current[None])[0])
    for _ in range(_SWAP_PASSES):
        improved = False
        for out in np.flatnonzero(current):
            into = np.flatnonzero(~current)
            if not into.size:
                continue
            trials = np.repeat(current[None], into.size, axis=0)
            trials[:, out] = False
            trials[np.arange(into.size), into] = True
            vals = _indicator_gauges(basis, trials)
            better = vals > best * (1 + 1e-12) if maximize else vals < best * (1 - 1e-12)
            if better.any():
                j = int(np.argmax(better))
                current, best = trials[j], float(vals[j])
                improved = True
        if not improved:
            break
    return np.flatnonzero(current).tolist(), best


def _random_masks(d: int, low: int, high: int, count: int, seed: int, *key: int,
                  fixed: int | None = None):
    """Indicator rows of uniform random subsets of {0..d-1} of uniform size in
    [low, high]; given ``fixed``, sample i has that size unless i % 3 == 0."""
    def draw(rng, start):
        sizes = rng.integers(low, high + 1, size=SAMPLE_BLOCK)
        if fixed is not None:
            sizes[(start + np.arange(SAMPLE_BLOCK)) % 3 != 0] = fixed
        return random_masks(rng, d, sizes)

    return block_samples(draw, count, seed, *key)


def _random_sets(d: int, low: int, high: int, count: int, seed: int, *key: int,
                 fixed: int | None = None):
    """The samples of :func:`_random_masks` as sorted member arrays."""
    return map(np.flatnonzero, _random_masks(d, low, high, count, seed, *key, fixed=fixed))


def _set_feed(basis: Basis, lo: int, hi: int, budget: int, seed: int, op: int,
              fixed: int | None = None):
    """The random feed: capped blocks (sums, sizes, witness_of) of index sets
    of sizes lo..hi in feed order: the structured ones by size, the
    block-spread ones, then ``budget`` samples of ``op``, all as mask rows.
    Every block's sums are a view of one buffer, valid until the next block."""
    structured = [s for k in range(lo, hi + 1) for s in structured_subsets(basis.d, k)]
    structured += [s for s in _block_spread_sets(basis) if lo <= s.size <= hi]
    rows = itertools.chain((_mask_of(s, basis.d) for s in structured),
                           _random_masks(basis.d, lo, hi, budget, seed, op, fixed=fixed))
    buffers = _indicator_buffers(basis, _block_rows(basis.dim))
    for chunk in _row_chunks(rows, basis.dim):
        masks = np.array(chunk)
        yield (_indicator_sums(basis, masks, buffers), np.count_nonzero(masks, axis=1),
               lambda j, masks=masks: {"set": np.flatnonzero(masks[j]).tolist()})


def _random_phi(basis: Basis, m: int, tracker: Tracker) -> BoundEstimate:
    """The random-mode estimate of phi_u(m) (a maximizing tracker) or phi_l(m)
    from the tracker's best set, after a swap refinement of that set."""
    if tracker.witness is not None:
        refined, val = _swap_refine(basis, tracker.witness["set"], tracker.maximize)
        tracker.update(val, {"set": refined})
    if not tracker.maximize:
        return BoundEstimate(0.0, tracker.best, tracker.witness, upper_certified=True,
                             heuristic=True, note="inf-type: upper bound is the sampled minimum")
    return tracker.estimate(_phi_u_certified_upper(basis, m))


def _feed(basis: Basis, mode: str, lo: int, hi: int, budget: int, seed: int, op: int,
          bound: str, fixed: int | None = None):
    """The blocks (sums, sizes, witness_of) of the index sets of sizes lo..hi
    in ``mode``, and the ``finish`` that turns a tracker fed them into an
    estimate.  Exact mode feeds every set, guarded against overflow (``bound``
    names the size range in the error); random mode is the set feed of ``op``."""
    if mode == "exact":
        if sum(math.comb(basis.d, k) for k in range(lo, hi + 1)) > EXACT_SUBSET_LIMIT:
            raise CombinatorialOverflowError(
                f"exact enumeration over sets of size {bound} in d = {basis.d} exceeds "
                f"{EXACT_SUBSET_LIMIT} subsets; use mode='random'"
            )
        return _subset_sums(basis.vectors, lo, hi), _exact_phi
    if mode == "random":
        return _set_feed(basis, lo, hi, budget, seed, op, fixed=fixed), _random_phi
    raise ValueError(f"mode must be 'exact' or 'random', got {mode!r}")


def _democracy(basis: Basis, m: int, mode: str, budget: int, seed: int,
               maximize: bool) -> BoundEstimate:
    """phi_u(m) (``maximize``) over the sizes 1..m, or phi_l(m) over m..d."""
    d = basis.d
    if not 1 <= m <= d:
        raise ValueError(f"m must lie in [1, {d}], got {m}")
    if mode == "exact" and _use_occupancy(basis):
        # occupancy gain c^(p/2) strictly increases with c, so the sup
        # over sizes <= m and the inf over sizes >= m are attained at size m
        best, occ = _occupancy_extreme(basis.space, m, maximize)
        witness = {"set": _occupancy_to_set(basis.space, occ), "occupancy": occ}
        return BoundEstimate(best, best, witness, upper_certified=True, heuristic=False)
    lo, hi = (1, m) if maximize else (m, d)
    blocks, finish = _feed(basis, mode, lo, hi, budget, seed,
                           UPPER_DEMOCRACY_SETS if maximize else LOWER_DEMOCRACY_SETS,
                           f"<= {m}" if maximize else f">= {m}", fixed=m)
    tracker = Tracker(maximize)
    moduli = _block_buffer(basis.dim)
    for sums, _, witness_of in blocks:
        tracker.offer(ambient_gauge_rows(basis.space, sums, _scratch(moduli, *sums.shape)),
                      witness_of)
    return finish(basis, m, tracker)


def upper_democracy(basis: Basis, m: int, mode: str = "exact", budget: int = 2000,
                    seed: int = 0) -> BoundEstimate:
    """phi_u(m): sup of the indicator gauge over sets of at most m indices."""
    return _democracy(basis, m, mode, budget, seed, maximize=True)


def lower_democracy(basis: Basis, m: int, mode: str = "exact", budget: int = 2000,
                    seed: int = 0) -> BoundEstimate:
    """phi_l(m): inf of the indicator gauge over sets of at least m indices.

    Inf-type: in random mode every sampled set certifies an upper bound and
    the certified lower bound is 0.
    """
    return _democracy(basis, m, mode, budget, seed, maximize=False)


# ---------------------------------------------------------------------------
# sign constants
# ---------------------------------------------------------------------------


def _one_pattern(basis: Basis) -> bool:
    """Whether the sign constants score one pattern per set (see :func:`_sign_gauges`)."""
    return basis.disjoint_supports


def _sign_buffers(basis: Basis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat buffers (sums, moduli, drawn signs) of one sign search, made
    once per search call.  A block of :func:`_sign_gauges` has at most
    2^(_SIGN_ENUM_CAP - 1) patterns per set and otherwise fits the row cap,
    and a set has k <= d <= dim members, so each buffer holds any block."""
    return tuple(_block_buffer(basis.dim, 1 << (_SIGN_ENUM_CAP - 1)) for _ in range(3))


def _sign_gauges(basis: Basis, sets: list, stream=None, buffers=None):
    """Yield (positions, index rows, signs (n, P, k), gauges (n, P)) for the
    sums sum_{n in A} eps_n x_n over the sign patterns of index sets A, in
    capped blocks of one size k, in order within a size.  For k <= _SIGN_ENUM_CAP
    the patterns are the 2^(k-1) ids whose last sign is -1, built once per size
    (negation keeps a gauge, so they hold the first extremes of all 2^k);
    otherwise the all-ones and the alternating pattern, then 128 drawn from
    ``stream(i)`` (i = position in ``sets``), which is made only then and is
    required: the bits of ``stream(i).choice([-1.0, 1.0], (128, k))``.

    Every block is written into ``buffers`` (:func:`_sign_buffers`, made here
    when None): the drawn signs, the sums and the gauge's moduli.  A yielded
    ``signs`` is a view of them, valid until the next block; the sums and
    moduli buffers are free while the caller holds a block.

    On a basis with disjoint supports (:attr:`~qgreedy.bases.Basis.disjoint_supports`)
    only pattern 0 is scored, the first enumerated one or the all-ones row,
    and no stream is made: every pattern's sum is +-x_n exactly in each
    coordinate, so all patterns of a set have the same moduli and the same
    gauge bits, and the first extreme over them is pattern 0."""
    one = _one_pattern(basis)
    sums_buffer, moduli, drawn = buffers or _sign_buffers(basis)
    by_size: dict[int, list[int]] = {}
    for i, a in enumerate(sets):
        by_size.setdefault(len(a), []).append(i)
    for k, members in by_size.items():
        if k <= _SIGN_ENUM_CAP:
            table = sign_patterns(k, 0, 1 if one else 1 << (k - 1))
        else:
            table = np.ones((1, k)) if one else None
        if table is None and stream is None:
            raise ValueError(f"sets of {k} > {_SIGN_ENUM_CAP} members need a sign stream")
        for chunk in _row_chunks(members, basis.dim, 130 if table is None else len(table)):
            if table is not None:
                signs = np.broadcast_to(table, (len(chunk), *table.shape))
            else:
                signs = _scratch(drawn, len(chunk), 130, k)
                signs[:, :2] = 1.0
                signs[:, 1, 1::2] = -1.0
                for r, i in enumerate(chunk):
                    signs[r, 2:] = _SIGNS[stream(i).integers(0, 2, (128, k))]
            idx = np.array([sets[i] for i in chunk], dtype=int)
            sums = np.matmul(signs, basis.vectors[idx],
                             out=_scratch(sums_buffer, *signs.shape[:2], basis.dim))
            yield chunk, idx, signs, _stacked_gauges(basis, sums, moduli)


def _stacked_gauges(basis: Basis, sums: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """Gauges (n, P) of a stack of (n, P, d) ambient vectors, in one rows call
    that computes its moduli in the flat buffer ``moduli``."""
    rows = sums.reshape(-1, basis.dim)
    return ambient_gauge_rows(basis.space, rows,
                              _scratch(moduli, *rows.shape)).reshape(sums.shape[:2])


def _sign_extremes(basis: Basis, sets: list, stream, buffers=None):
    """Per set, in order: its first largest and first smallest gauge over its
    sign patterns, and ``patterns(i)``, set i's (pattern of the largest,
    pattern of the smallest); the blocks are scored in ``buffers``."""
    hi, lo = np.empty(len(sets)), np.empty(len(sets))
    where, blocks = np.empty((len(sets), 2), dtype=int), []  # set -> (block, row)
    for chunk, _, signs, gauges in _sign_gauges(basis, sets, stream, buffers):
        j_hi, j_lo = np.argmax(gauges, axis=1), np.argmin(gauges, axis=1)
        rows = np.arange(len(chunk))
        hi[chunk], lo[chunk] = gauges[rows, j_hi], gauges[rows, j_lo]
        where[chunk, 0], where[chunk, 1] = len(blocks), rows
        # copies of the two rows only, so no block of drawn signs outlives its scoring
        blocks.append((signs[rows, j_hi], signs[rows, j_lo]))

    def patterns(i: int) -> tuple[np.ndarray, np.ndarray]:
        block, row = where[i]
        return blocks[block][0][row], blocks[block][1][row]

    return hi, lo, patterns


def _succ_pairs(d: int, budget: int, seed: int):
    """Random nested pairs (A, B), members sorted: B uniform of uniform size
    in [2, d], A a uniform subset of B of uniform size in [1, |B| - 1]; none
    for d < 2, where no such pair exists."""
    def draw(rng, start):
        b_sizes = rng.integers(2, d + 1, size=SAMPLE_BLOCK)
        b_masks = random_masks(rng, d, b_sizes)
        a_masks = random_masks(rng, d, rng.integers(1, b_sizes), within=b_masks)
        return [(np.flatnonzero(a), np.flatnonzero(b)) for a, b in zip(a_masks, b_masks)]

    return block_samples(draw, budget if d >= 2 else 0, seed, SUCC_PAIR_SAMPLES)


def succ_constant(basis: Basis, budget: int = 500, seed: int = 0) -> BoundEstimate:
    """Nested-set sign constant: sup over A subset of B and signs eps of
    ||sum_A eps_n x_n|| / ||sum_B eps_n x_n||."""
    d = basis.d
    tracker = Tracker()
    tracker.update(1.0, {"A": [0], "B": [0], "signs": [1.0]})

    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for n in range(1, d):
        pairs.append((np.array([n]), np.array([n - 1, n])))
    for k in range(1, d):
        pairs.append((np.array([k]), np.arange(k + 1)))
    # the stride-2 combs inside all of {0..d-1}; on the difference system the
    # odd comb against the full set gives the ratio d^(1/p)
    for start in range(min(2, d - 1)):
        pairs.append((np.arange(start, d, 2), np.arange(d)))
    pairs.extend(_succ_pairs(d, budget, seed))

    # the members of each pair's A, marked in one scatter
    in_a = np.zeros((len(pairs), d), dtype=bool)
    in_a[np.repeat(np.arange(len(pairs)), [len(a) for a, _ in pairs]),
         np.concatenate([np.empty(0, dtype=int), *(a for a, _ in pairs)])] = True
    # per pair, its first largest ratio and that pattern
    best = np.empty(len(pairs))
    where, chosen = np.empty((len(pairs), 2), dtype=int), []  # pair -> (block, row)
    buffers = _sign_buffers(basis)
    sums_buffer, moduli, _ = buffers
    for chunk, idx, signs, den in _sign_gauges(basis, [b for _, b in pairs],
                                               lambda i: substream(seed, SUCC_PAIRS, i), buffers):
        # B's signs outside A zeroed: a zero term adds exactly 0, so these are the sums over A
        mask = in_a[np.asarray(chunk)[:, None], idx]
        # scored in the search's sums and moduli buffers, free while a block is held;
        # the masked signs go to the moduli buffer, which the gauge needs only after them
        masked = np.multiply(signs, mask[:, None, :], out=_scratch(moduli, *signs.shape))
        sums = np.matmul(masked, basis.vectors[idx],
                         out=_scratch(sums_buffer, *signs.shape[:2], basis.dim))
        num = _stacked_gauges(basis, sums, moduli)
        scores = ratios(num, den)
        rows = np.arange(len(chunk))
        j = np.argmax(scores, axis=1)
        best[chunk] = scores[rows, j]
        where[chunk, 0], where[chunk, 1] = len(chosen), rows
        chosen.append(signs[rows, j])
    tracker.offer(best, lambda i: {"A": [int(x) for x in pairs[i][0]],
                                   "B": [int(x) for x in pairs[i][1]],
                                   "signs": chosen[where[i][0]][where[i][1]].tolist()})
    return tracker.estimate()


def sign_change_constant(basis: Basis, budget: int = 500, seed: int = 0) -> BoundEstimate:
    """Same-set sign constant: sup over A and sign pairs (theta, eps) of
    ||sum_A theta_n x_n|| / ||sum_A eps_n x_n||."""
    d = basis.d
    tracker = Tracker()
    tracker.update(1.0, {"A": [0], "theta": [1.0], "eps": [1.0]})

    sets: list[np.ndarray] = []
    for k in range(1, d + 1):
        sets.extend(structured_subsets(d, k))
    sets.extend(_random_sets(d, 1, d, budget, seed, SIGN_CHANGE_SETS))

    hi, lo, patterns = _sign_extremes(
        basis, sets, lambda i: substream(seed, SIGN_CHANGE, i))
    tracker.offer(ratios(hi, lo), lambda i: {"A": [int(x) for x in sets[i]],
                                             "theta": patterns(i)[0].tolist(),
                                             "eps": patterns(i)[1].tolist()})
    return tracker.estimate()


def super_democracy_constant(basis: Basis, m_max: int | None = None, budget: int = 500,
                             seed: int = 0) -> BoundEstimate:
    """Equal-size signed comparison: sup over |A| = |B| and signs of
    ||sum_A theta_n x_n|| / ||sum_B eps_n x_n||.  Per size, the first largest
    gauge is set against the first smallest positive one."""
    d = basis.d
    m_max = size_cap(m_max, d, d)
    tracker = Tracker()
    tracker.update(1.0, {"A": [0], "B": [0], "theta": [1.0], "eps": [1.0]})

    buffers = _sign_buffers(basis)
    for m in range(1, m_max + 1):
        cands = structured_subsets(d, m)
        per_size = max(1, budget // max(1, m_max))
        cands.extend(_random_sets(d, m, m, per_size, seed, SUPER_DEMOCRACY_SETS, m))
        hi, lo, patterns = _sign_extremes(
            basis, cands, lambda i: substream(seed, SUPER_DEMOCRACY, m, i), buffers)
        a = int(np.argmax(hi))
        b = int(np.argmin(np.where(lo > 0, lo, math.inf)))
        tracker.update(float(ratios(hi[a], lo[b])), {
            "A": [int(x) for x in cands[a]], "B": [int(x) for x in cands[b]],
            "theta": patterns(a)[0].tolist(), "eps": patterns(b)[1].tolist(),
        })
    return tracker.estimate()


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


@dataclass
class ProfileRow:
    m: int
    phi_u: BoundEstimate
    phi_l: BoundEstimate

    @property
    def phi_u_value(self) -> float:
        """Best measured value of phi_u (exact in exact mode)."""
        return self.phi_u.lower

    @property
    def phi_l_value(self) -> float:
        """Best measured value of phi_l (exact in exact mode)."""
        return self.phi_l.upper


@dataclass
class DemocracyProfile:
    rows: list[ProfileRow]
    slope_u: float
    slope_l: float
    slope_residual_u: float
    slope_residual_l: float
    ratio_max: float
    succ: BoundEstimate
    sign_change: BoundEstimate
    super_democracy: BoundEstimate
    quasi_greedy: BoundEstimate
    democratic: bool
    almost_greedy: bool
    verdict: str
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def m_values(self) -> np.ndarray:
        return np.array([row.m for row in self.rows])


_SLOPE_GAP_DEMOCRATIC = 0.1


def _profile_rows(basis: Basis, m_max: int, blocks, finish) -> list[ProfileRow]:
    """The rows m = 1..m_max from one pass over the feed ``blocks`` of (sums,
    sizes, witness_of), each row's two trackers turned into estimates by
    ``finish`` (:func:`_exact_phi` or :func:`_random_phi`).

    A set of size s is feasible for phi_u at every m >= s and for phi_l at
    every m <= s, so each set is offered to a range of rows.
    """
    up = [Tracker() for _ in range(m_max)]
    down = [Tracker(maximize=False) for _ in range(m_max)]
    moduli = _block_buffer(basis.dim)  # every feed block fits the row cap
    for sums, sizes, witness_of in blocks:
        gauges = ambient_gauge_rows(basis.space, sums, _scratch(moduli, *sums.shape))
        # an exact block has one size, so most rows take it whole or not at all
        small, large = sizes.min(), sizes.max()
        for m in range(1, m_max + 1):
            if small <= m:
                up[m - 1].offer(gauges, witness_of, None if large <= m else sizes <= m)
            if large >= m:
                down[m - 1].offer(gauges, witness_of, None if small >= m else sizes >= m)
    return [ProfileRow(m=m, phi_u=finish(basis, m, up[m - 1]),
                       phi_l=finish(basis, m, down[m - 1]))
            for m in range(1, m_max + 1)]


# The estimators of an ``analyze`` run by name, roughly largest first as timed
# per task on the benchmark's analyze runs: :func:`~qgreedy.tasks.run_tasks`
# hands them out in this order, so the small ones fill in at the end.
LARGEST_FIRST = ("rows", "succ", "conditionality", "sign_change", "unconditional",
                 "truncation", "quasi_greedy", "super_democracy", "profile_quasi_greedy")


def profile_tasks(basis: Basis, m_max: int | None = None, mode: str = "exact",
                  budget: int = 2000, seed: int = 0):
    """The five independent estimators of :func:`democracy_profile` as named
    zero-argument tasks, and the ``assemble`` that turns their results (by
    the same names) into the profile.  The tasks are listed in the order a
    sequential run takes them, which decides the error a failing run raises."""
    m_max = size_cap(m_max, basis.d, 12)
    small = min(budget, 500)
    tasks = {
        "rows": partial(_rows, basis, m_max, mode, budget, seed),
        "profile_quasi_greedy": partial(quasi_greedy_constant, basis, budget=small, seed=seed),
        "succ": partial(succ_constant, basis, budget=small, seed=seed),
        "sign_change": partial(sign_change_constant, basis, budget=small, seed=seed),
        "super_democracy": partial(super_democracy_constant, basis, m_max=m_max, budget=small,
                                   seed=seed),
    }
    return tasks, partial(_assemble, m_max, {"mode": mode, "m_max": m_max, "budget": budget,
                                             "seed": seed})


def _rows(basis: Basis, m_max: int, mode: str, budget: int, seed: int) -> list[ProfileRow]:
    if mode == "exact" and _use_occupancy(basis):
        return [ProfileRow(m=m, phi_u=upper_democracy(basis, m, mode, budget, seed),
                           phi_l=lower_democracy(basis, m, mode, budget, seed))
                for m in range(1, m_max + 1)]
    # lower_democracy(1) spans every size, so its overflow guard is the
    # first one the per-m calls would trip
    return _profile_rows(basis, m_max,
                         *_feed(basis, mode, 1, basis.d, budget, seed, PROFILE_SETS, ">= 1"))


def democracy_profile(basis: Basis, m_max: int | None = None, mode: str = "exact",
                      budget: int = 2000, seed: int = 0, threads: int = 1) -> DemocracyProfile:
    """Tabulate phi_u/phi_l for m = 1..m_max with slopes and verdict flags.

    Log-log slopes are fitted over m in [max(2, m_max // 4), m_max]; with
    fewer than two such m, or a phi value there past the float range, they
    are NaN, and the verdict says that no slope could be fitted and is not
    democratic.  The democratic verdict compares the two slopes against a
    fixed heuristic gap (0.1); the almost-greedy flag additionally requires
    a certified finite quasi-greedy upper bound, so it stays conservative
    for bases where only heuristic lower bounds exist.

    The row pass, the three sign constants and the quasi-greedy search at
    budget min(budget, 500) run through :func:`~qgreedy.tasks.run_tasks`, on
    the usable CPUs; the result does not depend on where each one ran.
    """
    tasks, assemble = profile_tasks(basis, m_max, mode, budget, seed)
    return assemble(run_tasks(tasks, LARGEST_FIRST))


def _assemble(m_max: int, meta: dict[str, Any], parts: dict[str, Any]) -> DemocracyProfile:
    """The profile from its tasks' results: slopes, ratio and verdict."""
    rows = parts["rows"]
    lo_fit = max(2, m_max // 4)
    fit_rows = [r for r in rows if lo_fit <= r.m <= m_max]
    phi_u = np.array([r.phi_u_value for r in fit_rows])
    phi_l = np.array([r.phi_l_value for r in fit_rows])
    overflow = not (np.all(np.isfinite(phi_u)) and np.all(np.isfinite(phi_l)))
    if len(fit_rows) >= 2 and not overflow:
        ms = np.array([r.m for r in fit_rows], dtype=float)
        slope_u, _, res_u = loglog_slope(ms, phi_u)
        slope_l, _, res_l = loglog_slope(ms, phi_l)
    else:
        slope_u = slope_l = res_u = res_l = float("nan")

    ratio_max = max(
        (r.phi_u_value / r.phi_l_value) for r in rows if r.phi_l_value > 0
    )
    qg = parts["profile_quasi_greedy"]

    slope_gap = slope_u - slope_l if not math.isnan(slope_u) else math.inf
    democratic = slope_gap <= _SLOPE_GAP_DEMOCRATIC
    almost_greedy = democratic and qg.upper_certified
    if democratic:
        verdict = (f"democratic within measured constant {ratio_max:.6g} "
                   f"(slope gap {slope_gap:.3f})")
    elif len(fit_rows) < 2:
        verdict = (f"not democratic: no slope could be fitted (the fit needs two sizes "
                   f"m in [{lo_fit}, m_max], and m_max = {m_max})")
    elif overflow:
        verdict = (f"not democratic: no slope could be fitted (the phi values at m in "
                   f"[{lo_fit}, {m_max}] leave the float range)")
    else:
        verdict = (f"not democratic: phi_u grows like m^{slope_u:.2f} "
                   f"but phi_l like m^{slope_l:.2f}")
    return DemocracyProfile(
        rows=rows,
        slope_u=slope_u,
        slope_l=slope_l,
        slope_residual_u=res_u,
        slope_residual_l=res_l,
        ratio_max=ratio_max,
        succ=parts["succ"],
        sign_change=parts["sign_change"],
        super_democracy=parts["super_democracy"],
        quasi_greedy=qg,
        democratic=democratic,
        almost_greedy=almost_greedy,
        verdict=verdict,
        meta=meta,
    )
