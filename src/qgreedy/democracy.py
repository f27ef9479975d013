"""Democracy functions and the related sign-constant estimators.

phi_u(m) is the sup of ||sum_{n in A} x_n|| over |A| <= m, phi_l(m) the inf
over |A| >= m.  Exact mode enumerates each subset size once per call (or,
for identity coordinates in a block space, optimizes block occupancies,
which is exact far beyond subset range).  Random mode reports
witness-certified one-sided bounds; it scores its structured and sampled
sets in blocks, one row-kernel call per block within the row cap of
:mod:`qgreedy.spaces`, and the first best set in feed order wins.
``threads`` arguments have no effect.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .bases import Basis
from .errors import CombinatorialOverflowError
from .estimates import BoundEstimate, MinTracker, RatioTracker
from .greedy import quasi_greedy_constant
from .numerics import loglog_slope, sign_patterns
from .rng import DEMOCRACY_SETS, SIGN_CHANGE, SUCC_PAIRS, SUPER_DEMOCRACY, substream
from .sampling import random_subset, structured_subsets
from .spaces import BlockLpL2, _row_chunks, ambient_gauge, ambient_gauge_rows, p_convexity

__all__ = [
    "indicator_gauge",
    "upper_democracy",
    "lower_democracy",
    "succ_constant",
    "sign_change_constant",
    "super_democracy_constant",
    "democracy_profile",
    "DemocracyProfile",
    "ProfileRow",
    "EXACT_SUBSET_LIMIT",
]

EXACT_SUBSET_LIMIT = 10**7
_CHUNK = 4096
_SIGN_ENUM_CAP = 12  # exhaustive sign patterns up to 2^12 per sampled set


def indicator_gauge(basis: Basis, A, signs=None) -> float:
    """Gauge of sum_{n in A} (+/-) x_n."""
    idx = np.asarray(list(A), dtype=int)
    if idx.size == 0:
        return 0.0
    rows = basis.vectors[idx]
    if signs is not None:
        rows = np.asarray(signs, dtype=float)[:, None] * rows
    return ambient_gauge(basis.space, rows.sum(axis=0))


def _indicator_gauges(basis: Basis, sets: list) -> np.ndarray:
    """Gauges of sum_{n in A} x_n for index sets A, in one rows call.

    Sets of one size are summed together, one member position at a time, so
    each sum adds its vectors in the order :func:`indicator_gauge` adds them
    and no temporary is larger than the block of sums.
    """
    sizes = np.array([len(s) for s in sets])
    sums = np.zeros((len(sets), basis.dim))
    for k in set(sizes.tolist()):
        at = np.flatnonzero(sizes == k)
        idx = np.array([sets[i] for i in at], dtype=int).reshape(at.size, k)
        block = np.zeros((at.size, basis.dim))
        for col in idx.T:
            block += basis.vectors[col]
        sums[at] = block
    return ambient_gauge_rows(basis.space, sums)


def _offer_extreme(tracker, gauges: np.ndarray, eligible: np.ndarray, sets: list,
                   maximize: bool) -> None:
    """Offer the first largest (or smallest) eligible gauge of a block of sets
    to the tracker: the same winner as offering every set in order."""
    if not eligible.any():
        return
    if maximize:
        j = int(np.argmax(np.where(eligible, gauges, -math.inf)))
    else:
        j = int(np.argmin(np.where(eligible, gauges, math.inf)))
    tracker.update(float(gauges[j]), {"set": [int(i) for i in sets[j]]})


def _scan_sets(basis: Basis, sets, tracker, maximize: bool) -> None:
    """Feed index sets (any iterable) to one tracker in capped blocks."""
    for chunk in _row_chunks(sets, basis.dim):
        gauges = _indicator_gauges(basis, chunk)
        _offer_extreme(tracker, gauges, np.ones(len(chunk), dtype=bool), chunk, maximize)


# ---------------------------------------------------------------------------
# exact kernels
# ---------------------------------------------------------------------------


def _size_extremes(basis: Basis, k: int):
    """(max, argmax, min, argmin) of the indicator gauge over all |A| = k."""
    best_hi, arg_hi = -math.inf, None
    best_lo, arg_lo = math.inf, None
    it = itertools.combinations(range(basis.d), k)
    while chunk := list(itertools.islice(it, _CHUNK)):
        sums = basis.vectors[np.asarray(chunk, dtype=int)].sum(axis=1)
        g = ambient_gauge_rows(basis.space, sums)
        hi = int(np.argmax(g))
        lo = int(np.argmin(g))
        if g[hi] > best_hi:
            best_hi, arg_hi = float(g[hi]), chunk[hi]
        if g[lo] < best_lo:
            best_lo, arg_lo = float(g[lo]), chunk[lo]
    return best_hi, arg_hi, best_lo, arg_lo


def _exact_extremes(basis: Basis, lo: int, hi: int, bound: str) -> tuple[list, list]:
    """Exact phi estimates from the set sizes lo..hi, each size enumerated once.

    ups[k - lo] is the max over lo <= |A| <= k (a prefix max), downs[k - lo]
    the min over k <= |A| <= hi (a suffix min).  Ties go to the smallest size,
    as in a strict-inequality scan by increasing size.  ``bound`` names the
    size range in the overflow error.
    """
    d = basis.d
    if sum(math.comb(d, k) for k in range(lo, hi + 1)) > EXACT_SUBSET_LIMIT:
        raise CombinatorialOverflowError(
            f"exact enumeration over sets of size {bound} in d = {d} exceeds "
            f"{EXACT_SUBSET_LIMIT} subsets; use mode='random'"
        )
    per_size = [_size_extremes(basis, k) for k in range(lo, hi + 1)]
    ups, downs = [], []
    up, down = (-math.inf, None), (math.inf, None)
    for (hi_val, hi_arg, _, _), (_, _, lo_val, lo_arg) in zip(per_size, per_size[::-1]):
        if hi_val > up[0]:
            up = (hi_val, hi_arg)
        if lo_val <= down[0]:
            down = (lo_val, lo_arg)
        ups.append(_exact_estimate(*up))
        downs.insert(0, _exact_estimate(*down))
    return ups, downs


def _exact_estimate(value: float, arg) -> BoundEstimate:
    return BoundEstimate(value, value, {"set": list(arg)}, upper_certified=True,
                         heuristic=False)


def _occupancy_extremes(space: BlockLpL2, m: int) -> tuple[float, list[int], float, list[int]]:
    """Extremes of the indicator gauge over occupancy vectors summing to m.

    For identity coordinates the gauge of an indicator sum depends only on
    how many chosen indices fall in each block: gauge = (sum_b c_b^(p/2))^(1/p).
    Dynamic programming over blocks with per-block caps is exact.
    """
    blocks = space.blocks
    half_p = space.p / 2.0
    neg = [-math.inf] * (m + 1)
    pos = [math.inf] * (m + 1)
    dmax = list(neg)
    dmin = list(pos)
    dmax[0] = 0.0
    dmin[0] = 0.0
    choice_max: list[list[int]] = []
    choice_min: list[list[int]] = []
    for b in blocks:
        cmax_row = [0] * (m + 1)
        cmin_row = [0] * (m + 1)
        new_max = list(neg)
        new_min = list(pos)
        cap = min(b, m)
        gains = [c**half_p for c in range(cap + 1)]
        for t in range(m + 1):
            for c in range(0, min(cap, t) + 1):
                if dmax[t - c] != -math.inf:
                    val = dmax[t - c] + gains[c]
                    if val > new_max[t]:
                        new_max[t] = val
                        cmax_row[t] = c
                if dmin[t - c] != math.inf:
                    val = dmin[t - c] + gains[c]
                    if val < new_min[t]:
                        new_min[t] = val
                        cmin_row[t] = c
        dmax, dmin = new_max, new_min
        choice_max.append(cmax_row)
        choice_min.append(cmin_row)

    def reconstruct(choices: list[list[int]]) -> list[int]:
        occ = [0] * len(blocks)
        t = m
        for bi in range(len(blocks) - 1, -1, -1):
            occ[bi] = choices[bi][t]
            t -= occ[bi]
        return occ

    inv_p = 1.0 / space.p
    return (
        dmax[m] ** inv_p,
        reconstruct(choice_max),
        dmin[m] ** inv_p,
        reconstruct(choice_min),
    )


def _occupancy_to_set(space: BlockLpL2, occupancy: list[int]) -> list[int]:
    out: list[int] = []
    for offset, size, c in zip(space.offsets, space.blocks, occupancy):
        out.extend(range(int(offset), int(offset) + c))
    return out


def _use_occupancy(basis: Basis) -> bool:
    return isinstance(basis.space, BlockLpL2) and basis.is_diagonal() and bool(
        np.allclose(np.diag(basis.vectors), 1.0)
    )


# ---------------------------------------------------------------------------
# democracy functions
# ---------------------------------------------------------------------------


def _phi_u_certified_upper(basis: Basis, m: int) -> tuple[float, bool]:
    r = p_convexity(basis.space)
    if r is None:
        return math.inf, False
    return basis.a * m ** (1.0 / r), True


def _block_spread_sets(basis: Basis) -> list[np.ndarray]:
    """One index per block, for the first k blocks (block ambients only)."""
    if not isinstance(basis.space, BlockLpL2):
        return []
    offsets = basis.space.offsets
    return [np.sort(offsets[:k]) for k in range(1, len(offsets) + 1)]


def _swap_refine(basis: Basis, s, maximize: bool, passes: int = 2) -> tuple[list[int], float]:
    """Size-preserving single-swap hill climb on the indicator gauge.

    Each member in turn is swapped against every non-member in one rows call;
    the first improving swap (by increasing index) is taken before moving on
    to the next member, so every accepted set has the starting size.
    """
    current = sorted(int(i) for i in s)
    best = float(_indicator_gauges(basis, [current])[0])
    for _ in range(passes):
        improved = False
        for out in list(current):
            rest = [i for i in current if i != out]
            trials = [sorted(rest + [into]) for into in range(basis.d) if into not in current]
            if not trials:
                continue
            vals = _indicator_gauges(basis, trials)
            better = vals > best * (1 + 1e-12) if maximize else vals < best * (1 - 1e-12)
            if better.any():
                j = int(np.argmax(better))
                current, best = trials[j], float(vals[j])
                improved = True
        if not improved:
            break
    return current, best


def upper_democracy(basis: Basis, m: int, mode: str = "exact", budget: int = 2000,
                    seed: int = 0, threads: int = 1) -> BoundEstimate:
    """phi_u(m): sup of the indicator gauge over sets of at most m indices."""
    d = basis.d
    if not 1 <= m <= d:
        raise ValueError(f"m must lie in [1, {d}], got {m}")
    if mode == "exact":
        if _use_occupancy(basis):
            # occupancy gain c^(p/2) strictly increases with c, so the sup
            # over sizes <= m is attained at size m
            best, occ, _, _ = _occupancy_extremes(basis.space, m)
            witness = {"set": _occupancy_to_set(basis.space, occ), "occupancy": occ}
            return BoundEstimate(best, best, witness, upper_certified=True, heuristic=False)
        return _exact_extremes(basis, 1, m, f"<= {m}")[0][-1]
    if mode != "random":
        raise ValueError(f"mode must be 'exact' or 'random', got {mode!r}")

    def sets():
        for k in range(1, m + 1):
            yield from structured_subsets(d, k)
        yield from (s for s in _block_spread_sets(basis) if s.size <= m)
        for i in range(budget):
            rng = substream(seed, DEMOCRACY_SETS, i)
            yield random_subset(rng, d, m if i % 3 else int(rng.integers(1, m + 1)))

    tracker = RatioTracker()
    _scan_sets(basis, sets(), tracker, maximize=True)
    if tracker.witness is not None:
        refined, val = _swap_refine(basis, tracker.witness["set"], maximize=True)
        tracker.update(val, {"set": refined})
    upper, certified = _phi_u_certified_upper(basis, m)
    return BoundEstimate(min(tracker.best, upper), upper, tracker.witness,
                         upper_certified=certified, heuristic=True)


def lower_democracy(basis: Basis, m: int, mode: str = "exact", budget: int = 2000,
                    seed: int = 0, threads: int = 1) -> BoundEstimate:
    """phi_l(m): inf of the indicator gauge over sets of at least m indices.

    Inf-type: in random mode every sampled set certifies an upper bound and
    the certified lower bound is 0.
    """
    d = basis.d
    if not 1 <= m <= d:
        raise ValueError(f"m must lie in [1, {d}], got {m}")
    if mode == "exact":
        if _use_occupancy(basis):
            # adding an element strictly increases the occupancy gain, so the
            # inf over sizes >= m is attained at size m
            _, _, best, occ = _occupancy_extremes(basis.space, m)
            witness = {"set": _occupancy_to_set(basis.space, occ), "occupancy": occ}
            return BoundEstimate(best, best, witness, upper_certified=True, heuristic=False)
        return _exact_extremes(basis, m, d, f">= {m}")[1][0]
    if mode != "random":
        raise ValueError(f"mode must be 'exact' or 'random', got {mode!r}")

    def sets():
        for k in range(m, d + 1):
            yield from structured_subsets(d, k)
        yield from (s for s in _block_spread_sets(basis) if s.size >= m)
        for i in range(budget):
            rng = substream(seed, DEMOCRACY_SETS, budget + i)
            yield random_subset(rng, d, m if i % 3 else int(rng.integers(m, d + 1)))

    tracker = MinTracker()
    _scan_sets(basis, sets(), tracker, maximize=False)
    if tracker.witness is not None:
        refined, val = _swap_refine(basis, tracker.witness["set"], maximize=False)
        tracker.update(val, {"set": refined})
    return BoundEstimate(0.0, tracker.best, tracker.witness, upper_certified=True,
                         heuristic=True,
                         note="inf-type: upper bound is the sampled minimum")


# ---------------------------------------------------------------------------
# sign constants
# ---------------------------------------------------------------------------


def _sign_gauges(basis: Basis, idx: np.ndarray, rng=None) -> tuple[np.ndarray, np.ndarray]:
    """(gauges, signs) of sum_{n in idx} eps_n x_n over sign patterns
    (exhaustive when |idx| <= _SIGN_ENUM_CAP, otherwise 128 sampled)."""
    k = idx.size
    rows = basis.vectors[idx]
    if k <= _SIGN_ENUM_CAP:
        signs = sign_patterns(k, 0, 1 << k)
    else:
        signs = rng.choice([-1.0, 1.0], size=(128, k)) if rng is not None else np.ones((1, k))
    return ambient_gauge_rows(basis.space, signs @ rows), signs


def succ_constant(basis: Basis, budget: int = 500, seed: int = 0) -> BoundEstimate:
    """Nested-set sign constant: sup over A subset of B and signs eps of
    ||sum_A eps_n x_n|| / ||sum_B eps_n x_n||."""
    d = basis.d
    tracker = RatioTracker()
    tracker.update(1.0, {"A": [0], "B": [0], "signs": [1.0]})

    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for n in range(1, d):
        pairs.append((np.array([n]), np.array([n - 1, n])))
    for k in range(1, d):
        pairs.append((np.array([k]), np.arange(k + 1)))
    for i in range(budget):
        rng = substream(seed, SUCC_PAIRS, i)
        bsize = int(rng.integers(2, d + 1))
        b = random_subset(rng, d, bsize)
        asize = int(rng.integers(1, bsize))
        a = np.sort(rng.choice(b, size=asize, replace=False))
        pairs.append((a, b))

    for a, b in pairs:
        rng = substream(seed, SUCC_PAIRS, budget + hash((tuple(a), tuple(b))) % (1 << 30))
        b_list = [int(x) for x in b]
        pos = np.searchsorted(b, a)
        if b.size <= _SIGN_ENUM_CAP:
            signs = sign_patterns(b.size, 0, 1 << b.size)
        else:
            signs = rng.choice([-1.0, 1.0], size=(128, b.size))
        den = ambient_gauge_rows(basis.space, signs @ basis.vectors[b])
        num = ambient_gauge_rows(basis.space, signs[:, pos] @ basis.vectors[a])
        ratios = num / den
        j = int(np.argmax(ratios))
        tracker.update(float(ratios[j]), {
            "A": [int(x) for x in a], "B": b_list, "signs": signs[j].tolist(),
        })
    return BoundEstimate(tracker.best, math.inf, tracker.witness, heuristic=True)


def sign_change_constant(basis: Basis, budget: int = 500, seed: int = 0) -> BoundEstimate:
    """Same-set sign constant: sup over A and sign pairs (theta, eps) of
    ||sum_A theta_n x_n|| / ||sum_A eps_n x_n||."""
    d = basis.d
    tracker = RatioTracker()
    tracker.update(1.0, {"A": [0], "theta": [1.0], "eps": [1.0]})

    sets: list[np.ndarray] = []
    for k in range(1, d + 1):
        sets.extend(structured_subsets(d, k))
    for i in range(budget):
        rng = substream(seed, SIGN_CHANGE, i)
        size = int(rng.integers(1, d + 1))
        sets.append(random_subset(rng, d, size))

    for idx, a in enumerate(sets):
        rng = substream(seed, SIGN_CHANGE, budget + idx)
        gauges, signs = _sign_gauges(basis, np.asarray(a, dtype=int), rng)
        hi, lo = int(np.argmax(gauges)), int(np.argmin(gauges))
        if gauges[lo] <= 0:
            continue
        tracker.update(float(gauges[hi] / gauges[lo]), {
            "A": [int(x) for x in a],
            "theta": signs[hi].tolist(),
            "eps": signs[lo].tolist(),
        })
    return BoundEstimate(tracker.best, math.inf, tracker.witness, heuristic=True)


def super_democracy_constant(basis: Basis, m_max: int | None = None, budget: int = 500,
                             seed: int = 0) -> BoundEstimate:
    """Equal-size signed comparison: sup over |A| = |B| and signs of
    ||sum_A theta_n x_n|| / ||sum_B eps_n x_n||."""
    d = basis.d
    if m_max is None:
        m_max = d
    m_max = min(int(m_max), d)
    tracker = RatioTracker()
    tracker.update(1.0, {"A": [0], "B": [0], "theta": [1.0], "eps": [1.0]})

    for m in range(1, m_max + 1):
        cands = structured_subsets(d, m)
        per_size = max(1, budget // max(1, m_max))
        for i in range(per_size):
            rng = substream(seed, SUPER_DEMOCRACY, m * budget + i)
            cands.append(random_subset(rng, d, m))
        best_hi, arg_hi, sig_hi = -math.inf, None, None
        best_lo, arg_lo, sig_lo = math.inf, None, None
        for a in cands:
            rng = substream(seed, SUPER_DEMOCRACY, (m_max + m) * budget + hash(tuple(a)) % (1 << 30))
            gauges, signs = _sign_gauges(basis, np.asarray(a, dtype=int), rng)
            hi, lo = int(np.argmax(gauges)), int(np.argmin(gauges))
            if gauges[hi] > best_hi:
                best_hi, arg_hi, sig_hi = float(gauges[hi]), a, signs[hi]
            if 0 < gauges[lo] < best_lo:
                best_lo, arg_lo, sig_lo = float(gauges[lo]), a, signs[lo]
        if arg_hi is not None and arg_lo is not None:
            tracker.update(best_hi / best_lo, {
                "A": [int(x) for x in arg_hi], "B": [int(x) for x in arg_lo],
                "theta": sig_hi.tolist(), "eps": sig_lo.tolist(),
            })
    return BoundEstimate(tracker.best, math.inf, tracker.witness, heuristic=True)


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


def _random_profile_rows(basis: Basis, m_max: int, budget: int, seed: int) -> list[ProfileRow]:
    """One shared sampling pass filling all per-m trackers.

    A sampled set of size s is feasible for phi_u at every m >= s and for
    phi_l at every m <= s, so each draw updates a range of rows.
    """
    d = basis.d
    up = [RatioTracker() for _ in range(m_max)]
    down = [MinTracker() for _ in range(m_max)]

    def sets():
        for k in range(1, d + 1):
            yield from structured_subsets(d, k)
        yield from _block_spread_sets(basis)
        for i in range(budget):
            rng = substream(seed, DEMOCRACY_SETS, i)
            yield random_subset(rng, d, int(rng.integers(1, d + 1)))

    for chunk in _row_chunks(sets(), basis.dim):
        gauges = _indicator_gauges(basis, chunk)
        sizes = np.array([len(s) for s in chunk])
        for m in range(1, m_max + 1):
            _offer_extreme(up[m - 1], gauges, sizes <= m, chunk, maximize=True)
            _offer_extreme(down[m - 1], gauges, sizes >= m, chunk, maximize=False)
    for m in range(1, m_max + 1):
        if up[m - 1].witness is not None:
            refined, val = _swap_refine(basis, up[m - 1].witness["set"], maximize=True)
            up[m - 1].update(val, {"set": refined})
        if down[m - 1].witness is not None:
            refined, val = _swap_refine(basis, down[m - 1].witness["set"], maximize=False)
            down[m - 1].update(val, {"set": refined})

    rows = []
    for m in range(1, m_max + 1):
        upper_cert, certified = _phi_u_certified_upper(basis, m)
        phi_u = BoundEstimate(min(up[m - 1].best, upper_cert), upper_cert,
                              up[m - 1].witness, upper_certified=certified, heuristic=True)
        phi_l = BoundEstimate(0.0, down[m - 1].best, down[m - 1].witness,
                              upper_certified=True, heuristic=True,
                              note="inf-type: upper bound is the sampled minimum")
        rows.append(ProfileRow(m=m, phi_u=phi_u, phi_l=phi_l))
    return rows


def democracy_profile(basis: Basis, m_max: int | None = None, mode: str = "exact",
                      budget: int = 2000, seed: int = 0, threads: int = 1) -> DemocracyProfile:
    """Tabulate phi_u/phi_l for m = 1..m_max with slopes and verdict flags.

    Log-log slopes are fitted over m in [max(2, m_max // 4), m_max].  The
    democratic verdict compares the two slopes against a fixed heuristic gap
    (0.1); the almost-greedy flag additionally requires a certified finite
    quasi-greedy upper bound, so it stays conservative for bases where only
    heuristic lower bounds exist.
    """
    d = basis.d
    if m_max is None:
        m_max = min(d, 12)
    m_max = min(int(m_max), d)
    if mode == "random":
        rows = _random_profile_rows(basis, m_max, budget, seed)
    elif mode == "exact" and not _use_occupancy(basis):
        # lower_democracy(1) spans every size, so its overflow guard is the
        # first one the per-m calls would trip
        ups, downs = _exact_extremes(basis, 1, d, ">= 1")
        rows = [ProfileRow(m=m, phi_u=ups[m - 1], phi_l=downs[m - 1])
                for m in range(1, m_max + 1)]
    else:
        rows = [
            ProfileRow(
                m=m,
                phi_u=upper_democracy(basis, m, mode, budget, seed, threads),
                phi_l=lower_democracy(basis, m, mode, budget, seed, threads),
            )
            for m in range(1, m_max + 1)
        ]

    lo_fit = max(2, m_max // 4)
    fit_rows = [r for r in rows if lo_fit <= r.m <= m_max]
    if len(fit_rows) >= 2:
        ms = np.array([r.m for r in fit_rows], dtype=float)
        slope_u, _, res_u = loglog_slope(ms, np.array([r.phi_u_value for r in fit_rows]))
        slope_l, _, res_l = loglog_slope(ms, np.array([r.phi_l_value for r in fit_rows]))
    else:
        slope_u = slope_l = res_u = res_l = float("nan")

    ratio_max = max(
        (r.phi_u_value / r.phi_l_value) for r in rows if r.phi_l_value > 0
    )
    qg = quasi_greedy_constant(basis, budget=min(budget, 500), seed=seed)
    succ = succ_constant(basis, budget=min(budget, 500), seed=seed)
    sign_change = sign_change_constant(basis, budget=min(budget, 500), seed=seed)
    super_dem = super_democracy_constant(basis, m_max=m_max, budget=min(budget, 500), seed=seed)

    slope_gap = slope_u - slope_l if not math.isnan(slope_u) else math.inf
    democratic = slope_gap <= _SLOPE_GAP_DEMOCRATIC
    almost_greedy = democratic and qg.upper_certified and math.isfinite(qg.upper)
    if democratic:
        verdict = (f"democratic within measured constant {ratio_max:.6g} "
                   f"(slope gap {slope_gap:.3f})")
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
        succ=succ,
        sign_change=sign_change,
        super_democracy=super_dem,
        quasi_greedy=qg,
        democratic=democratic,
        almost_greedy=almost_greedy,
        verdict=verdict,
        meta={"mode": mode, "m_max": m_max, "budget": budget, "seed": seed},
    )
