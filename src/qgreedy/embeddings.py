"""Empirical embedding constants between the ambient space and weighted
Lorentz spaces, via the coefficient transform.

Both directions are sup-type and non-convex for p < 1, so the constants are
reported as witness-certified lower bounds; a structural upper bound is
attached for the identity system, where a rearrangement argument makes one
available.  Each report carries a companion table comparing the primitive
weight s_m against the matching democracy function.

Both searches build their candidates as one array and read it in capped
blocks from :func:`~qgreedy.bases.candidate_blocks`, which gives the ambient
gauges; the other side is the Lorentz gauge of a
:class:`~qgreedy.spaces.LorentzSpace` that computes its primitive weight
once, and :func:`~qgreedy.estimates.ratios` divides the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .bases import Basis, candidate_blocks
from .democracy import lower_democracy, upper_democracy
from .errors import InvalidExponentError, InvalidWeightError
from .estimates import BoundEstimate, Tracker, ratios
from .lorentz import check_weight
from .rng import EMBED_LORENTZ_SAMPLES, EMBED_SPACE_SAMPLES
from .sampling import coefficient_samples, size_cap, structured_subsets
from .spaces import Lp, LorentzSpace, ambient_gauge_rows

__all__ = [
    "CompanionRow",
    "EmbeddingReport",
    "embed_space_into_weak_lorentz",
    "embed_lorentz_into_space",
]

_EXACT_TABLE_LIMIT = 4096  # full subset enumeration for companion tables


@dataclass
class CompanionRow:
    m: int
    s_m: float
    phi: float
    ratio: float


@dataclass
class EmbeddingReport:
    direction: str
    constant: BoundEstimate
    q: float | None
    weight: np.ndarray
    phi_label: str
    table: list[CompanionRow]
    meta: dict[str, Any] | None = None


def _validated(basis: Basis, w, m_max: int | None) -> tuple[np.ndarray, int]:
    """The checked weight and the companion table's last size, after checking
    that the ambient is lp, the table has a row and the weight covers the basis."""
    if not isinstance(basis.space, Lp):
        raise InvalidExponentError("embedding reports require an lp ambient")
    m_max = size_cap(m_max, basis.d, 12)
    w = check_weight(w)
    if w.size < basis.d:
        raise InvalidWeightError(f"weight prefix {w.size} shorter than basis size {basis.d}")
    return w, m_max


def _coefficient_pool(d: int, head: list[np.ndarray], budget: int, seed: int,
                      op: int) -> np.ndarray:
    """Coefficient rows in search order: ``head``, the indicators of the
    structured subsets of every size, then the samples of ``op``."""
    rows = list(head)
    for k in range(1, d + 1):
        for s in structured_subsets(d, k):
            rows.append(np.zeros(d))
            rows[-1][s] = 1.0
    rows.extend(coefficient_samples(d, budget, seed, op))
    return np.array(rows)


def _report(direction: str, basis: Basis, w: np.ndarray, s: np.ndarray, q: float | None,
            tracker: Tracker, upper: float, note: str, budget: int, seed: int,
            m_max: int) -> EmbeddingReport:
    """The report of one direction, with the companion table of ``s``, the primitive
    weight of w[:d], against phi_l(m) (into weak Lorentz, ``q`` None) or phi_u(m)."""
    d = basis.d
    mode = "exact" if 2**d <= _EXACT_TABLE_LIMIT else "random"
    table = []
    for m in range(1, m_max + 1):
        s_m = float(s[m - 1])
        if q is None:
            phi = lower_democracy(basis, m, mode=mode, budget=max(200, budget // 4),
                                  seed=seed).upper  # measured inf (exact when mode='exact')
            ratio = s_m / phi if phi > 0 else math.inf
        else:
            phi = upper_democracy(basis, m, mode=mode, budget=max(200, budget // 4),
                                  seed=seed).lower
            ratio = phi / s_m if s_m > 0 else math.inf
        table.append(CompanionRow(m=m, s_m=s_m, phi=phi, ratio=ratio))
    return EmbeddingReport(
        direction=direction,
        constant=tracker.estimate(upper, note=note),
        q=q,
        weight=w,
        phi_label="phi_l" if q is None else "phi_u",
        table=table,
        meta={"democracy_mode": mode},
    )


def embed_space_into_weak_lorentz(basis: Basis, w, budget: int = 800, seed: int = 0,
                                  m_max: int | None = None) -> EmbeddingReport:
    """Lower bound for sup_f ||F(f)||_{inf,w} / ||f|| with F the coefficient
    transform, plus the companion table of s_m against phi_l(m)."""
    w, m_max = _validated(basis, w, m_max)
    d, p = basis.d, basis.space.p
    weak = LorentzSpace(math.inf, w[:d])
    coeffs = _coefficient_pool(d, [np.ones(d)], budget, seed, EMBED_SPACE_SAMPLES)
    pool = np.vstack((np.eye(basis.dim), coeffs @ basis.vectors))
    tracker = Tracker()
    for coeffs, f, nf in candidate_blocks(basis, pool, ambient=True):
        tracker.offer(ratios(ambient_gauge_rows(weak, coeffs), nf),
                      lambda j: {"f": f[j].tolist()})

    upper, note = math.inf, ""
    if basis.is_diagonal():
        # a_n* <= (||f||_p^p / n)^(1/p), with equality on flat vectors; at
        # p = inf the divisor n^0 is 1 and a_n* <= ||f||_inf
        upper = float(np.max(weak.primitive / np.arange(1, d + 1) ** (1.0 / p)))
        note = "rearrangement bound for the identity system"
    return _report("space_into_weak_lorentz", basis, w, weak.primitive, None, tracker, upper,
                   note, budget, seed, m_max)


def embed_lorentz_into_space(basis: Basis, q, w, budget: int = 800, seed: int = 0,
                             m_max: int | None = None) -> EmbeddingReport:
    """Lower bound for sup_g ||sum_n g_n x_n|| / ||g||_{q,w}, plus the
    companion table of phi_u(m) against s_m."""
    w, m_max = _validated(basis, w, m_max)
    d, p = basis.d, basis.space.p
    lorentz = LorentzSpace(q, w[:d])
    pool = _coefficient_pool(d, [np.ones(d), *np.eye(d)], budget, seed, EMBED_LORENTZ_SAMPLES)
    tracker = Tracker()
    for g, _, nf in candidate_blocks(basis, pool):
        tracker.offer(ratios(nf, ambient_gauge_rows(lorentz, g)),
                      lambda j: {"g": g[j].tolist()})

    upper, note = math.inf, ""
    if basis.is_diagonal() and not math.isinf(p) and lorentz.q == p:
        terms = lorentz.primitive ** (p - 1.0) * lorentz.weight
        upper = float(np.max(terms ** (-1.0 / p)))
        note = "termwise comparison at q = p for the identity system"
    return _report("lorentz_into_space", basis, w, lorentz.primitive, lorentz.q, tracker,
                   upper, note, budget, seed, m_max)
