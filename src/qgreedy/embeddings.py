"""Empirical embedding constants between the ambient space and weighted
Lorentz spaces, via the coefficient transform.

Both directions are sup-type and non-convex for p < 1, so the constants are
reported as witness-certified lower bounds; a structural upper bound is
attached for the identity system, where a rearrangement argument makes one
available.  Each report carries a companion table comparing the primitive
weight s_m against the matching democracy function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .bases import Basis, coefficient_transform, synthesize
from .democracy import lower_democracy, upper_democracy
from .errors import InvalidExponentError, InvalidWeightError
from .estimates import BoundEstimate, RatioTracker
from .lorentz import check_weight, lorentz_gauge, primitive_weight
from .rng import EMBED_LORENTZ_SAMPLES, EMBED_SPACE_SAMPLES
from .sampling import coefficient_samples, structured_subsets
from .spaces import Lp, ambient_gauge

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


def _require_lp(basis: Basis) -> Lp:
    if not isinstance(basis.space, Lp):
        raise InvalidExponentError("embedding reports require an lp ambient")
    return basis.space


def _democracy_mode(basis: Basis) -> str:
    return "exact" if 2**basis.d <= _EXACT_TABLE_LIMIT else "random"


def embed_space_into_weak_lorentz(basis: Basis, w, budget: int = 800, seed: int = 0,
                                  m_max: int | None = None) -> EmbeddingReport:
    """Lower bound for sup_f ||F(f)||_{inf,w} / ||f|| with F the coefficient
    transform, plus the companion table of s_m against phi_l(m)."""
    space = _require_lp(basis)
    w = check_weight(w)
    d = basis.d
    if w.size < d:
        raise InvalidWeightError(f"weight prefix {w.size} shorter than basis size {d}")
    if m_max is None:
        m_max = min(d, 12)
    m_max = min(int(m_max), d)

    tracker = RatioTracker()
    candidates: list[np.ndarray] = []
    for j in range(basis.dim):
        e = np.zeros(basis.dim)
        e[j] = 1.0
        candidates.append(e)
    candidates.append(synthesize(basis, np.ones(d)))
    for k in range(1, d + 1):
        for s in structured_subsets(d, k):
            coeffs = np.zeros(d)
            coeffs[s] = 1.0
            candidates.append(synthesize(basis, coeffs))
    candidates.extend(synthesize(basis, coeffs)
                      for coeffs in coefficient_samples(d, budget, seed, EMBED_SPACE_SAMPLES))

    for f in candidates:
        nf = ambient_gauge(basis.space, f)
        if nf <= 0:
            continue
        val = lorentz_gauge(coefficient_transform(basis, f), math.inf, w)
        tracker.update(val / nf, {"f": f.tolist()})

    upper, certified, note = math.inf, False, ""
    if basis.is_diagonal():
        s = primitive_weight(w[:d])
        n = np.arange(1, d + 1, dtype=float)
        if math.isinf(space.p):
            upper = float(np.max(s))
        else:
            # a_n* <= (||f||_p^p / n)^(1/p), with equality on flat vectors
            upper = float(np.max(s / n ** (1.0 / space.p)))
        certified = True
        note = "rearrangement bound for the identity system"

    mode = _democracy_mode(basis)
    s_full = primitive_weight(w[:d])
    table = []
    for m in range(1, m_max + 1):
        phi = lower_democracy(basis, m, mode=mode, budget=max(200, budget // 4), seed=seed)
        phi_val = phi.upper  # measured inf (exact when mode='exact')
        s_m = float(s_full[m - 1])
        table.append(CompanionRow(m=m, s_m=s_m, phi=phi_val,
                                  ratio=s_m / phi_val if phi_val > 0 else math.inf))
    return EmbeddingReport(
        direction="space_into_weak_lorentz",
        constant=BoundEstimate(min(tracker.best, upper), upper, tracker.witness,
                               upper_certified=certified, heuristic=True, note=note),
        q=None,
        weight=w,
        phi_label="phi_l",
        table=table,
        meta={"democracy_mode": mode},
    )


def embed_lorentz_into_space(basis: Basis, q, w, budget: int = 800, seed: int = 0,
                             m_max: int | None = None) -> EmbeddingReport:
    """Lower bound for sup_g ||sum_n g_n x_n|| / ||g||_{q,w}, plus the
    companion table of phi_u(m) against s_m."""
    space = _require_lp(basis)
    w = check_weight(w)
    d = basis.d
    if w.size < d:
        raise InvalidWeightError(f"weight prefix {w.size} shorter than basis size {d}")
    if m_max is None:
        m_max = min(d, 12)
    m_max = min(int(m_max), d)

    tracker = RatioTracker()
    candidates: list[np.ndarray] = [np.ones(d)]
    candidates.extend(np.eye(d))
    for k in range(1, d + 1):
        for s in structured_subsets(d, k):
            g = np.zeros(d)
            g[s] = 1.0
            candidates.append(g)
    candidates.extend(coefficient_samples(d, budget, seed, EMBED_LORENTZ_SAMPLES))

    for g in candidates:
        den = lorentz_gauge(g, q, w)
        if den <= 0:
            continue
        num = ambient_gauge(basis.space, synthesize(basis, g))
        tracker.update(num / den, {"g": g.tolist()})

    upper, certified, note = math.inf, False, ""
    if basis.is_diagonal() and not math.isinf(space.p) and float(q) == space.p:
        s = primitive_weight(w[:d])
        terms = s ** (space.p - 1.0) * w[:d]
        upper = float(np.max(terms ** (-1.0 / space.p)))
        certified = True
        note = "termwise comparison at q = p for the identity system"

    mode = _democracy_mode(basis)
    s_full = primitive_weight(w[:d])
    table = []
    for m in range(1, m_max + 1):
        phi = upper_democracy(basis, m, mode=mode, budget=max(200, budget // 4), seed=seed)
        phi_val = phi.lower
        s_m = float(s_full[m - 1])
        table.append(CompanionRow(m=m, s_m=s_m, phi=phi_val,
                                  ratio=phi_val / s_m if s_m > 0 else math.inf))
    return EmbeddingReport(
        direction="lorentz_into_space",
        constant=BoundEstimate(min(tracker.best, upper), upper, tracker.witness,
                               upper_certified=certified, heuristic=True, note=note),
        q=float(q),
        weight=w,
        phi_label="phi_u",
        table=table,
        meta={"democracy_mode": mode},
    )
