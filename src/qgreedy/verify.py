"""Named verification suites run by the CLI and the test battery.

Each suite returns a list of named checks.  Every check either holds by a
proved inequality or pins a frozen closed form, so a failure indicates an
implementation bug rather than statistical noise.  A suite's parameters are
exactly the flags ``qgreedy verify SUITE`` takes.  Each suite imports the
modules it checks when it runs, so a command loads only its own suite's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .numerics import RunningTotal, compensated_cumsum
from .rng import (
    LEMMA32_VECTORS,
    LEMMA33_SIZES,
    SAMPLE_BLOCK,
    VERIFY_VECTORS,
    block_samples,
    substream,
)
from .spaces import _row_chunks

__all__ = ["CheckResult", "SUITES", "SUITE_MINIMA", "run_suite"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    witness: dict[str, Any] | None = field(default=None)


def _lemma32_vectors(dim: int, trials: int, seed: int):
    """Gaussian vectors, each scaled by 10^k with k uniform in -3..3."""
    def draw(rng, start):
        scales = 10.0 ** rng.integers(-3, 4, size=(SAMPLE_BLOCK, 1))
        return rng.standard_normal((SAMPLE_BLOCK, dim)) * scales

    return block_samples(draw, trials, seed, LEMMA32_VECTORS)


def suite_lemma32(p: float | None = None, trials: int = 10_000, seed: int = 0,
                  dim: int = 16) -> list[CheckResult]:
    """l1-vs-max domination with A(eps) = eps^(-p/(1-p)): zero violations.
    Vectors are drawn once and checked in blocks; a witness is the last violation."""
    from .strongly_absolute import strongly_absolute_rows

    p_values = (p,) if p is not None else (0.3, 0.5, 0.7)
    eps_values = (0.1, 1.0, 10.0)
    violations = [0] * len(p_values)
    witness: list[dict[str, Any] | None] = [None] * len(p_values)
    for chunk in _row_chunks(_lemma32_vectors(dim, trials, seed), dim):
        f = np.array(chunk)
        lhs, rhs, holds = strongly_absolute_rows(f, p_values, eps_values)
        for k, pv in enumerate(p_values):
            bad = np.flatnonzero(~holds[k])
            violations[k] += bad.size
            if bad.size:
                i, e = divmod(int(bad[-1]), len(eps_values))
                witness[k] = {"f": f[i].tolist(), "p": pv, "eps": eps_values[e],
                              "lhs": float(lhs[i]), "rhs": float(rhs[k, i, e])}
    return [CheckResult(
        name=f"coefficient-sum domination, p={pv} ({trials} vectors x {len(eps_values)} eps)",
        passed=violations[k] == 0,
        detail=f"{violations[k]} violations",
        witness=witness[k],
    ) for k, pv in enumerate(p_values)]


def suite_lemma33(trials: int = 1000, seed: int = 0, dim: int = 8, p: float = 0.5,
                  C: float = 2.0) -> list[CheckResult]:
    """Family-size counting inequality on random normalized families.  Family i
    is ``random_pair_family(dim, size_i, p, seed * 1_000_003 + i)``; the
    families of a block are checked one size at a time, and a witness is the
    last violation."""
    from .strongly_absolute import _counting_rows, _pair_family_arrays

    violations = 0
    witness = None
    last = -1
    sizes = block_samples(lambda rng, start: rng.integers(1, dim + 1, size=SAMPLE_BLOCK),
                          trials, seed, LEMMA33_SIZES)
    for chunk in _row_chunks(enumerate(sizes), dim, dim):
        by_size: dict[int, list[int]] = {}
        for i, size in chunk:
            by_size.setdefault(int(size), []).append(i)
        for size, members in by_size.items():
            drawn = [_pair_family_arrays(dim, size, p, seed * 1_000_003 + i) for i in members]
            vectors, duals = (np.stack(part) for part in zip(*drawn))
            *_, bound, holds = _counting_rows(vectors, duals, p, C)
            bad = np.flatnonzero(~holds)
            violations += bad.size
            if bad.size and members[bad[-1]] > last:
                last, f = members[bad[-1]], bad[-1]
                witness = {"size": size, "bound": float(bound[f]),
                           "vectors": vectors[f].tolist(), "duals": duals[f].tolist()}
    return [CheckResult(
        name=f"family-size counting inequality ({trials} families, d<={dim}, p={p}, C={C})",
        passed=violations == 0,
        detail=f"{violations} violations",
        witness=witness,
    )]


def suite_lemma34(seed: int = 0, trials: int = 100_000, max_m: int = 12,
                  p: float = 0.5) -> list[CheckResult]:
    """Sign-average square function: disjoint exactness and exact-vs-MC."""
    from .strongly_absolute import khintchine_square_function

    results = []
    worst = 0.0
    for m in range(1, max_m + 1):
        cmp_exact = khintchine_square_function(np.eye(m), p, mode="exact")
        worst = max(worst, abs(cmp_exact.lhs - m), abs(cmp_exact.rhs - m))
    results.append(CheckResult(
        name=f"disjoint unit vectors give equality lhs = rhs = m (m <= {max_m})",
        passed=worst <= 1e-9,
        detail=f"worst deviation {worst:.3e}",
    ))

    rng = substream(seed, VERIFY_VECTORS, 10**6)
    size = min(max_m, 12)
    vectors = rng.standard_normal((size, 16))
    exact = khintchine_square_function(vectors, p, mode="exact")
    mc = khintchine_square_function(vectors, p, mode="mc", samples=trials, seed=seed)
    gap = abs(exact.lhs - mc.lhs)
    # the rounding floor covers a zero stderr: one vector has one gauge for every sign
    results.append(CheckResult(
        name=f"exact sign average vs Monte Carlo ({trials} samples) within 3 standard errors",
        passed=gap <= 3.0 * mc.stderr + 1e-12 * exact.lhs,
        detail=f"gap {gap:.3e} vs 3*stderr {3.0 * mc.stderr:.3e}",
    ))
    return results


def suite_bootstrap(max_m: int = 1_000_000, seed: int = 0) -> list[CheckResult]:
    """Closed forms of the first two stages and convergence of the third.
    The chain is deterministic; ``seed`` is taken so every suite takes one.
    The chain and the harmonic numbers stream in blocks; each check keeps
    its worst value per block, and the ratio's steps carry across blocks."""
    from .bootstrap import _stage_blocks

    harmonic = RunningTotal()
    err1, err2, increments = [], [], []
    last = np.empty(0)  # the previous block's last ratio
    for m, stages in _stage_blocks(max_m, 3):
        err1.append(np.max(np.abs(stages[1] / np.sqrt(m) - 1.0)))
        h = compensated_cumsum(1.0 / m, harmonic)
        err2.append(np.max(np.abs(stages[2] / (m / np.sqrt(h)) - 1.0)))
        ratio = stages[3] / m
        steps = np.diff(ratio, prepend=last)
        if steps.size:  # one term does not increase
            increments.append(steps.max())
        last = ratio[-1:]
    results = []
    err1 = float(np.max(err1))
    results.append(CheckResult(
        name="first stage equals sqrt(m) (rel. 1e-12)",
        passed=err1 <= 1e-12, detail=f"max rel err {err1:.3e}"))
    err2 = float(np.max(err2))
    results.append(CheckResult(
        name="second stage equals m / sqrt(H_m) (rel. 1e-12)",
        passed=err2 <= 1e-12, detail=f"max rel err {err2:.3e}"))
    nonmono = float(np.max(increments)) if increments else 0.0
    results.append(CheckResult(
        name="third-stage ratio is non-increasing",
        passed=nonmono <= 1e-15, detail=f"max increment {nonmono:.3e}"))
    return results


def suite_democracy_lp(p: float = 0.5, dim: int = 12, max_m: int | None = None,
                       seed: int = 0) -> list[CheckResult]:
    """Identity system democracy: phi values m^(1/p) exactly, slopes 1/p."""
    from .bases import zoo
    from .democracy import democracy_profile

    basis = zoo("unit", p=p, dim=dim)
    profile = democracy_profile(basis, m_max=max_m, mode="exact", seed=seed)
    expected = np.array([m ** (1.0 / p) for m in profile.m_values], dtype=float)
    got_u = np.array([r.phi_u_value for r in profile.rows])
    got_l = np.array([r.phi_l_value for r in profile.rows])
    err = float(max(np.max(np.abs(got_u - expected)), np.max(np.abs(got_l - expected))))
    results = [CheckResult(
        name=f"identity system: phi_u(m) = phi_l(m) = m^(1/p) for m <= {profile.rows[-1].m}",
        passed=err <= 1e-9, detail=f"max abs err {err:.3e}")]
    slope_err = max(abs(profile.slope_u - 1.0 / p), abs(profile.slope_l - 1.0 / p))
    results.append(CheckResult(
        name=f"log-log slopes equal 1/p = {1.0 / p:g} within 0.01",
        passed=slope_err <= 0.01,
        detail=f"slope_u={profile.slope_u:.4f}, slope_l={profile.slope_l:.4f}"))
    results.append(CheckResult(
        name="verdict is democratic",
        passed=profile.democratic, detail=profile.verdict))
    return results


def suite_succ(p: float = 0.5, dim: int = 8, seed: int = 0,
               budget: int = 300) -> list[CheckResult]:
    """Sign constants of the identity and the difference system.
    The nested-set and same-set constants are exactly 1 for the identity
    system; the difference system has the adjacent-pair witness."""
    from .bases import zoo
    from .democracy import sign_change_constant, succ_constant

    unit = zoo("unit", p=p, dim=dim)
    succ_u = succ_constant(unit, budget=budget, seed=seed)
    change_u = sign_change_constant(unit, budget=budget, seed=seed)
    results = [
        CheckResult(
            name="identity system: nested-set sign constant equals 1",
            passed=abs(succ_u.lower - 1.0) <= 1e-9,
            detail=f"lower bound {succ_u.lower!r}"),
        CheckResult(
            name="identity system: same-set sign constant equals 1",
            passed=abs(change_u.lower - 1.0) <= 1e-9,
            detail=f"lower bound {change_u.lower!r}"),
    ]
    diff = zoo("difference", p=p, dim=dim)
    succ_d = succ_constant(diff, budget=budget, seed=seed)
    expected = 2.0 ** (1.0 / p) / 1.0  # adjacent pair: two boundary points vs one
    results.append(CheckResult(
        name=f"difference system: adjacent-pair witness gives >= {expected:g}",
        passed=succ_d.lower >= expected - 1e-9,
        detail=f"lower bound {succ_d.lower!r}",
        witness=succ_d.witness))
    return results


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "lemma32": suite_lemma32,
    "lemma33": suite_lemma33,
    "lemma34": suite_lemma34,
    "bootstrap": suite_bootstrap,
    "democracy-lp": suite_democracy_lp,
    "succ": suite_succ,
}


# (suite, parameter) -> the smallest value the suite's checks apply to, where it exceeds 1
SUITE_MINIMA: dict[tuple[str, str], int] = {
    ("succ", "dim"): 2,  # the adjacent-pair witness needs two vectors
    # slopes are fitted over m in [max(2, m_max // 4), m_max], m_max = min(max_m, dim)
    ("democracy-lp", "dim"): 3,
    ("democracy-lp", "max_m"): 3,
}


def run_suite(name: str, **kwargs: Any) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
