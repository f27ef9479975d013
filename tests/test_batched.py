"""The batched candidate loops against the one-candidate-at-a-time loops they
replaced.

Each oracle below is the earlier scalar loop body, scoring every vector with
the public scalar gauge.  The batched code runs with the row cap lowered, so
every search spans several capped blocks.  Values must agree to a relative
1e-12, and every reported witness must replay through the public API.
"""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import qgreedy
import qgreedy.democracy as democracy_module
import qgreedy.spaces as spaces_module
from qgreedy.bases import (
    Basis,
    _sign_flip_pass,
    coefficient_transform,
    sign_operator,
    synthesize,
    unconditional_constant,
    zoo,
)
from qgreedy.cli import main
from qgreedy.democracy import _block_spread_sets, _random_profile_rows, _swap_refine, indicator_gauge
from qgreedy.estimates import MinTracker, RatioTracker
from qgreedy.greedy import (
    ConditionalityRow,
    _forward_selection,
    conditionality_growth_profile,
    quasi_greedy_constant,
    truncation_constant,
)
from qgreedy.lorentz import power_weight
from qgreedy.rng import CONDITIONALITY_SEARCH, DEMOCRACY_SETS, QG_SEARCH, TRUNCATION_SEARCH, substream
from qgreedy.sampling import (
    COEFF_KINDS,
    coefficient_sample,
    plateau_coefficients,
    random_subset,
    structured_subsets,
)
from qgreedy.spaces import BlockLpL2, Lp, LorentzSpace, ambient_gauge, ambient_gauge_rows

REL = 1e-12
SMALL_CAP = 13  # two candidates per block at d = 6, with prefixes or index scans
KINDS = ("lp", "block", "lorentz")


@pytest.fixture
def small_cap(monkeypatch):
    monkeypatch.setattr(spaces_module, "_ROW_CAP", SMALL_CAP)


def random_basis(kind: str, seed: int, d: int = 6) -> Basis:
    rng = np.random.default_rng(seed)
    vectors = np.eye(d) + (0.5 / d) * rng.standard_normal((d, d))
    space = {"lp": Lp(0.5, d), "block": BlockLpL2(0.5, (2, 3, 1)),
             "lorentz": LorentzSpace(0.5, power_weight(2.0, d))}[kind]
    return Basis(space, vectors, np.linalg.inv(vectors).T)


def sample_coefficients(d: int, count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [coefficient_sample(rng, d, COEFF_KINDS[i % len(COEFF_KINDS)]) for i in range(count)]


def gauge(basis, f) -> float:
    return ambient_gauge(basis.space, f)


# ---------------------------------------------------------------------------
# forward selection and the conditionality profile
# ---------------------------------------------------------------------------


def forward_selection_oracle(basis, coeffs, f_gauge, max_m, rows, coeff_list):
    scaled = coeffs[:, None] * basis.vectors
    chosen = []
    running = np.zeros(basis.dim)
    available = set(range(basis.d))
    for m in range(1, max_m + 1):
        best_val, best_n = -math.inf, None
        for n in available:
            val = ambient_gauge(basis.space, running + scaled[n])
            if val > best_val:
                best_val, best_n = val, n
        if best_n is None:
            break
        running = running + scaled[best_n]
        chosen.append(int(best_n))
        available.discard(best_n)
        ratio = best_val / f_gauge
        row = rows[m - 1]
        if ratio > row.lower:
            row.lower = ratio
            row.witness = {"coeffs": coeff_list, "set": sorted(chosen)}


def fresh_rows(max_m):
    return [ConditionalityRow(m=m, lower=0.0, upper=math.inf, upper_certified=False,
                              log_normalized=0.0, witness=None) for m in range(1, max_m + 1)]


def replay_projection(basis, witness) -> float:
    coeffs = np.array(witness["coeffs"])
    idx = witness["set"]
    return gauge(basis, coeffs[idx] @ basis.vectors[idx]) / gauge(basis, coeffs @ basis.vectors)


@pytest.mark.parametrize("kind", KINDS)
def test_forward_selection_matches_scalar_loop(kind, small_cap):
    basis = random_basis(kind, seed=11)
    d = basis.d
    candidates = sample_coefficients(d, 25, seed=4) + [np.zeros(d)]
    expected, got = fresh_rows(d), fresh_rows(d)
    for coeffs in candidates:
        f = coeffs @ basis.vectors
        nf = gauge(basis, f)
        if nf > 0:
            forward_selection_oracle(basis, coeffs, nf, d, expected, [float(c) for c in coeffs])
    for chunk in spaces_module._row_chunks(candidates, basis.dim, d):
        assert len(chunk) <= max(1, SMALL_CAP // d)
        coeffs = np.array(chunk)
        nf = ambient_gauge_rows(basis.space, coeffs @ basis.vectors)
        _forward_selection(basis, coeffs[nf > 0], nf[nf > 0], d, got)
    for want, row in zip(expected, got):
        assert row.lower == pytest.approx(want.lower, rel=REL)
        assert len(row.witness["set"]) == row.m
        assert replay_projection(basis, row.witness) == pytest.approx(row.lower, rel=REL)


def conditionality_oracle(basis, max_m, budget, seed):
    d = basis.d
    rows = fresh_rows(max_m)
    candidates = list(np.eye(d))
    candidates.append(np.ones(d))
    for i in range(budget):
        rng = substream(seed, CONDITIONALITY_SEARCH, i)
        candidates.append(coefficient_sample(rng, d, COEFF_KINDS[i % len(COEFF_KINDS)]))
    for coeffs in candidates:
        nf = ambient_gauge(basis.space, coeffs @ basis.vectors)
        if nf > 0:
            forward_selection_oracle(basis, coeffs, nf, max_m, rows, [float(c) for c in coeffs])
    for j in range(basis.dim):
        e = np.zeros(basis.dim)
        e[j] = 1.0
        coeffs = coefficient_transform(basis, e)
        forward_selection_oracle(basis, coeffs, ambient_gauge(basis.space, e), max_m, rows,
                                 [float(c) for c in coeffs])
    return rows


@pytest.mark.parametrize("seed", [0, 3])
def test_conditionality_profile_matches_scalar_loop(seed, small_cap):
    basis = random_basis("lp", seed=seed, d=7)
    expected = conditionality_oracle(basis, 5, budget=30, seed=seed)
    got = conditionality_growth_profile(basis, max_m=5, budget=30, seed=seed)
    for want, row in zip(expected, got):
        assert row.lower == pytest.approx(min(max(want.lower, 1.0), row.upper), rel=REL)
        if want.lower > 1.0 and row.lower < row.upper:
            # the witness keeps coefficients only; for an ambient unit vector e_j
            # their synthesis is e_j up to rounding, which the p = 1/2 gauge
            # magnifies, so the numerator is replayed against both inputs
            coeffs = np.array(row.witness["coeffs"])
            idx = row.witness["set"]
            numerator = gauge(basis, coeffs[idx] @ basis.vectors[idx])
            inputs = [coeffs @ basis.vectors]
            inputs += [e for e in np.eye(basis.dim) if np.allclose(coefficient_transform(basis, e), coeffs)]
            assert any(numerator / gauge(basis, f) == pytest.approx(row.lower, rel=REL)
                       for f in inputs)


# ---------------------------------------------------------------------------
# quasi-greedy and truncation constants
# ---------------------------------------------------------------------------


def operator_oracle(basis, budget, seed, stream, truncate):
    d = basis.d

    def gauges_over_m(coeffs):
        order = np.lexsort((np.arange(d), -np.abs(coeffs)))
        sorted_coeffs = coeffs[order]
        if truncate:
            signs = np.where(sorted_coeffs < 0, -1.0, 1.0)
            prefixes = np.cumsum(signs[:, None] * basis.vectors[order], axis=0)
            prefixes = np.abs(sorted_coeffs)[:, None] * prefixes
        else:
            prefixes = np.cumsum(sorted_coeffs[:, None] * basis.vectors[order], axis=0)
        return np.array([ambient_gauge(basis.space, row) for row in prefixes])

    tracker = RatioTracker()
    flat = np.ones(d)
    nf = ambient_gauge(basis.space, flat @ basis.vectors)
    gauges = gauges_over_m(flat)
    m0 = int(np.argmax(gauges)) + 1
    tracker.update(float(gauges[m0 - 1]) / nf, {"coeffs": flat.tolist(), "m": m0})
    candidates = list(np.eye(d))
    alt = np.ones(d)
    alt[1::2] = -1.0
    candidates.append(alt)
    for delta in (1e-3, 1e-6, 1e-9):
        for start in (0, 1):
            candidates.append(plateau_coefficients(d, np.arange(start, d, 2), delta))
    for i in range(budget):
        rng = substream(seed, stream, i)
        candidates.append(coefficient_sample(rng, d, COEFF_KINDS[i % len(COEFF_KINDS)]))
    for coeffs in candidates:
        nf = ambient_gauge(basis.space, coeffs @ basis.vectors)
        if nf <= 0:
            continue
        gauges = gauges_over_m(coeffs)
        m = int(np.argmax(gauges)) + 1
        tracker.update(float(gauges[m - 1]) / nf, {"coeffs": coeffs.tolist(), "m": m})
    return tracker


def replay_operator(basis, witness, truncate) -> float:
    coeffs = np.array(witness["coeffs"])
    idx = np.lexsort((np.arange(basis.d), -np.abs(coeffs)))[: witness["m"]]
    if truncate:
        level = np.min(np.abs(coeffs[idx]))
        out = level * (np.where(coeffs[idx] < 0, -1.0, 1.0) @ basis.vectors[idx])
    else:
        out = coeffs[idx] @ basis.vectors[idx]
    return gauge(basis, out) / gauge(basis, coeffs @ basis.vectors)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("truncate", [False, True])
def test_operator_constant_matches_scalar_loop(kind, truncate, small_cap):
    basis = random_basis(kind, seed=5)
    stream = TRUNCATION_SEARCH if truncate else QG_SEARCH
    expected = operator_oracle(basis, budget=40, seed=2, stream=stream, truncate=truncate)
    estimator = truncation_constant if truncate else quasi_greedy_constant
    est = estimator(basis, budget=40, seed=2)
    assert est.lower == pytest.approx(expected.best, rel=REL)
    assert replay_operator(basis, est.witness, truncate) == pytest.approx(est.lower, rel=REL)


# ---------------------------------------------------------------------------
# unconditional constant: the sign-flip scoring pass
# ---------------------------------------------------------------------------


def sign_flip_oracle(basis, sampled):
    tracker = RatioTracker()
    scored = []
    for f in sampled:
        nf = ambient_gauge(basis.space, f)
        if nf <= 0:
            continue
        coeffs = coefficient_transform(basis, f)
        gamma = np.where(coeffs < 0, -1.0, 1.0)
        gamma[1::2] *= -1.0
        val = ambient_gauge(basis.space, (gamma * coeffs) @ basis.vectors)
        tracker.update(val / nf, {"f": f.tolist(), "gamma": gamma.tolist()})
        scored.append((val / nf, f))
    return tracker, scored


def replay_multiplier(basis, witness) -> float:
    f = np.array(witness["f"])
    return gauge(basis, sign_operator(basis, np.array(witness["gamma"]), f)) / gauge(basis, f)


@pytest.mark.parametrize("kind", KINDS)
def test_sign_flip_pass_matches_scalar_loop(kind, small_cap):
    basis = random_basis(kind, seed=8)
    sampled = [synthesize(basis, c) for c in sample_coefficients(basis.d, 40, seed=6)]
    sampled.insert(7, np.zeros(basis.dim))
    sampled.insert(20, sampled[3].copy())  # an exact tie: the earlier one ranks first
    expected, scored = sign_flip_oracle(basis, sampled)
    scored.sort(key=lambda item: -item[0])
    tracker = RatioTracker()
    top = _sign_flip_pass(basis, iter(sampled), tracker)
    assert len(top) == 8
    for f, (_, want) in zip(top, scored):
        assert f is want
    assert tracker.best == pytest.approx(expected.best, rel=REL)
    assert replay_multiplier(basis, tracker.witness) == pytest.approx(tracker.best, rel=REL)


@pytest.mark.parametrize("kind", KINDS)
def test_unconditional_witness_replays(kind, small_cap):
    basis = random_basis(kind, seed=9)
    est = unconditional_constant(basis, mode="random", budget=40, seed=1)
    assert est.lower >= 1.0
    assert replay_multiplier(basis, est.witness) == pytest.approx(est.lower, rel=REL)


# ---------------------------------------------------------------------------
# random democracy profile: the set feed and the swap refinement
# ---------------------------------------------------------------------------


def profile_feed_oracle(basis, m_max, budget, seed):
    d = basis.d
    up = [RatioTracker() for _ in range(m_max)]
    down = [MinTracker() for _ in range(m_max)]

    def feed(s):
        size = len(s)
        value = indicator_gauge(basis, s)
        witness = {"set": [int(i) for i in s]}
        for m in range(size, m_max + 1):
            up[m - 1].update(value, witness)
        for m in range(1, min(size, m_max) + 1):
            down[m - 1].update(value, witness)

    for k in range(1, d + 1):
        for s in structured_subsets(d, k):
            feed(s)
    for s in _block_spread_sets(basis):
        feed(s)
    for i in range(budget):
        rng = substream(seed, DEMOCRACY_SETS, i)
        size = int(rng.integers(1, d + 1))
        feed(random_subset(rng, d, size))
    return up, down


@pytest.mark.parametrize("kind", KINDS)
def test_profile_feed_matches_scalar_loop(kind, small_cap, monkeypatch):
    basis = random_basis(kind, seed=12)
    expected_up, expected_down = profile_feed_oracle(basis, 5, budget=40, seed=3)
    # leave the feed's witnesses as they are
    monkeypatch.setattr(democracy_module, "_swap_refine",
                        lambda basis, s, maximize: (list(s), -math.inf if maximize else math.inf))
    rows = _random_profile_rows(basis, 5, budget=40, seed=3)
    for row, up, down in zip(rows, expected_up, expected_down):
        assert row.phi_u.lower == pytest.approx(min(up.best, row.phi_u.upper), rel=REL)
        assert row.phi_l.upper == pytest.approx(down.best, rel=REL)
        assert len(row.phi_u.witness["set"]) <= row.m <= len(row.phi_l.witness["set"])
        assert indicator_gauge(basis, row.phi_u.witness["set"]) == pytest.approx(up.best, rel=REL)
        assert indicator_gauge(basis, row.phi_l.witness["set"]) == pytest.approx(down.best, rel=REL)


def swap_refine_oracle(basis, s, maximize, passes=2):
    """The scalar hill climb, moving on to the next member after each swap."""
    current = {int(i) for i in s}
    best = indicator_gauge(basis, sorted(current))
    for _ in range(passes):
        improved = False
        for out in sorted(current):
            for into in range(basis.d):
                if into in current:
                    continue
                trial = sorted(current - {out} | {into})
                val = indicator_gauge(basis, trial)
                if (val > best * (1 + 1e-12)) if maximize else (val < best * (1 - 1e-12)):
                    current = set(trial)
                    best = val
                    improved = True
                    break
        if not improved:
            break
    return sorted(current), best


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("maximize", [False, True])
def test_swap_refine_matches_scalar_loop(kind, maximize):
    basis = random_basis(kind, seed=2)
    rng = np.random.default_rng(1)
    for size in (1, 2, 3, 5, 6):
        start = sorted(rng.choice(basis.d, size=size, replace=False).tolist())
        expected, value = swap_refine_oracle(basis, start, maximize)
        got, best = _swap_refine(basis, start, maximize)
        assert got == expected
        assert best == pytest.approx(value, rel=REL)
        assert indicator_gauge(basis, got) == pytest.approx(best, rel=REL)


def test_swap_refine_keeps_the_set_size():
    # swapping on after an accepted swap used to grow {0, 5} to six indices
    basis = zoo("difference", p=0.5, dim=12)
    for start in ([0, 5], [0, 5, 7], [0, 5, 7, 9]):
        refined, value = _swap_refine(basis, start, maximize=True)
        assert len(refined) == len(start)
        assert value >= indicator_gauge(basis, start)
        assert indicator_gauge(basis, refined) == pytest.approx(value, rel=REL)


def test_random_profile_witness_sizes():
    basis = zoo("perturbed_unit", p=0.5, dim=12, seed=1)
    profile_rows = _random_profile_rows(basis, 12, budget=200, seed=1)
    for row in profile_rows:
        assert len(row.phi_u.witness["set"]) <= row.m <= len(row.phi_l.witness["set"])


# ---------------------------------------------------------------------------
# the row cap
# ---------------------------------------------------------------------------


def test_analyze_respects_row_cap(monkeypatch, capsys):
    """No rows call of an analyze run exceeds the cap, which bounds its memory."""
    sizes = []
    real = spaces_module.ambient_gauge_rows

    def counting(space, mat):
        sizes.append(len(mat))
        return real(space, mat)

    for info in pkgutil.iter_modules(qgreedy.__path__):
        module = importlib.import_module(f"qgreedy.{info.name}")
        if getattr(module, "ambient_gauge_rows", None) is real:
            monkeypatch.setattr(module, "ambient_gauge_rows", counting)
    # a budget above the cap, so every budget-sized pass must split
    budget = spaces_module._ROW_CAP + 100
    assert main(["analyze", "--zoo", "difference", "--p", "0.5", "--dim", "32",
                 "--budget", str(budget), "--format", "json"]) == 0
    capsys.readouterr()
    assert sizes and max(sizes) <= spaces_module._ROW_CAP


def test_row_chunks_bound_rows_and_floats():
    for width, per_item in ((4, 1), (8, 8), (24, 1), (32, 32), (5000, 1)):
        chunks = list(spaces_module._row_chunks(range(3000), width, per_item))
        assert [i for chunk in chunks for i in chunk] == list(range(3000))
        for chunk in chunks:
            rows = len(chunk) * per_item
            assert rows <= spaces_module._ROW_CAP
            assert rows * width <= max(spaces_module._BLOCK_FLOATS, width * per_item)
