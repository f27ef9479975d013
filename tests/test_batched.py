"""The batched candidate loops against the one-candidate-at-a-time loops they
replaced.

Each oracle below is the earlier scalar loop body, scoring every vector with
the public scalar gauge.  The batched code runs with the row cap lowered, so
every search spans several capped blocks.  Values must agree to a relative
1e-12, and every reported witness must replay, through the public API or
through ``perfbench/check.py``, which shares no code with the program.
"""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import qgreedy
import qgreedy.democracy as democracy_module
import qgreedy.spaces as spaces_module
import qgreedy.strongly_absolute as strongly_absolute_module
from conftest import check
from qgreedy.bases import (
    Basis,
    _canonical_test_vectors,
    _descend_pool,
    _difference_matrices,
    _sampled_vectors,
    _sign_flip_pass,
    candidate_blocks,
    coefficient_transform,
    synthesize,
    unconditional_constant,
    zoo,
)
from qgreedy import rng as rng_module
from qgreedy.cli import main
from qgreedy.democracy import (
    _SIGN_ENUM_CAP,
    _block_spread_sets,
    _profile_rows,
    _random_sets,
    _succ_pairs,
    _sign_gauges,
    _swap_refine,
    indicator_gauge,
    sign_change_constant,
    succ_constant,
    super_democracy_constant,
)
from qgreedy.embeddings import embed_lorentz_into_space, embed_space_into_weak_lorentz
from qgreedy.estimates import BoundEstimate, Tracker
from qgreedy.greedy import (
    ConditionalityRow,
    _forward_selection,
    conditionality_growth_profile,
    quasi_greedy_constant,
    truncation_constant,
)
from qgreedy.lorentz import lorentz_gauge, power_weight
from qgreedy.numerics import _SIGNS, sign_patterns
from qgreedy.rng import (
    CONDITIONALITY_SAMPLES,
    EMBED_LORENTZ_SAMPLES,
    EMBED_SPACE_SAMPLES,
    PROFILE_SETS,
    QG_SAMPLES,
    SIGN_CHANGE,
    SIGN_CHANGE_SETS,
    SUCC_PAIRS,
    SUPER_DEMOCRACY,
    SUPER_DEMOCRACY_SETS,
    TRUNCATION_SAMPLES,
    substream,
)
from qgreedy.sampling import (
    coefficient_block,
    coefficient_samples,
    plateau_coefficients,
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
    return list(coefficient_block(np.random.default_rng(seed), d, 0)[:count])


def gauge(basis, f) -> float:
    return ambient_gauge(basis.space, f)


def replay(kind: str, basis: Basis, witness) -> float:
    """The ratio ``witness`` certifies, recomputed by the checker's own gauges."""
    space = basis.space
    if isinstance(space, BlockLpL2):
        copy = check.CheckBasis("block", basis.vectors, basis.duals, p=space.p,
                                blocks=space.blocks)
    elif isinstance(space, LorentzSpace):
        copy = check.CheckBasis("lorentz", basis.vectors, basis.duals, p=space.q,
                                weight=space.weight)
    else:
        copy = check.CheckBasis("lp", basis.vectors, basis.duals, p=space.p)
    return check.replay(kind, witness, copy)


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


@pytest.mark.parametrize("kind", KINDS)
def test_forward_selection_matches_scalar_loop(kind, small_cap):
    basis = random_basis(kind, seed=11)
    d = basis.d
    candidates = sample_coefficients(d, 25, seed=4) + [np.zeros(d)]
    expected, got = fresh_rows(d), [Tracker() for _ in range(d)]
    for coeffs in candidates:
        f = coeffs @ basis.vectors
        nf = gauge(basis, f)
        if nf > 0:
            forward_selection_oracle(basis, coeffs, nf, d, expected, [float(c) for c in coeffs])
    for chunk in spaces_module._row_chunks(candidates, basis.dim, d):
        assert len(chunk) <= max(1, SMALL_CAP // d)
        coeffs = np.array(chunk)
        nf = ambient_gauge_rows(basis.space, coeffs @ basis.vectors)
        _forward_selection(basis, coeffs[nf > 0], nf[nf > 0], got)
    for want, tracker in zip(expected, got):
        assert tracker.best == pytest.approx(want.lower, rel=REL)
        assert len(tracker.witness["set"]) == want.m
        assert (replay("conditionality", basis, tracker.witness)
                == pytest.approx(tracker.best, rel=REL))


def conditionality_oracle(basis, max_m, budget, seed):
    d = basis.d
    rows = fresh_rows(max_m)
    candidates = list(np.eye(d))
    candidates.append(np.ones(d))
    candidates.extend(coefficient_samples(d, budget, seed, CONDITIONALITY_SAMPLES))
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
    # row m bounds the sup over |A| <= m: carry smaller sets forward
    for prev, row in zip(rows, rows[1:]):
        if prev.lower > row.lower:
            row.lower, row.witness = prev.lower, prev.witness
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


@pytest.mark.parametrize("basis,max_m,budget,seed,floor", [
    (zoo("difference", p=0.5, dim=16), None, 400, 0, {16: 256.0}),
    (random_basis("lp", seed=3, d=7), 5, 30, 3, {}),
], ids=["difference-16", "perturbed-lp-7"])
def test_conditionality_rows_do_not_fall(basis, max_m, budget, seed, floor):
    """Row m bounds the sup over |A| <= m, so a smaller set's witness holds
    for every larger m; on the difference system row 16 reaches (2 * 8)^2."""
    rows = conditionality_growth_profile(basis, max_m=max_m, budget=budget, seed=seed)
    lowers = [row.lower for row in rows]
    assert lowers == sorted(lowers)
    for row in rows:
        assert len(row.witness["set"]) <= row.m
        assert row.lower >= floor.get(row.m, 1.0)


def test_conditionality_unit_input_witness_replays_from_f():
    """A witness won by an ambient unit input e_j keeps e_j as ``f``, and
    S_A f / f replays the ratio; synthesizing f from the stored coefficients
    rounds, which the p = 1/2 gauge magnifies to a relative 3e-8."""
    basis = random_basis("lp", seed=3, d=7)
    rows = conditionality_growth_profile(basis, max_m=5, budget=30, seed=3)
    with_f = [row for row in rows if "f" in row.witness]
    assert with_f
    for row in with_f:
        f = np.array(row.witness["f"])
        assert sorted(np.abs(f).tolist()) == [0.0] * (basis.dim - 1) + [1.0]
        assert np.array_equal(np.array(row.witness["coeffs"]), basis.duals @ f)
        idx = row.witness["set"]
        replay = gauge(basis, (basis.duals[idx] @ f) @ basis.vectors[idx]) / gauge(basis, f)
        assert abs(replay / row.lower - 1.0) <= 1e-12


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

    tracker = Tracker()
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
    candidates.extend(coefficient_samples(d, budget, seed, stream))
    for coeffs in candidates:
        nf = ambient_gauge(basis.space, coeffs @ basis.vectors)
        if nf <= 0:
            continue
        gauges = gauges_over_m(coeffs)
        m = int(np.argmax(gauges)) + 1
        tracker.update(float(gauges[m - 1]) / nf, {"coeffs": coeffs.tolist(), "m": m})
    return tracker


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("truncate", [False, True])
def test_operator_constant_matches_scalar_loop(kind, truncate, small_cap):
    basis = random_basis(kind, seed=5)
    stream = TRUNCATION_SAMPLES if truncate else QG_SAMPLES
    expected = operator_oracle(basis, budget=40, seed=2, stream=stream, truncate=truncate)
    estimator = truncation_constant if truncate else quasi_greedy_constant
    est = estimator(basis, budget=40, seed=2)
    assert est.lower == pytest.approx(expected.best, rel=REL)
    kind = "truncation" if truncate else "quasi_greedy"
    assert replay(kind, basis, est.witness) == pytest.approx(est.lower, rel=REL)


# ---------------------------------------------------------------------------
# unconditional constant: the sign-flip scoring pass
# ---------------------------------------------------------------------------


def sign_flip_oracle(basis, sampled):
    tracker = Tracker()
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


@pytest.mark.parametrize("kind", KINDS)
def test_sign_flip_pass_matches_scalar_loop(kind, small_cap):
    basis = random_basis(kind, seed=8)
    sampled = [synthesize(basis, c) for c in sample_coefficients(basis.d, 40, seed=6)]
    sampled.insert(7, np.zeros(basis.dim))
    sampled.insert(20, sampled[3].copy())  # an exact tie: the earlier one ranks first
    expected, scored = sign_flip_oracle(basis, sampled)
    scored.sort(key=lambda item: -item[0])
    tracker = Tracker()
    top = _sign_flip_pass(basis, iter(sampled), tracker)
    assert len(top) == 8
    for f, (_, want) in zip(top, scored):
        assert f is want
    assert tracker.best == pytest.approx(expected.best, rel=REL)
    assert replay("unconditional", basis, tracker.witness) == pytest.approx(tracker.best, rel=REL)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p,d", [(0.001, 6), (0.001, 12), (0.002, 8)])
def test_sign_flip_survivors_do_not_depend_on_the_row_cap(p, d, monkeypatch):
    # at these exponents both gauges of many samples overflow: a NaN score
    # ranks after every number, the earlier first, in every block split
    basis = zoo("difference", p=p, dim=d)
    sampled = list(_sampled_vectors(basis, 300, 0))
    with np.errstate(invalid="ignore"):
        expected, scored = sign_flip_oracle(basis, sampled)
    assert any(math.isnan(score) for score, _ in scored)
    ranked = sorted(range(len(scored)), key=lambda i: (
        math.inf if math.isnan(scored[i][0]) else -scored[i][0], i))
    for floats in (1 << 15, 64, 8):
        monkeypatch.setattr(spaces_module, "_BLOCK_FLOATS", floats)
        tracker = Tracker()
        top = _sign_flip_pass(basis, iter(sampled), tracker)
        assert len(top) == 8
        for f, i in zip(top, ranked):
            assert f is scored[i][1]
        assert (tracker.best, tracker.witness) == (expected.best, expected.witness)


@pytest.mark.parametrize("kind", KINDS)
def test_unconditional_witness_replays(kind, small_cap):
    basis = random_basis(kind, seed=9)
    est = unconditional_constant(basis, mode="random", budget=40, seed=1)
    assert est.lower >= 1.0
    assert replay("unconditional", basis, est.witness) == pytest.approx(est.lower, rel=REL)


# ---------------------------------------------------------------------------
# unconditional constant: the pool-wide coordinate descent
# ---------------------------------------------------------------------------


def descent_oracle(basis, coeffs):
    """The one-vector coordinate descent, one gauge call per move: (gamma,
    value, passes run)."""
    gamma = np.ones(basis.d)
    scaled = coeffs[:, None] * basis.vectors
    current = gamma @ scaled
    best = float(ambient_gauge_rows(basis.space, current[None, :])[0])
    for passes in range(1, 5):
        improved = False
        for n in range(basis.d):
            for cand in (-1.0, 0.0, 1.0):
                if cand == gamma[n]:
                    continue
                trial = current + (cand - gamma[n]) * scaled[n]
                val = float(ambient_gauge_rows(basis.space, trial[None, :])[0])
                if val > best * (1 + 1e-12):
                    current, gamma[n], best, improved = trial, cand, val, True
        if not improved:
            break
    return gamma, best, passes


DESCENT_BASES = {
    "difference": lambda: zoo("difference", p=0.5, dim=10),
    "perturbed_unit": lambda: zoo("perturbed_unit", p=0.5, dim=9, seed=2),
    "block_l2": lambda: zoo("block_l2", p=0.5, blocks=(2, 3, 1)),
    "block_l2_perturbed": lambda: random_basis("block", seed=5),
    "lorentz": lambda: Basis(LorentzSpace(0.5, power_weight(2.0, 10)), *_difference_matrices(10)),
}


@pytest.mark.parametrize("name", sorted(DESCENT_BASES))
def test_pool_descent_matches_one_vector_loop(name):
    basis = DESCENT_BASES[name]()
    pool = _canonical_test_vectors(basis) + _sign_flip_pass(
        basis, _sampled_vectors(basis, 200, 1), Tracker())
    pool += [c @ basis.vectors for c in sample_coefficients(basis.d, 30, seed=4)]
    coeffs = np.array([basis.duals @ f for f in pool])
    gammas, values = _descend_pool(basis, coeffs)
    passes = set()
    for c, gamma, value in zip(coeffs, gammas, values.tolist()):
        want_gamma, want_value, ran = descent_oracle(basis, c)
        assert gamma.tolist() == want_gamma.tolist()
        assert value == want_value  # bit for bit
        passes.add(ran)
    # rows leave the live set in different passes; on a diagonal basis no move
    # raises the gauge, so every row stops after its first pass
    assert passes == {1} if basis.is_diagonal() else len(passes) >= 3


@pytest.mark.parametrize("name", sorted(DESCENT_BASES))
def test_unconditional_constant_does_not_depend_on_the_row_cap(name, monkeypatch):
    basis = DESCENT_BASES[name]()
    want = unconditional_constant(basis, mode="random", budget=300, seed=2).as_dict()
    monkeypatch.setattr(spaces_module, "_ROW_CAP", SMALL_CAP)  # the pool spans several chunks
    assert unconditional_constant(basis, mode="random", budget=300, seed=2).as_dict() == want


# ---------------------------------------------------------------------------
# random democracy profile: the set feed and the swap refinement
# ---------------------------------------------------------------------------


def profile_feed_oracle(basis, m_max, budget, seed):
    d = basis.d
    up = [Tracker() for _ in range(m_max)]
    down = [Tracker(maximize=False) for _ in range(m_max)]

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
    for s in _random_sets(d, 1, d, budget, seed, PROFILE_SETS):
        feed(s)
    return up, down


@pytest.mark.parametrize("kind", KINDS)
def test_profile_feed_matches_scalar_loop(kind, small_cap, monkeypatch):
    basis = random_basis(kind, seed=12)
    expected_up, expected_down = profile_feed_oracle(basis, 5, budget=40, seed=3)
    # leave the feed's witnesses as they are
    monkeypatch.setattr(democracy_module, "_swap_refine",
                        lambda basis, s, maximize: (list(s), -math.inf if maximize else math.inf))
    rows = _profile_rows(basis, 5, "random", 40, 3)
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
    profile_rows = _profile_rows(basis, 12, "random", 200, 1)
    for row in profile_rows:
        assert len(row.phi_u.witness["set"]) <= row.m <= len(row.phi_l.witness["set"])


# ---------------------------------------------------------------------------
# embedding searches
# ---------------------------------------------------------------------------


def embedding_coefficients(d, head, budget, seed, stream):
    rows = list(head)
    for k in range(1, d + 1):
        for s in structured_subsets(d, k):
            g = np.zeros(d)
            g[s] = 1.0
            rows.append(g)
    return rows + list(coefficient_samples(d, budget, seed, stream))


def embed_space_oracle(basis, w, budget, seed):
    d = basis.d
    coeffs = embedding_coefficients(d, [np.ones(d)], budget, seed, EMBED_SPACE_SAMPLES)
    # the inputs are synthesized in one product, as the search does
    candidates = list(np.eye(basis.dim)) + list(np.array(coeffs) @ basis.vectors)
    tracker = Tracker()
    for f in candidates:
        nf = ambient_gauge(basis.space, f)
        if nf > 0:
            val = lorentz_gauge(coefficient_transform(basis, f), math.inf, w)
            tracker.update(val / nf, {"f": f.tolist()})
    return tracker


def embed_lorentz_oracle(basis, q, w, budget, seed):
    d = basis.d
    tracker = Tracker()
    for g in embedding_coefficients(d, [np.ones(d), *np.eye(d)], budget, seed,
                                    EMBED_LORENTZ_SAMPLES):
        den = lorentz_gauge(g, q, w)
        if den > 0:
            tracker.update(gauge(basis, synthesize(basis, g)) / den, {"g": g.tolist()})
    return tracker


@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("direction", ["space", "lorentz"])
def test_embedding_search_matches_scalar_loop(direction, seed, small_cap):
    basis = random_basis("lp", seed=seed)
    w = 2.0 * np.arange(1, basis.d + 1) - 1.0
    if direction == "space":
        expected = embed_space_oracle(basis, w, budget=60, seed=seed)
        got = embed_space_into_weak_lorentz(basis, w, budget=60, seed=seed, m_max=1).constant
        f = np.array(got.witness["f"])
        replay = (lorentz_gauge(coefficient_transform(basis, f), math.inf, w)
                  / gauge(basis, f))
    else:
        expected = embed_lorentz_oracle(basis, 0.5, w, budget=60, seed=seed)
        got = embed_lorentz_into_space(basis, 0.5, w, budget=60, seed=seed, m_max=1).constant
        g = np.array(got.witness["g"])
        replay = gauge(basis, synthesize(basis, g)) / lorentz_gauge(g, 0.5, w)
    assert got.lower == pytest.approx(expected.best, rel=REL)
    assert got.witness == expected.witness
    assert replay == pytest.approx(got.lower, rel=REL)


# ---------------------------------------------------------------------------
# the row cap
# ---------------------------------------------------------------------------


def test_analyze_respects_row_cap(monkeypatch, capsys, inline_tasks):
    """No rows call of an analyze run exceeds the cap, which bounds its memory.
    The estimators run inline, so every rows call is counted here."""
    sizes = []
    real = spaces_module.ambient_gauge_rows

    def counting(space, mat, scratch=None):
        sizes.append(len(mat))
        return real(space, mat, scratch)

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


def assert_capped(size, width, per_item):
    rows = size * per_item
    assert rows <= spaces_module._ROW_CAP
    assert rows * width <= max(spaces_module._BLOCK_FLOATS, width * per_item)


def test_row_chunks_bound_rows_and_floats():
    for width, per_item in ((4, 1), (8, 8), (24, 1), (32, 32), (5000, 1)):
        chunks = list(spaces_module._row_chunks(range(3000), width, per_item))
        assert [i for chunk in chunks for i in chunk] == list(range(3000))
        for chunk in chunks:
            assert_capped(len(chunk), width, per_item)
    # candidate_blocks: the same caps, the candidates' order, and the bits of
    # rows @ vectors (coefficient candidates) or rows @ duals.T (ambient ones)
    for basis in (zoo("perturbed_unit", p=0.5, dim=24, seed=1),
                  zoo("block_l2", p=0.5, blocks=(2, 3, 1))):
        candidates = np.random.default_rng(0).standard_normal((5000, basis.d))
        for per_item in (1, basis.d):
            for ambient in (False, True):
                blocks = list(candidate_blocks(basis, iter(candidates), per_item, ambient))
                assert len(blocks) > 1
                for coeffs, f, nf in blocks:
                    assert_capped(len(f), basis.dim, per_item)
                    if ambient:
                        assert coeffs.tobytes() == (f @ basis.duals.T).tobytes()
                    else:
                        assert f.tobytes() == (coeffs @ basis.vectors).tobytes()
                    assert nf.tobytes() == ambient_gauge_rows(basis.space, f).tobytes()
                rows = np.vstack([f if ambient else coeffs for coeffs, f, _ in blocks])
                assert rows.tobytes() == candidates.tobytes()


# ---------------------------------------------------------------------------
# the sign constants
# ---------------------------------------------------------------------------
#
# The oracles are the earlier per-set loops over the same sampled sets: one
# sign stream made per set (drawn from only for sets of more than 12 members)
# and one or two rows calls per set.  ``sign_log`` records each per-set stream
# key with the size of its set.  They scan the sets in block order, the order
# in which ``_sign_gauges`` scores them, so a tie across sizes keeps the
# witness that the blocks offer first.


def block_order(sizes):
    """Positions by size, sizes in order of first appearance, then in order
    within a size."""
    by_size = {}
    for i, k in enumerate(sizes):
        by_size.setdefault(k, []).append(i)
    return [i for members in by_size.values() for i in members]


def sign_stream(log, seed, key, size):
    log.append((key, size))
    return substream(seed, *key)


def sign_gauges_oracle(basis, idx, rng):
    k = idx.size
    rows = basis.vectors[idx]
    if k <= _SIGN_ENUM_CAP:
        signs = sign_patterns(k, 0, 1 << k)
    else:
        signs = large_set_signs(rng, k)
    return ambient_gauge_rows(basis.space, signs @ rows), signs


def large_set_signs(rng, k):
    """All ones, alternating signs, then 128 drawn patterns."""
    alternating = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    return np.vstack((np.ones(k), alternating, rng.choice([-1.0, 1.0], size=(128, k))))


def succ_oracle(basis, budget, seed, sign_log):
    d = basis.d
    tracker = Tracker()
    tracker.update(1.0, {"A": [0], "B": [0], "signs": [1.0]})
    pairs = []
    for n in range(1, d):
        pairs.append((np.array([n]), np.array([n - 1, n])))
    for k in range(1, d):
        pairs.append((np.array([k]), np.arange(k + 1)))
    pairs.append((np.arange(0, d, 2), np.arange(d)))
    pairs.append((np.arange(1, d, 2), np.arange(d)))
    pairs.extend(_succ_pairs(d, budget, seed))
    for i in block_order([b.size for _, b in pairs]):
        a, b = pairs[i]
        assert 0 < a.size < b.size and set(a) <= set(b)
        rng = sign_stream(sign_log, seed, (SUCC_PAIRS, i), b.size)
        pos = np.searchsorted(b, a)
        if b.size <= _SIGN_ENUM_CAP:
            signs = sign_patterns(b.size, 0, 1 << b.size)
        else:
            signs = large_set_signs(rng, b.size)
        den = ambient_gauge_rows(basis.space, signs @ basis.vectors[b])
        num = ambient_gauge_rows(basis.space, signs[:, pos] @ basis.vectors[a])
        ratios = num / den
        j = int(np.argmax(ratios))
        tracker.update(float(ratios[j]), {
            "A": [int(x) for x in a], "B": [int(x) for x in b], "signs": signs[j].tolist(),
        })
    return BoundEstimate(tracker.best, math.inf, tracker.witness, heuristic=True)


def sign_change_oracle(basis, budget, seed, sign_log):
    d = basis.d
    tracker = Tracker()
    tracker.update(1.0, {"A": [0], "theta": [1.0], "eps": [1.0]})
    sets = []
    for k in range(1, d + 1):
        sets.extend(structured_subsets(d, k))
    sets.extend(_random_sets(d, 1, d, budget, seed, SIGN_CHANGE_SETS))
    for idx in block_order([len(a) for a in sets]):
        a = sets[idx]
        rng = sign_stream(sign_log, seed, (SIGN_CHANGE, idx), len(a))
        gauges, signs = sign_gauges_oracle(basis, np.asarray(a, dtype=int), rng)
        hi, lo = int(np.argmax(gauges)), int(np.argmin(gauges))
        if gauges[lo] <= 0:
            continue
        tracker.update(float(gauges[hi] / gauges[lo]), {
            "A": [int(x) for x in a], "theta": signs[hi].tolist(), "eps": signs[lo].tolist(),
        })
    return BoundEstimate(tracker.best, math.inf, tracker.witness, heuristic=True)


def super_democracy_oracle(basis, m_max, budget, seed, sign_log):
    d = basis.d
    m_max = min(int(m_max), d)
    tracker = Tracker()
    tracker.update(1.0, {"A": [0], "B": [0], "theta": [1.0], "eps": [1.0]})
    for m in range(1, m_max + 1):
        cands = structured_subsets(d, m)
        per_size = max(1, budget // max(1, m_max))
        cands.extend(_random_sets(d, m, m, per_size, seed, SUPER_DEMOCRACY_SETS, m))
        best_hi, arg_hi, sig_hi = -math.inf, None, None
        best_lo, arg_lo, sig_lo = math.inf, None, None
        for i, a in enumerate(cands):
            rng = sign_stream(sign_log, seed, (SUPER_DEMOCRACY, m, i), m)
            gauges, signs = sign_gauges_oracle(basis, np.asarray(a, dtype=int), rng)
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


SIGN_CONSTANTS = {
    "succ": (succ_constant, succ_oracle),
    "sign_change": (sign_change_constant, sign_change_oracle),
    "super_democracy": (lambda basis, budget, seed: super_democracy_constant(
        basis, m_max=basis.d, budget=budget, seed=seed),
        lambda basis, budget, seed, log: super_democracy_oracle(basis, basis.d, budget, seed, log)),
}


def sign_basis(kind: str, seed: int, d: int) -> Basis:
    """A perturbed identity at dimension d in an lp, block or Lorentz ambient."""
    rng = np.random.default_rng(seed)
    vectors = np.eye(d) + (0.5 / d) * rng.standard_normal((d, d))
    blocks = tuple(min(4, d - i) for i in range(0, d, 4))
    space = {"lp": Lp(0.5, d), "block": BlockLpL2(0.5, blocks),
             "lorentz": LorentzSpace(0.5, power_weight(2.0, d))}[kind]
    return Basis(space, vectors, np.linalg.inv(vectors).T)


def record_keys(monkeypatch, *namespaces):
    """Record the key of every stream made through ``namespace["substream"]``
    of each namespace: the sampled sets' block streams in :mod:`qgreedy.rng`,
    the per-set sign streams in :mod:`qgreedy.democracy`."""
    keys = []
    for namespace in namespaces:
        real = namespace["substream"]

        def recording(seed, *key, real=real):
            keys.append(key)
            return real(seed, *key)

        monkeypatch.setitem(namespace, "substream", recording)
    return keys


@pytest.mark.parametrize("name", sorted(SIGN_CONSTANTS))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d,budget,cap", [
    pytest.param(d, budget, cap, id=f"{d}-{budget}{suffix}")
    for cap, suffix in [(SMALL_CAP, ""), (spaces_module._ROW_CAP, "-default_cap")]
    for d, budget in [(6, 120), (14, 30), (16, 30)]])
def test_sign_constant_matches_per_set_loop(name, kind, d, budget, cap, monkeypatch):
    """Bit-identical value and equal witness, with one set per scored block
    (the small cap) and with many (the default cap); no stream for a set of
    <= 12 members, and the oracle's key for every larger set."""
    monkeypatch.setattr(spaces_module, "_ROW_CAP", cap)
    assert_matches_per_set_loop(name, sign_basis(kind, seed=d, d=d), budget, 5, monkeypatch)


def assert_matches_per_set_loop(name, basis, budget, seed, monkeypatch):
    new, oracle = SIGN_CONSTANTS[name]
    sign_log = []
    made = record_keys(monkeypatch, vars(rng_module), vars(democracy_module))
    expected = oracle(basis, budget, seed, sign_log)
    draw_keys = made[:]  # the oracle's block draws; its sign streams go to sign_log
    made.clear()
    got = new(basis, budget=budget, seed=seed)
    assert got.lower == expected.lower
    assert got.as_dict() == expected.as_dict()
    large = [key for key, size in sign_log if size > _SIGN_ENUM_CAP]
    assert (basis.d > _SIGN_ENUM_CAP) == bool(large)
    assert sorted(made) == sorted(draw_keys + large)
    return got


@pytest.mark.parametrize("name", sorted(SIGN_CONSTANTS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sign_constant_cross_size_tie_keeps_the_first_block(name, seed, monkeypatch):
    """V = I + 0.5 (e_0 x e_3 + e_1 x e_2) in l_1: the sign-change ratio 5/3 is
    attained by {0, 3}, {1, 2} and {0, 1, 2, 3}, so only the block order picks
    the witness: the first two-member set scored, never the whole set."""
    vectors = np.eye(4)
    vectors[0, 3] = vectors[1, 2] = 0.5
    basis = Basis(Lp(1.0, 4), vectors, np.linalg.inv(vectors).T)
    got = assert_matches_per_set_loop(name, basis, 50, seed, monkeypatch)
    if name == "sign_change":
        assert got.lower == 5 / 3
        assert got.witness["A"] in ([0, 3], [1, 2])


def test_sign_gauges_requires_a_stream_for_large_sets():
    basis = sign_basis("lp", seed=0, d=16)
    small = [np.arange(12), np.arange(4, 16, 2)]
    assert [len(c) for c, *_ in _sign_gauges(basis, small)] == [1, 1]
    with pytest.raises(ValueError, match="sign stream"):
        list(_sign_gauges(basis, [np.arange(13)]))
    chunks = list(_sign_gauges(basis, [np.arange(13)], lambda i: substream(0, 99, i)))
    assert chunks[0][3].shape == (1, 130)
    assert np.array_equal(chunks[0][2][0, :2], [[1.0] * 13, [1.0, -1.0] * 6 + [1.0]])


@pytest.mark.parametrize("k", [13, 20, 32])
@pytest.mark.parametrize("key", [(0, SIGN_CHANGE, 0), (5, SUCC_PAIRS, 17),
                                 (3, SUPER_DEMOCRACY, 13, 2), (11, SIGN_CHANGE, 499)])
def test_drawn_signs_are_the_choice_bits(k, key):
    """A large set's 128 drawn sign rows index the shared -1/+1 table by
    ``integers(0, 2)``, written into the search's reused block; they are the
    bits of ``Generator.choice([-1.0, 1.0])``, which the pinned reports were
    made with."""
    want = substream(*key).choice([-1.0, 1.0], size=(128, k))
    assert _SIGNS[substream(*key).integers(0, 2, (128, k))].tobytes() == want.tobytes()
    basis = zoo("difference", p=0.5, dim=k)
    (_, _, signs, _), = _sign_gauges(basis, [np.arange(k)], lambda i: substream(*key))
    assert signs[0, 2:].tobytes() == want.tobytes()
    assert strongly_absolute_module._SIGNS is _SIGNS


def _disjoint_vectors(supports, dim: int, seed: int):
    """Vectors with the given disjoint supports (lists of coordinates) and
    random nonzero entries there, as (vectors, duals): each dual is its
    vector over the vector's squared Euclidean norm."""
    rng = np.random.default_rng(seed)
    vectors = np.zeros((len(supports), dim))
    for n, cols in enumerate(supports):
        vectors[n, cols] = rng.uniform(0.3, 3.0, len(cols)) * rng.choice([-1.0, 1.0], len(cols))
    return vectors, vectors / np.sum(vectors**2, axis=1, keepdims=True)


def disjoint_basis(kind: str, p: float) -> Basis:
    """A basis of more than 12 vectors with disjoint supports, so its sets
    take both sign paths (enumerated and drawn patterns)."""
    if kind == "unit":
        return zoo("unit", p=p, dim=14)
    if kind == "block_l2":  # uneven blocks, d = 15
        return zoo("block_l2", p=p, blocks=(5, 1, 4, 3, 2))
    if kind == "scaled_permuted":
        rng = np.random.default_rng(3)
        vectors = np.zeros((14, 14))
        vectors[np.arange(14), rng.permutation(14)] = (rng.uniform(0.3, 3.0, 14)
                                                       * rng.choice([-1.0, 1.0], 14))
        return Basis(Lp(p, 14), vectors, np.linalg.inv(vectors).T)
    # 13 vectors on 16 coordinates: three with two coordinates each
    order = np.random.default_rng(4).permutation(16).tolist()
    supports = [order[0:2], order[2:4], order[4:6]] + [[c] for c in order[6:]]
    vectors, duals = _disjoint_vectors(supports, 16, seed=5)
    space = (BlockLpL2(p, (4, 4, 3, 5)) if kind == "block_spread"
             else LorentzSpace(p, power_weight(2.0, 16)))
    return Basis(space, vectors, duals)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("kind", ["unit", "block_l2", "scaled_permuted", "block_spread",
                                  "lorentz_spread"])
def test_one_sign_pattern_on_disjoint_supports(kind, p, monkeypatch):
    """On disjointly supported vectors the sign constants score one pattern per
    set, make no per-set sign stream, and report what scoring every pattern
    reports."""
    basis = disjoint_basis(kind, p)
    assert basis.disjoint_supports and basis.d > 12
    runs = [lambda: succ_constant(basis, budget=40, seed=2),
            lambda: sign_change_constant(basis, budget=40, seed=2),
            lambda: super_democracy_constant(basis, budget=40, seed=2)]
    made = record_keys(monkeypatch, vars(democracy_module))
    short = [run().as_dict() for run in runs]
    assert made == []
    monkeypatch.setattr(democracy_module, "_one_pattern", lambda basis: False)
    full = [run().as_dict() for run in runs]
    assert made  # the full path draws the patterns of every set of more than 12 members
    assert short == full


def test_one_pattern_per_set_is_scored():
    basis = disjoint_basis("block_l2", 0.5)
    sets = [np.arange(3), np.arange(13), np.arange(1, 4)]
    blocks = list(_sign_gauges(basis, sets))  # no stream is needed
    assert [c for c, *_ in blocks] == [[0, 2], [1]]
    assert [g.shape for *_, g in blocks] == [(2, 1), (1, 1)]
    assert np.array_equal(blocks[0][2][0, 0], [-1.0] * 3)  # the first enumerated pattern
    assert np.array_equal(blocks[1][2][0, 0], [1.0] * 13)  # the all-ones row


@pytest.mark.parametrize("name,expected", [("unit", True), ("block_l2", True),
                                           ("difference", False), ("perturbed_unit", False)])
def test_disjoint_supports(name, expected):
    basis = (zoo(name, p=0.5, blocks=(2, 3)) if name == "block_l2"
             else zoo(name, p=0.5, dim=5, seed=0))
    assert basis.disjoint_supports is expected
