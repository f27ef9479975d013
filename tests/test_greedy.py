import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgreedy.bounds as bounds_module
import qgreedy.greedy as greedy_module
from qgreedy import power_weight
from qgreedy.bases import Basis, synthesize, zoo
from qgreedy.cli import main
from qgreedy.greedy import (
    _ratios_over_m,
    conditionality_growth_profile,
    greedy_approximation,
    greedy_set,
    greedy_truncation,
    quasi_greedy_constant,
    restricted_truncation,
    truncation_constant,
)
from qgreedy.bases import coefficient_transform, coordinate_projection
from qgreedy.sampling import plateau_coefficients
from qgreedy.spaces import BlockLpL2, LorentzSpace, Lp, ambient_gauge


@pytest.fixture
def unit4():
    return zoo("unit", p=0.5, dim=4)


@pytest.fixture
def diff4():
    return zoo("difference", p=0.5, dim=4)


coeff_arrays = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=4, max_size=4
).map(np.array)


class TestGreedySet:
    def test_tie_broken_by_smaller_index(self, unit4):
        assert greedy_set(unit4, [1, 2, 2, 2], 2).tolist() == [1, 2]

    def test_equal_moduli_tie(self, unit4):
        assert greedy_set(unit4, [0.5, -2, 2, 1], 2).tolist() == [1, 2]

    def test_m_zero(self, unit4):
        assert greedy_set(unit4, [1, 2, 3, 4], 0).size == 0

    def test_m_out_of_range(self, unit4):
        with pytest.raises(ValueError):
            greedy_set(unit4, [1, 2, 3, 4], 5)

    @given(coeff_arrays)
    @settings(max_examples=100)
    def test_nesting(self, coeffs):
        basis = zoo("unit", p=0.5, dim=4)
        f = coeffs
        sets = [set(greedy_set(basis, f, m).tolist()) for m in range(5)]
        for m in range(4):
            assert sets[m] <= sets[m + 1]
            assert len(sets[m]) == m


class TestGreedyApproximation:
    def test_unit_example(self, unit4):
        got = greedy_approximation(unit4, [3, -1, 2, 0], 2)
        assert np.allclose(got, [3, 0, 2, 0])

    def test_full_reconstruction(self, diff4):
        rng = np.random.default_rng(0)
        for _ in range(10):
            f = synthesize(diff4, rng.standard_normal(4))
            assert np.allclose(greedy_approximation(diff4, f, 4), f, atol=1e-12)

    def test_difference_tie_picks_first_vector(self):
        # coefficients of e_3 are (1, 1, 1); the tie rule keeps index 0,
        # so the one-term approximation is the first basis vector e_1
        b = zoo("difference", p=0.5, dim=3)
        e3 = np.array([0.0, 0.0, 1.0])
        assert np.allclose(greedy_approximation(b, e3, 1), [1.0, 0.0, 0.0])

    @given(coeff_arrays, st.integers(min_value=0, max_value=4))
    @settings(max_examples=100)
    def test_idempotence(self, coeffs, m):
        basis = zoo("difference", p=0.5, dim=4)
        f = synthesize(basis, coeffs)
        g = greedy_approximation(basis, f, m)
        assert np.allclose(greedy_approximation(basis, g, m), g, atol=1e-9)


class TestRestrictedTruncation:
    def test_unit_example(self, unit4):
        got = restricted_truncation(unit4, [3, -1, 2, 0], [0, 2])
        assert np.allclose(got, [2, 0, 2, 0])

    def test_zero_min_gives_zero(self, unit4):
        got = restricted_truncation(unit4, [0, 5, 0, 0], [0, 1])
        assert np.allclose(got, 0.0)

    def test_equal_modulus_fixed_point(self):
        unit2 = zoo("unit", p=0.5, dim=2)
        got = restricted_truncation(unit2, [-3, -3], [0, 1])
        assert np.allclose(got, [-3, -3])

    def test_empty_set_convention(self, unit4):
        assert np.allclose(restricted_truncation(unit4, [1, 2, 3, 4], []), 0.0)

    def test_coefficient_flatness(self, diff4):
        rng = np.random.default_rng(1)
        for _ in range(25):
            f = synthesize(diff4, rng.standard_normal(4))
            a = np.sort(rng.choice(4, size=rng.integers(1, 5), replace=False))
            u = restricted_truncation(diff4, f, a)
            coeffs = coefficient_transform(diff4, u)
            moduli = np.abs(coeffs[a])
            assert np.allclose(moduli, moduli[0], atol=1e-9)
            others = np.setdiff1d(np.arange(4), a)
            assert np.allclose(coeffs[others], 0.0, atol=1e-9)

    def test_truncation_continuity_toward_flat(self, unit4):
        prev = None
        unit2 = zoo("unit", p=0.5, dim=2)
        for zeta in (0.9, 0.99, 0.999):
            f = np.array([1.0, zeta])
            ratio = (ambient_gauge(unit2.space, greedy_truncation(unit2, f, 2))
                     / ambient_gauge(unit2.space, f))
            if prev is not None:
                assert ratio >= prev - 1e-12
            prev = ratio
        assert prev == pytest.approx(1.0, abs=1e-2)


class TestOperatorConstants:
    def test_unit_quasi_greedy_is_one(self, unit4):
        est = quasi_greedy_constant(unit4, budget=100, seed=0)
        assert est.lower == pytest.approx(1.0, abs=1e-12)
        assert est.upper == 1.0 and est.upper_certified

    def test_unit_truncation_is_one(self, unit4):
        est = truncation_constant(unit4, budget=100, seed=0)
        assert est.lower == pytest.approx(1.0, abs=1e-12)
        assert est.upper == 1.0 and est.upper_certified

    def test_budget_zero_gives_trivial_bound(self, diff4):
        est = quasi_greedy_constant(diff4, budget=0, seed=0)
        assert est.lower == pytest.approx(1.0, abs=1e-12)

    def test_difference_tie_perturbed_witness(self, diff4):
        # raising the 2nd and 4th coefficients of (1,1,1,1) by delta makes the
        # greedy pair {1, 3}; the projected gauge 16(1+delta) against the
        # perturbed input approaches 16 from below as delta -> 0
        coeffs = plateau_coefficients(4, [1, 3], delta=1e-9)
        f = synthesize(diff4, coeffs)
        g2 = greedy_approximation(diff4, f, 2)
        ratio = ambient_gauge(diff4.space, g2) / ambient_gauge(diff4.space, f)
        assert ratio == pytest.approx(16.0, rel=2e-4)
        assert ratio < 16.0

        est = quasi_greedy_constant(diff4, budget=60, seed=0)
        assert est.lower >= 16.0 * (1 - 1e-3)

    def test_witness_reproducible(self, diff4):
        est = quasi_greedy_constant(diff4, budget=80, seed=3)
        coeffs = np.array(est.witness["coeffs"])
        m = est.witness["m"]
        f = synthesize(diff4, coeffs)
        ratio = (ambient_gauge(diff4.space, greedy_approximation(diff4, f, m))
                 / ambient_gauge(diff4.space, f))
        assert ratio == pytest.approx(est.lower, rel=1e-9)

    def test_truncation_witness_reproducible(self, diff4):
        est = truncation_constant(diff4, budget=80, seed=3)
        coeffs = np.array(est.witness["coeffs"])
        m = est.witness["m"]
        f = synthesize(diff4, coeffs)
        ratio = (ambient_gauge(diff4.space, greedy_truncation(diff4, f, m))
                 / ambient_gauge(diff4.space, f))
        assert ratio == pytest.approx(est.lower, rel=1e-9)


def _diagonal_basis(p, d, unit, seed=0):
    rng = np.random.default_rng(seed)
    diag = np.ones(d) if unit else rng.uniform(0.2, 5.0, d) * rng.choice([-1.0, 1.0], d)
    return Basis(Lp(p, d), np.diag(diag), np.diag(1.0 / diag))


class TestCertifiedEarlyExit:
    """On a diagonal system the operator searches stop once the running best
    reaches the certified 1, and report what the full search reports."""

    @pytest.mark.parametrize("estimator", [quasi_greedy_constant, truncation_constant])
    @pytest.mark.parametrize("basis", [
        *(pytest.param(_diagonal_basis(p, 8, unit), id=f"lp{p}-{'unit' if unit else 'scaled'}")
          for p in (0.5, 1.0, 2.0, math.inf) for unit in (True, False)),
        pytest.param(zoo("block_l2", p=0.5, blocks=(2, 3, 3)), id="block_l2"),
    ])
    def test_exit_matches_full_search(self, monkeypatch, estimator, basis):
        blocks = []
        real = greedy_module._ratios_over_m

        def counted(basis, coeffs, truncate):
            blocks.append(len(coeffs))
            return real(basis, coeffs, truncate)

        monkeypatch.setattr(greedy_module, "_ratios_over_m", counted)
        # the 2,016 candidates at d = 8 fill four blocks of at most 512
        exiting = estimator(basis, budget=2000, seed=1)
        assert len(blocks) == 1
        monkeypatch.setattr(greedy_module, "_certified_ceiling", lambda basis: math.inf)
        full = estimator(basis, budget=2000, seed=1)
        assert len(blocks) == 1 + 4
        assert exiting.as_dict() == full.as_dict()
        assert exiting.witness["coeffs"] == [1.0] * 8

    def test_no_exit_off_the_diagonal(self, monkeypatch):
        """Off the diagonal every candidate is drawn: 1 + 8 + 1 + 6 + 2,000 at
        d = 8 (pruning may skip scoring some of them, never the rest of the
        search)."""
        drawn = []
        real = greedy_module._operator_candidates

        def counted(*args):
            for coeffs in real(*args):
                drawn.append(1)
                yield coeffs

        monkeypatch.setattr(greedy_module, "_operator_candidates", counted)
        quasi_greedy_constant(zoo("difference", p=0.5, dim=8), budget=2000, seed=1)
        assert len(drawn) == 2016


def _lorentz_difference(d):
    """The difference basis in the Lorentz ambient d_{1/2}(w), w_n = 2n - 1."""
    basis = zoo("difference", p=0.5, dim=d)
    return Basis(LorentzSpace(0.5, power_weight(2.0, d)), basis.vectors, basis.duals)


def _dense_basis(space, seed):
    """A random dense basis of ``space`` (vectors near the identity), duals by inversion."""
    rng = np.random.default_rng(seed)
    vectors = np.eye(space.dim) + 0.6 * rng.standard_normal((space.dim, space.dim))
    return Basis(space, vectors, np.linalg.inv(vectors).T)


def _ceiling_basis(kind, p):
    if kind == "difference":
        return zoo("difference", p=p, dim=8)
    if kind == "perturbed_unit":
        return zoo("perturbed_unit", p=p, dim=8, seed=3)
    if kind == "dense":
        return _dense_basis(Lp(p, 7), seed=11)
    if kind.startswith("lorentz"):  # lorentz-{difference,dense}-{increasing,decreasing}, q = p
        _, vectors, weights = kind.split("-")
        # w_n = 2n - 1 (primitive n^2) increases; w_n = sqrt(n) - sqrt(n - 1) decreases
        space = LorentzSpace(p, power_weight(2.0 if weights == "increasing" else 0.5, 8))
        if vectors == "dense":
            return _dense_basis(space, seed=13)
        basis = zoo("difference", p=0.5, dim=8)
        return Basis(space, basis.vectors, basis.duals)
    return _dense_basis(BlockLpL2(p, (2, 3, 1, 2)), seed=12)


_moduli = st.floats(min_value=1e-6, max_value=1e6)
_signed = st.builds(lambda x, neg: -x if neg else x, _moduli, st.booleans())


@st.composite
def _coefficient_rows(draw, d, duals):
    """Rows that exercise the ceiling: free coefficients with zeros, ties and
    mixed scales; and rows built for cancellation, where the prefix sums
    nearly cancel (a near-flat alternating row, and the coefficients
    ``duals @ f`` of a small f, whose full sum is f)."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.lists(st.one_of(_signed, st.just(0.0)), min_size=d, max_size=d))
        rows.append(row if any(row) else [1.0] * d)
    level = draw(_moduli)
    eps = draw(st.floats(min_value=0.0, max_value=1e-9))
    rows.append([level * (-1) ** t * (1 + eps * t) for t in range(d)])
    f = np.array(draw(st.lists(_signed, min_size=duals.shape[1], max_size=duals.shape[1])))
    rows.append((duals @ (1e-8 * f)).tolist())
    return np.array(rows)


class TestRowCeilings:
    """The certified ceiling of a coefficient row bounds every gauge
    :func:`_ratios_over_m` computes for it, and pruning by it changes nothing."""

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 1.0, 2.0, math.inf])
    @pytest.mark.parametrize("kind", [
        "difference", "perturbed_unit", "dense", "block",
        *(f"lorentz-{v}-{w}" for v in ("difference", "dense") for w in ("increasing", "decreasing")),
    ])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_ceiling_bounds_every_computed_gauge(self, kind, p, data):
        basis = _ceiling_basis(kind, p)
        coeffs = data.draw(_coefficient_rows(basis.d, basis.duals))
        caps = bounds_module.row_ceilings(basis)(coeffs)
        assert np.all(np.isfinite(caps))  # these rows lie in the certified range
        for truncate in (False, True):
            gauges = _ratios_over_m(basis, coeffs, truncate)
            assert np.all(gauges.max(axis=1) <= caps)

    @pytest.mark.parametrize("row", [[1.0, 1e-300, 0.0, 2.0], [1e300, 1.0, 1.0, 1.0],
                                     [1.0, 5e-324, 0.0, 0.0]])
    def test_blocks_out_of_range_are_never_pruned(self, row):
        """A value that could leave the normal range gives its whole block
        infinite ceilings; zeros do not."""
        ceilings = bounds_module.row_ceilings(zoo("difference", p=2.0, dim=4))
        assert np.all(np.isfinite(ceilings(np.array([[1.0, 2.0, 0.0, 4.0]]))))
        assert np.all(ceilings(np.array([[1.0, 2.0, 3.0, 4.0], row])) == math.inf)

    def test_bases_out_of_range_are_never_pruned(self):
        vectors = np.eye(3)
        vectors[0, 1] = 1e-200  # its square underflows
        basis = Basis(Lp(2.0, 3), vectors, np.linalg.inv(vectors).T)
        assert bounds_module.row_ceilings(basis) is None
        assert bounds_module.row_ceilings(Basis(Lp(0.5, 3), vectors, basis.duals)) is not None

    @pytest.mark.parametrize("q,entry,weight", [(2.0, 1e-200, 1.0), (0.5, 1.0, 1e-320),
                                                (math.inf, 16.0, 1e300)])
    def test_lorentz_bases_out_of_range_are_never_pruned(self, q, entry, weight):
        """A square that underflows, or a weight (and so a table s^(q-1) or
        product a s_n) out of the normal range: no ceilings."""
        vectors = np.eye(3)
        vectors[0, 1] = entry
        weights = np.array([1.0, 2.0, weight])
        basis = Basis(LorentzSpace(q, weights), vectors, np.linalg.inv(vectors).T)
        assert bounds_module.row_ceilings(basis) is None
        in_range = Basis(LorentzSpace(q, np.array([1.0, 2.0, 3.0])), np.eye(3), np.eye(3))
        assert bounds_module.row_ceilings(in_range) is not None

    @pytest.mark.parametrize("estimator", [quasi_greedy_constant, truncation_constant])
    def test_lorentz_ambients_are_pruned(self, monkeypatch, estimator):
        """On the Lorentz d = 16 difference basis at budget 10000 each operator
        search scores at most 2% of the candidates it draws."""
        drawn, scored = [], []
        real_candidates, real_ratios = greedy_module._operator_candidates, greedy_module._ratios_over_m

        def counted(*args):
            for coeffs in real_candidates(*args):
                drawn.append(1)
                yield coeffs

        monkeypatch.setattr(greedy_module, "_operator_candidates", counted)
        monkeypatch.setattr(greedy_module, "_ratios_over_m",
                            lambda basis, coeffs, truncate: scored.append(len(coeffs))
                            or real_ratios(basis, coeffs, truncate))
        estimator(_lorentz_difference(16), budget=10000, seed=0)
        assert len(drawn) == 10024
        assert sum(scored) <= 0.02 * len(drawn)

    @pytest.mark.parametrize("estimator", [quasi_greedy_constant, truncation_constant])
    @pytest.mark.parametrize("basis", [
        pytest.param(zoo("difference", p=0.5, dim=16), id="difference"),
        pytest.param(zoo("difference", p=0.1, dim=12), id="difference-p0.1"),
        pytest.param(zoo("perturbed_unit", p=0.5, dim=12, seed=4), id="perturbed_unit"),
        pytest.param(zoo("perturbed_unit", p=2.0, dim=10, seed=1), id="perturbed_unit-p2"),
        pytest.param(_dense_basis(BlockLpL2(0.5, (3, 3, 2, 4)), seed=5), id="block"),
        pytest.param(_lorentz_difference(10), id="lorentz"),
    ])
    def test_pruning_changes_nothing(self, monkeypatch, estimator, basis):
        scored = []
        real = greedy_module._ratios_over_m
        monkeypatch.setattr(greedy_module, "_ratios_over_m",
                            lambda basis, coeffs, truncate: scored.append(len(coeffs))
                            or real(basis, coeffs, truncate))
        pruned = estimator(basis, budget=1500, seed=2)
        pruned_rows = sum(scored)
        monkeypatch.setattr(greedy_module, "row_ceilings", lambda basis: None)
        full = estimator(basis, budget=1500, seed=2)
        full_rows = sum(scored) - pruned_rows
        assert pruned.as_dict() == full.as_dict()
        assert pruned_rows < full_rows

    def test_analyze_json_unchanged(self, monkeypatch, capsys):
        args = ["analyze", "--zoo", "difference", "--p", "0.5", "--dim", "24",
                "--budget", "2000", "--format", "json"]
        assert main(args) == 0
        pruned = capsys.readouterr().out
        monkeypatch.setattr(greedy_module, "row_ceilings", lambda basis: None)
        assert main(args) == 0
        assert capsys.readouterr().out == pruned


def _dense_lp_basis(p, d, seed):
    """I + 0.4 G in l_p^d, G gaussian, duals by inversion."""
    vectors = np.eye(d) + 0.4 * np.random.default_rng(seed).standard_normal((d, d))
    return Basis(Lp(p, d), vectors, np.linalg.inv(vectors).T)


DENSE_LP = [pytest.param(p, d, seed, id=f"p{p}-d{d}-seed{seed}")
            for p in (0.3, 0.5, 1.0) for d in (4, 6, 8) for seed in range(3)]


class TestConditionalityProfile:
    @pytest.mark.parametrize("p,d,seed", DENSE_LP)
    def test_rows_bracket_the_truth(self, p, d, seed):
        # for p <= 1 the unit ball of l_p is the closed p-convex hull of the
        # +-e_j, so ||S_A|| = max_j ||S_A e_j||_p, with S_A e_j the sum over
        # n in A of x_n*(e_j) x_n; the truth at m is the max over |A| <= m
        basis = _dense_lp_basis(p, d, seed)
        truth = np.zeros(d + 1)
        for mask in itertools.product((0.0, 1.0), repeat=d):
            images = (np.array(mask)[:, None] * basis.duals).T @ basis.vectors
            size = int(sum(mask))
            truth[size] = max(truth[size], np.max(np.sum(np.abs(images) ** p, axis=1) ** (1 / p)))
        truth = np.maximum.accumulate(truth)
        rows = conditionality_growth_profile(basis)
        assert [row.m for row in rows] == list(range(1, d + 1))
        for row in rows:
            assert row.lower <= truth[row.m] * (1 + 1e-12)
            assert row.upper_certified and row.upper >= truth[row.m] * (1 - 1e-12)

    def test_unit_is_flat_one(self, unit4):
        rows = conditionality_growth_profile(unit4, budget=20, seed=0)
        for row in rows:
            assert row.lower == pytest.approx(1.0, abs=1e-12)
            assert row.upper == pytest.approx(1.0, abs=1e-12)

    def test_difference_reaches_two_m_power(self):
        # the even-coefficient projection of e_{2m} has 2m unit entries
        basis = zoo("difference", p=0.5, dim=16)
        rows = conditionality_growth_profile(basis, max_m=8, budget=0, seed=0)
        for row in rows:
            assert row.lower >= (2 * row.m) ** 2 - 1e-9
            assert row.upper >= row.lower - 1e-9

    def test_explicit_even_witness(self):
        basis = zoo("difference", p=0.5, dim=16)
        for m in range(1, 9):
            e = np.zeros(16)
            e[2 * m - 1] = 1.0
            evens = np.arange(1, 2 * m, 2)
            ratio = (ambient_gauge(basis.space, coordinate_projection(basis, evens, e))
                     / ambient_gauge(basis.space, e))
            assert ratio == pytest.approx((2 * m) ** 2, abs=1e-9)

    def test_diagnostic_column(self):
        basis = zoo("difference", p=0.5, dim=8)
        rows = conditionality_growth_profile(basis, max_m=4, budget=10, seed=0)
        for row in rows:
            expect = row.lower / (1 + math.log(row.m)) ** 2
            assert row.log_normalized == pytest.approx(expect, rel=1e-12)

    def test_witnesses_reproducible(self):
        basis = zoo("difference", p=0.5, dim=8)
        rows = conditionality_growth_profile(basis, max_m=4, budget=30, seed=1)
        for row in rows:
            coeffs = np.array(row.witness["coeffs"])
            f = synthesize(basis, coeffs)
            got = (ambient_gauge(basis.space, coordinate_projection(basis, row.witness["set"], f))
                   / ambient_gauge(basis.space, f))
            assert got == pytest.approx(row.lower, rel=1e-9)

    @pytest.mark.parametrize("max_m", [0, -2])
    def test_nonpositive_max_m_rejected(self, unit4, max_m):
        with pytest.raises(ValueError, match=rf"max_m must be >= 1, got {max_m}"):
            conditionality_growth_profile(unit4, max_m=max_m, budget=20)


@pytest.mark.parametrize("name,d", [("difference", 9), ("perturbed_unit", 12)])
@pytest.mark.parametrize("truncate", [False, True])
def test_prefix_gauges_match_out_of_place_formula(name, d, truncate):
    # the in-place prefix sums do the same products and sums as the formula
    basis = zoo(name, p=0.5, dim=d, seed=3)
    rng = np.random.default_rng(d)
    coeffs = rng.standard_normal((30, d)) * rng.integers(0, 2, size=(30, d))
    order = np.argsort(-np.abs(coeffs), axis=1, kind="stable")
    sorted_coeffs = np.take_along_axis(coeffs, order, axis=1)[:, :, None]
    vectors = basis.vectors[order]
    if truncate:
        prefixes = np.abs(sorted_coeffs) * np.cumsum(np.where(sorted_coeffs < 0, -1.0, 1.0) * vectors,
                                                     axis=1)
    else:
        prefixes = np.cumsum(sorted_coeffs * vectors, axis=1)
    want = np.array([[ambient_gauge(basis.space, row) for row in block] for block in prefixes])
    assert np.array_equal(_ratios_over_m(basis, coeffs, truncate), want)
