import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgreedy.greedy as greedy_module
from qgreedy.bases import Basis, synthesize, zoo
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
from qgreedy.spaces import Lp, ambient_gauge


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
        calls = []
        real = greedy_module._ratios_over_m
        monkeypatch.setattr(greedy_module, "_ratios_over_m",
                            lambda *args: calls.append(1) or real(*args))
        quasi_greedy_constant(zoo("difference", p=0.5, dim=8), budget=2000, seed=1)
        assert len(calls) == 4


class TestConditionalityProfile:
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
