import json
import math

import numpy as np
import pytest

import qgreedy.bases as bases_module
from qgreedy.bases import (
    Basis,
    _gray_best_over_family,
    coefficient_transform,
    coordinate_projection,
    load_basis,
    save_basis,
    sign_operator,
    synthesize,
    unconditional_constant,
    zoo,
)
from qgreedy.errors import BasisFileError, CombinatorialOverflowError, NotABasisError
from qgreedy.spaces import BlockLpL2, Lp, ambient_gauge


@pytest.fixture
def unit5():
    return zoo("unit", p=0.5, dim=5)


@pytest.fixture
def diff4():
    return zoo("difference", p=0.5, dim=4)


class TestZoo:
    def test_unit_is_identity(self, unit5):
        assert np.array_equal(unit5.vectors, np.eye(5))
        assert np.array_equal(unit5.duals, np.eye(5))

    def test_difference_matrices(self):
        b = zoo("difference", p=0.5, dim=3)
        assert b.vectors.tolist() == [[1, 0, 0], [-1, 1, 0], [0, -1, 1]]
        assert b.duals.tolist() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]

    def test_difference_duals_match_inversion_oracle(self):
        b = zoo("difference", p=0.5, dim=6)
        oracle = np.linalg.inv(b.vectors).T
        assert np.allclose(b.duals, oracle, atol=1e-12)

    def test_difference_telescoping(self):
        b = zoo("difference", p=0.5, dim=7)
        for m in range(1, 8):
            e_m = np.zeros(7)
            e_m[m - 1] = 1.0
            assert np.allclose(b.vectors[:m].sum(axis=0), e_m)

    def test_block_identity(self):
        b = zoo("block_l2", p=4, blocks=[1, 2, 3])
        assert isinstance(b.space, BlockLpL2)
        assert b.d == 6
        assert np.array_equal(b.vectors, np.eye(6))

    def test_perturbed_unit_is_reproducible(self):
        b1 = zoo("perturbed_unit", p=0.5, dim=6, seed=11)
        b2 = zoo("perturbed_unit", p=0.5, dim=6, seed=11)
        assert np.array_equal(b1.vectors, b2.vectors)
        b3 = zoo("perturbed_unit", p=0.5, dim=6, seed=12)
        assert not np.array_equal(b1.vectors, b3.vectors)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown zoo"):
            zoo("haar", p=0.5, dim=4)


class TestBasisInvariants:
    def test_biorthogonality_failure_names_worst_pair(self):
        vectors = np.eye(3)
        duals = np.eye(3)
        duals[1, 2] = 1e-3
        with pytest.raises(NotABasisError, match=r"\(n=1, k=2\)"):
            Basis(Lp(0.5, 3), vectors, duals)

    def test_zero_vector_rejected(self):
        vectors = np.eye(2)
        vectors[1] = 0.0
        with pytest.raises(NotABasisError):
            Basis(Lp(0.5, 2), vectors, np.eye(2))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_extreme_scales_accepted(self):
        eye = np.eye(2)
        basis = Basis(Lp(2, 2), 1e-200 * eye, 1e200 * eye)
        assert basis.vector_norms.tolist() == pytest.approx([1e-200, 1e-200], rel=1e-15)
        assert basis.dual_norms.tolist() == pytest.approx([1e200, 1e200], rel=1e-15)

    def test_semi_normalization_constants(self, diff4):
        # vector gauges: ||d_1|| = 1, ||d_n|| = 2^(1/p) = 4; dual sup norms 1
        assert diff4.a == pytest.approx(4.0)
        assert diff4.b == pytest.approx(1.0)
        assert diff4.vector_norms.min() == pytest.approx(1.0)


class TestTransforms:
    def test_unit_transform_is_identity(self, unit5):
        f = np.array([3.0, -1.0, 2.0, 0.0, 1.0])
        assert np.allclose(coefficient_transform(unit5, f), f)

    def test_difference_coefficients_of_last_unit_vector(self):
        # solve the triangular biorthogonal system as an oracle
        b = zoo("difference", p=0.5, dim=3)
        e3 = np.array([0.0, 0.0, 1.0])
        oracle = np.linalg.solve(b.vectors.T, e3)
        got = coefficient_transform(b, e3)
        assert np.allclose(got, oracle, atol=1e-12)
        assert np.allclose(got, [1.0, 1.0, 1.0])

    def test_coefficients_of_basis_vector(self, diff4):
        got = coefficient_transform(diff4, diff4.vectors[1])
        assert np.allclose(got, [0, 1, 0, 0], atol=1e-12)

    def test_transform_synthesize_roundtrip(self, diff4):
        rng = np.random.default_rng(0)
        for _ in range(20):
            coeffs = rng.standard_normal(4)
            back = coefficient_transform(diff4, synthesize(diff4, coeffs))
            assert np.allclose(back, coeffs, atol=1e-12)


class TestSignOperator:
    def test_identity_multiplier(self, diff4):
        f = synthesize(diff4, np.array([1.0, -2.0, 0.5, 3.0]))
        assert np.allclose(sign_operator(diff4, np.ones(4), f), f, atol=1e-12)

    def test_zero_multiplier(self, diff4):
        f = diff4.vectors[2]
        assert np.allclose(sign_operator(diff4, np.zeros(4), f), 0.0)

    def test_indicator_equals_projection(self, diff4):
        rng = np.random.default_rng(1)
        f = synthesize(diff4, rng.standard_normal(4))
        gamma = np.array([1.0, 0.0, 1.0, 0.0])
        assert np.allclose(sign_operator(diff4, gamma, f),
                           coordinate_projection(diff4, [0, 2], f), atol=1e-12)

    def test_large_multiplier_warns(self, diff4):
        with pytest.warns(UserWarning, match="unit cube"):
            sign_operator(diff4, np.array([2.0, 0, 0, 0]), diff4.vectors[0])


class TestCoordinateProjection:
    def test_full_set_is_identity(self, diff4):
        f = synthesize(diff4, np.array([0.3, -1.2, 2.0, 0.7]))
        assert np.allclose(coordinate_projection(diff4, range(4), f), f, atol=1e-12)

    def test_empty_set_is_zero(self, diff4):
        assert np.allclose(coordinate_projection(diff4, [], diff4.vectors[0]), 0.0)

    def test_difference_even_projection_of_unit_vector(self):
        # projecting e_4 onto the 2nd and 4th coefficients leaves
        # e_2 - e_1 + e_4 - e_3
        b = zoo("difference", p=0.5, dim=4)
        e4 = np.array([0.0, 0.0, 0.0, 1.0])
        got = coordinate_projection(b, [1, 3], e4)
        assert np.allclose(got, [-1.0, 1.0, -1.0, 1.0], atol=1e-12)

    def test_idempotence_and_intersection(self, diff4):
        rng = np.random.default_rng(2)
        for _ in range(25):
            f = synthesize(diff4, rng.standard_normal(4))
            a = rng.choice(4, size=rng.integers(0, 5), replace=False)
            b_set = rng.choice(4, size=rng.integers(0, 5), replace=False)
            pa = coordinate_projection(diff4, a, f)
            assert np.allclose(coordinate_projection(diff4, a, pa), pa, atol=1e-12)
            inter = np.intersect1d(a, b_set)
            assert np.allclose(
                coordinate_projection(diff4, b_set, pa),
                coordinate_projection(diff4, inter, f), atol=1e-12)

    def test_out_of_range_rejected(self, diff4):
        with pytest.raises(IndexError):
            coordinate_projection(diff4, [4], diff4.vectors[0])


class TestUnconditionalConstant:
    def test_unit_basis_exact(self, unit5):
        est = unconditional_constant(unit5, mode="exact")
        assert est.lower == pytest.approx(1.0, abs=1e-12)
        assert est.upper == pytest.approx(1.0, abs=1e-12)
        assert est.upper_certified and not est.heuristic

    def test_difference_witness_reaches_sixteen(self, diff4):
        # keeping the 2nd and 4th coefficients of e_4 yields gauge 16 against 1
        est = unconditional_constant(diff4, mode="exact", budget=0)
        e4 = np.array([0.0, 0.0, 0.0, 1.0])
        witness_ratio = (ambient_gauge(diff4.space, coordinate_projection(diff4, [1, 3], e4))
                        / ambient_gauge(diff4.space, e4))
        assert witness_ratio == pytest.approx(16.0, abs=1e-12)
        assert est.lower >= 16.0 - 1e-9
        assert est.upper >= est.lower

    def test_witness_reproducible(self, diff4):
        est = unconditional_constant(diff4, mode="random", budget=60, seed=5)
        f = np.array(est.witness["f"])
        gamma = np.array(est.witness["gamma"])
        ratio = (ambient_gauge(diff4.space, sign_operator(diff4, gamma, f))
                 / ambient_gauge(diff4.space, f))
        assert ratio == pytest.approx(est.lower, rel=1e-12)

    def test_budget_zero_uses_canonical_witnesses(self, diff4):
        est = unconditional_constant(diff4, mode="random", budget=0, seed=0)
        assert est.lower >= 1.0

    def test_exact_mode_cap(self):
        big = zoo("unit", p=0.5, dim=21)
        with pytest.raises(CombinatorialOverflowError):
            unconditional_constant(big, mode="exact")

    def test_certified_upper_formula(self, diff4):
        # sum of ||x_n||^p ||x_n*||^p over n, to the power 1/p
        est = unconditional_constant(diff4, mode="random", budget=10, seed=0)
        products = diff4.vector_norms * diff4.dual_norms
        expect = float(np.sum(products**0.5) ** 2)
        assert est.upper == pytest.approx(expect, rel=1e-12)
        assert est.upper_certified


class TestBasisFiles:
    def test_roundtrip(self, tmp_path, diff4):
        path = tmp_path / "basis.json"
        save_basis(diff4, path)
        loaded = load_basis(path)
        assert np.allclose(loaded.vectors, diff4.vectors)
        assert np.allclose(loaded.duals, diff4.duals)
        assert isinstance(loaded.space, Lp) and loaded.space.p == 0.5

    def test_identity_without_duals(self, tmp_path):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps({
            "ambient": {"kind": "lp", "p": 0.5, "dim": 3},
            "vectors": np.eye(3).tolist(),
        }))
        basis = load_basis(path)
        assert np.allclose(basis.duals, np.eye(3))

    def test_bad_duals_error_names_pair(self, tmp_path):
        duals = np.eye(3)
        duals[0, 1] = 1e-3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "ambient": {"kind": "lp", "p": 0.5, "dim": 3},
            "vectors": np.eye(3).tolist(),
            "duals": duals.tolist(),
        }))
        with pytest.raises(NotABasisError, match=r"\(n=0, k=1\)"):
            load_basis(path)

    def test_non_square_without_duals(self, tmp_path):
        path = tmp_path / "rect.json"
        path.write_text(json.dumps({
            "ambient": {"kind": "lp", "p": 0.5, "dim": 3},
            "vectors": [[1, 0, 0], [0, 1, 0]],
        }))
        with pytest.raises(BasisFileError, match="duals required"):
            load_basis(path)

    def test_singular_matrix(self, tmp_path):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({
            "ambient": {"kind": "lp", "p": 0.5, "dim": 2},
            "vectors": [[1, 1], [1, 1]],
        }))
        with pytest.raises(NotABasisError, match="singular"):
            load_basis(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({
            "ambient": {"kind": "lp", "p": 0.5, "dim": 1},
            "vectors": [[1.0]],
            "surprise": 1,
        }))
        with pytest.raises(BasisFileError, match="unknown fields"):
            load_basis(path)

    def test_block_and_lorentz_ambients_roundtrip(self, tmp_path):
        blk = zoo("block_l2", p=4, blocks=[1, 2])
        path = tmp_path / "blk.json"
        save_basis(blk, path)
        assert isinstance(load_basis(path).space, BlockLpL2)

        from qgreedy.spaces import LorentzSpace

        lorentz_basis = Basis(LorentzSpace(1.0, np.ones(2)), np.eye(2), np.eye(2))
        path2 = tmp_path / "lor.json"
        save_basis(lorentz_basis, path2)
        loaded = load_basis(path2)
        assert isinstance(loaded.space, LorentzSpace)
        assert math.isclose(loaded.space.q, 1.0)

    def test_labels_roundtrip(self, tmp_path):
        basis = Basis(Lp(1.0, 2), np.eye(2), np.eye(2), labels=("first", "second"))
        path = tmp_path / "labelled.json"
        save_basis(basis, path)
        assert load_basis(path).labels == ("first", "second")


class TestExactMultiplierEnumeration:
    def test_suppression_family_matches_bruteforce(self):
        # oracle: explicit scan of all multiplier subsets for a fixed vector
        import itertools

        basis = zoo("difference", p=0.5, dim=5)
        e5 = np.zeros(5)
        e5[4] = 1.0
        best = 0.0
        for k in range(6):
            for subset in itertools.combinations(range(5), k):
                gamma = np.zeros(5)
                gamma[list(subset)] = 1.0
                best = max(best, ambient_gauge(
                    basis.space, sign_operator(basis, gamma, e5)))
        est = unconditional_constant(basis, mode="exact")
        # e5 has gauge 1, so the enumerated lower bound dominates the oracle
        assert est.lower >= best - 1e-9

    def test_sign_family_matches_bruteforce(self):
        import itertools

        basis = zoo("difference", p=0.5, dim=4)
        f = synthesize(basis, np.array([1.0, -0.5, 0.25, 2.0]))
        nf = ambient_gauge(basis.space, f)
        best = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=4):
            best = max(best, ambient_gauge(
                basis.space, sign_operator(basis, np.array(signs), f)) / nf)
        est = unconditional_constant(basis, mode="exact")
        assert est.lower >= best - 1e-9


def gray_rank(gamma, signs: bool) -> int:
    """Position of a {0,1} (signs=False) or {-1,1} (signs=True) multiplier in
    Gray-code order: bit n of the code is gamma_n == 1, resp. gamma_n == -1."""
    g = sum(1 << n for n, x in enumerate(gamma) if x == (-1.0 if signs else 1.0))
    i, shift = g, 1
    while g >> shift:
        i ^= g >> shift
        shift += 1
    return i


class TestBatchedGraySearch:
    @pytest.mark.parametrize("name,d,seed,integer", [
        ("difference", 10, 0, True),
        ("difference", 8, 1, False),
        ("perturbed_unit", 8, 3, False),
        ("perturbed_unit", 7, 5, False),
    ])
    @pytest.mark.parametrize("signs", [False, True])
    @pytest.mark.parametrize("chunk", [None, 100])
    def test_matches_product_bruteforce(self, name, d, seed, integer, signs, chunk,
                                        monkeypatch):
        import itertools

        if chunk is not None:  # many chunks, the last one partial
            monkeypatch.setattr(bases_module, "_GRAY_CHUNK", chunk)
        basis = zoo(name, p=0.5, dim=d, seed=seed)
        rng = np.random.default_rng(seed)
        if integer:
            coeffs = rng.integers(-3, 4, size=d).astype(float)
        else:
            coeffs = rng.standard_normal(d)
        f = synthesize(basis, coeffs)
        coeffs = coefficient_transform(basis, f)
        value, gamma = _gray_best_over_family(basis, coeffs, signs)

        family = (-1.0, 1.0) if signs else (0.0, 1.0)
        scores = {g: ambient_gauge(basis.space, sign_operator(basis, np.array(g), f))
                  for g in itertools.product(family, repeat=d)}
        best = max(scores.values())
        assert value == pytest.approx(best, rel=1e-12)
        # first maximizer in Gray order (ties within rounding count as ties)
        maximizers = [g for g, s in scores.items() if s >= best * (1 - 1e-12)]
        first = min(maximizers, key=lambda g: gray_rank(g, signs))
        assert tuple(gamma.tolist()) == first
        replay = ambient_gauge(basis.space, sign_operator(basis, gamma, f))
        if integer:
            assert replay == value
        else:
            assert replay == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("d,seed", [(1, 0), (5, 1), (9, 2)])
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_sign_family_scores_half_at_odd_d(self, d, seed, chunk, monkeypatch):
        import itertools

        if chunk is not None:
            monkeypatch.setattr(bases_module, "_GRAY_CHUNK", chunk)
        # built before the counter: Basis scores its vector norms in one rows call
        basis = zoo("difference", p=0.5, dim=d)
        scored = []
        real = bases_module.ambient_gauge_rows
        monkeypatch.setattr(bases_module, "ambient_gauge_rows",
                            lambda space, mat: scored.append(len(mat)) or real(space, mat))
        rng = np.random.default_rng(seed)
        f = synthesize(basis, rng.integers(-3, 4, size=d).astype(float))
        value, gamma = _gray_best_over_family(basis, coefficient_transform(basis, f), True)
        # gamma and -gamma score alike, so only i < 2^(d-1) is enumerated
        assert sum(scored) == 1 << (d - 1)
        scores = {g: ambient_gauge(basis.space, sign_operator(basis, np.array(g), f))
                  for g in itertools.product((-1.0, 1.0), repeat=d)}
        best = max(scores.values())
        assert value == pytest.approx(best, rel=1e-12)
        maximizers = [g for g, s in scores.items() if s >= best * (1 - 1e-12)]
        assert tuple(gamma.tolist()) == min(maximizers, key=lambda g: gray_rank(g, True))

    def test_exact_unconditional_replays_witness(self):
        basis = zoo("perturbed_unit", p=0.5, dim=12, seed=3)
        est = unconditional_constant(basis, mode="exact", seed=3)
        f = np.array(est.witness["f"])
        gamma = np.array(est.witness["gamma"])
        replay = (ambient_gauge(basis.space, sign_operator(basis, gamma, f))
                  / ambient_gauge(basis.space, f))
        assert est.lower == pytest.approx(17.396683419181, rel=1e-12)
        assert replay == pytest.approx(est.lower, rel=1e-13)


class TestCustomFileZoo:
    def test_roundtrip_through_zoo(self, tmp_path):
        original = zoo("difference", p=0.5, dim=5)
        path = tmp_path / "custom.json"
        save_basis(original, path)
        loaded = zoo("custom_file", path=path)
        assert np.allclose(loaded.vectors, original.vectors)

    def test_path_required(self):
        with pytest.raises(ValueError, match="path"):
            zoo("custom_file")
