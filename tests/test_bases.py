import json
import math

import numpy as np
import pytest

import qgreedy.bases as bases_module
from qgreedy.bases import (
    Basis,
    _exact_family_best,
    coefficient_transform,
    coordinate_projection,
    load_basis,
    save_basis,
    sign_operator,
    synthesize,
    unconditional_constant,
    zoo,
)
from qgreedy.cli import main as cli_main
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

    def test_descent_makes_one_call_per_step(self, monkeypatch):
        # one rows call per (pass, coordinate, candidate) over the whole pool
        # chunk, after one for the starting multipliers; not one per move
        d = 32
        basis = zoo("difference", p=0.5, dim=d)
        per_chunk = []
        real = bases_module._descend_pool

        def counted(basis, coeffs):
            result, calls = gauge_calls(monkeypatch, real, basis, coeffs)
            per_chunk.append((len(calls) - 1, sum(calls)))
            return result

        monkeypatch.setattr(bases_module, "_descend_pool", counted)
        unconditional_constant(basis, mode="random", budget=2000, seed=0)
        assert per_chunk
        for steps, scored in per_chunk:
            assert steps <= 4 * 3 * d
            assert scored > 4 * 3 * d  # moves far outnumber the calls that score them

    @pytest.mark.parametrize("mode", ["random", "exact"])
    @pytest.mark.parametrize("basis", [
        pytest.param(zoo("unit", p=0.5, dim=6), id="unit"),
        pytest.param(zoo("unit", p=2.0, dim=6), id="unit-l2"),
        pytest.param(zoo("block_l2", p=0.5, blocks=(2, 3, 1)), id="block_l2"),
    ])
    def test_identity_stops_at_the_initial_witness(self, monkeypatch, basis, mode):
        """On the identity no multiplier beats gamma = 1: the pool is skipped,
        and the result is the full search's."""
        full_pool = []
        real_descend = bases_module._descend_pool

        def descend(basis, coeffs):
            full_pool.append(len(coeffs))
            return real_descend(basis, coeffs)

        monkeypatch.setattr(bases_module, "_descend_pool", descend)
        exiting = unconditional_constant(basis, mode=mode, budget=300, seed=2)
        assert full_pool == []
        monkeypatch.setattr(bases_module, "_is_identity", lambda basis: False)
        full = unconditional_constant(basis, mode=mode, budget=300, seed=2)
        assert full_pool
        assert exiting.as_dict() == full.as_dict()

    def test_scaled_diagonal_runs_the_full_search(self, monkeypatch):
        """On a non-unit diagonal the coefficients duals @ f round before the
        rebuild, so a ratio can round above 1 and the search must run."""
        diag = np.array([0.3, 1.7, -2.9, 0.45, 5.0, 1.1])
        basis = Basis(Lp(0.5, 6), np.diag(diag), np.diag(1.0 / diag))
        pool = []
        real_descend = bases_module._descend_pool
        monkeypatch.setattr(bases_module, "_descend_pool",
                            lambda basis, coeffs: pool.append(len(coeffs))
                            or real_descend(basis, coeffs))
        est = unconditional_constant(basis, mode="random", budget=300, seed=2)
        assert pool
        assert est.upper == 1.0 and est.upper_certified

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


    @pytest.mark.parametrize("fields,message", [
        ({"labels": 5}, "'labels' must be a list"),
        ({"labels": "ab"}, "'labels' must be a list"),
        ({"labels": {"a": 1, "b": 2}}, "'labels' must be a list"),
        ({"ambient": {"kind": "lp", "p": 0.5, "dim": [2]}}, "kind 'lp' has a bad field 'dim'"),
        ({"ambient": {"kind": "lp", "p": None, "dim": 2}}, "kind 'lp' has a bad field 'p'"),
        ({"ambient": {"kind": "lp", "p": [0.5], "dim": 2}}, "kind 'lp' has a bad field 'p'"),
        ({"ambient": {"kind": "block_lp_l2", "p": 0.5, "blocks": 4}},
         "kind 'block_lp_l2' has a bad field 'blocks'"),
    ], ids=["labels-int", "labels-str", "labels-dict", "lp-dim-list", "lp-p-null", "lp-p-list",
            "block-blocks-int"])
    def test_malformed_file_is_a_configuration_error(self, tmp_path, capsys, fields, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"ambient": {"kind": "lp", "p": 0.5, "dim": 2},
                                    "vectors": np.eye(2).tolist(), **fields}))
        with pytest.raises(BasisFileError, match=message):
            load_basis(path)
        assert cli_main(["analyze", "--basis", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err
        assert "Traceback" not in err


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


def feed_rank(gamma, support, signs: bool):
    """Order key of a multiplier in the exact search: the size of its set over
    the support (the ones of a {0,1} multiplier, the minus ones of a {-1,1}
    one), then that set lexicographically (indicator order, descending)."""
    bits = [gamma[n] == (-1.0 if signs else 1.0) for n in support]
    return sum(bits), [not b for b in bits]


def family_scores(basis, coeffs, signs: bool):
    """||S_gamma f|| for every multiplier of the family that is 0 (suppression)
    or 1 (signs) off the support of ``coeffs``, by brute force over the support."""
    import itertools

    support = np.flatnonzero(coeffs)
    scores = {}
    for values in itertools.product((-1.0, 1.0) if signs else (0.0, 1.0), repeat=support.size):
        gamma = np.ones(basis.d) if signs else np.zeros(basis.d)
        gamma[support] = values
        scores[tuple(gamma.tolist())] = ambient_gauge(basis.space, (gamma * coeffs) @ basis.vectors)
    return scores


def gauge_calls(monkeypatch, fn, *args):
    """(fn(*args), the rows of each gauge call it makes in qgreedy.bases, in order)."""
    scored = []
    real = bases_module.ambient_gauge_rows
    with monkeypatch.context() as patch:
        patch.setattr(bases_module, "ambient_gauge_rows",
                      lambda space, mat: scored.append(len(mat)) or real(space, mat))
        return fn(*args), scored


def rows_scored(monkeypatch, fn, *args):
    """(fn(*args), the number of rows its gauge calls in qgreedy.bases score)."""
    result, scored = gauge_calls(monkeypatch, fn, *args)
    return result, sum(scored)


class TestBatchedGraySearch:
    """The exact multiplier search, scored in batches from the subset-sum feed
    (the class keeps its name, from the Gray-code search it replaced, so that
    its test ids stay stable)."""

    def check_against_bruteforce(self, basis, coeffs, signs, monkeypatch, exact_bits=False):
        """Value, first maximizer, rows scored and replay of one family; returns
        the rows scored for the sign family."""
        families, rows = rows_scored(monkeypatch, _exact_family_best, basis, coeffs)
        value, gamma = families[signs]
        support = np.flatnonzero(coeffs)
        k = support.size
        # one feed scores every subset for suppression; gamma and -gamma score
        # alike, so the sign family reads only the masks of at most k // 2
        sign_rows = rows - (1 << k)
        assert sign_rows == sum(math.comb(k, j) for j in range(k // 2 + 1))
        scores = family_scores(basis, coeffs, signs)
        best = max(scores.values())
        assert value == pytest.approx(best, rel=1e-12)
        # the first maximizer in size-then-lexicographic order (ties within rounding count)
        maximizers = [g for g, s in scores.items() if s >= best * (1 - 1e-12)]
        assert tuple(gamma.tolist()) == min(maximizers, key=lambda g: feed_rank(g, support, signs))
        replay = ambient_gauge(basis.space, (gamma * coeffs) @ basis.vectors)
        if exact_bits:
            assert replay == value
        else:
            assert replay == pytest.approx(value, rel=1e-12)
        return sign_rows

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
        if chunk is not None:  # many blocks, the last one partial
            monkeypatch.setattr("qgreedy.spaces._ROW_CAP", chunk)
        basis = zoo(name, p=0.5, dim=d, seed=seed)
        rng = np.random.default_rng(seed)
        if integer:  # zeros among them: the search runs over the support
            coeffs = rng.integers(-3, 4, size=d).astype(float)
        else:
            coeffs = rng.standard_normal(d)
        coeffs = coefficient_transform(basis, synthesize(basis, coeffs))
        self.check_against_bruteforce(basis, coeffs, signs, monkeypatch, exact_bits=integer)

    @pytest.mark.parametrize("d,seed", [(1, 0), (5, 1), (9, 2)])
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_sign_family_scores_half_at_odd_d(self, d, seed, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr("qgreedy.spaces._ROW_CAP", chunk)
        basis = zoo("difference", p=0.5, dim=d)
        # full support of odd size k: sum_{j <= k // 2} C(k, j) = 2^(k-1) masks
        coeffs = np.random.default_rng(seed).choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=d)
        assert self.check_against_bruteforce(basis, coeffs, True, monkeypatch,
                                             exact_bits=True) == 1 << (d - 1)

    @pytest.mark.parametrize("zeros", [(), (0,), (1, 4), (0, 2, 3, 6), tuple(range(7))])
    @pytest.mark.parametrize("signs", [False, True])
    @pytest.mark.parametrize("chunk", [None, 3])
    def test_zero_coefficients_leave_the_support(self, zeros, signs, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr("qgreedy.spaces._ROW_CAP", chunk)
        basis = zoo("perturbed_unit", p=0.5, dim=7, seed=2)
        coeffs = np.random.default_rng(len(zeros)).standard_normal(7)
        coeffs[list(zeros)] = 0.0
        self.check_against_bruteforce(basis, coeffs, signs, monkeypatch)

    @pytest.mark.parametrize("name,d,integer", [("difference", 8, True), ("unit", 6, True),
                                                ("perturbed_unit", 9, False)])
    def test_exact_witnesses_replay_through_sign_operator(self, name, d, integer):
        basis = zoo(name, p=0.5, dim=d, seed=1)
        est = unconditional_constant(basis, mode="exact", budget=0)
        f, gamma = np.array(est.witness["f"]), np.array(est.witness["gamma"])
        replay = (ambient_gauge(basis.space, sign_operator(basis, gamma, f))
                  / ambient_gauge(basis.space, f))
        if integer:
            assert replay == est.lower
        else:
            assert replay == pytest.approx(est.lower, rel=1e-13)

    def test_exact_unconditional_replays_witness(self):
        basis = zoo("perturbed_unit", p=0.5, dim=12, seed=3)
        est = unconditional_constant(basis, mode="exact", seed=3)
        f = np.array(est.witness["f"])
        gamma = np.array(est.witness["gamma"])
        replay = (ambient_gauge(basis.space, sign_operator(basis, gamma, f))
                  / ambient_gauge(basis.space, f))
        assert est.lower == pytest.approx(17.396683419181, rel=1e-12)
        assert replay == pytest.approx(est.lower, rel=1e-13)


