import itertools
import math
import tracemalloc

import numpy as np
import pytest

import qgreedy.strongly_absolute as strongly_absolute_module
from qgreedy.errors import InvalidExponentError, PreconditionError
import qgreedy.verify as verify_module
from qgreedy.numerics import _SIGNS
from qgreedy.rng import (
    KHINTCHINE_MC,
    LEMMA33_SIZES,
    PAIR_FAMILIES,
    SAMPLE_BLOCK,
    VERIFY_VECTORS,
    block_samples,
    substream,
)
from qgreedy.spaces import lp_gauge, lp_gauge_rows
from qgreedy.verify import CheckResult, _lemma32_vectors, suite_lemma32, suite_lemma33
from qgreedy.strongly_absolute import (
    PairFamily,
    concentration_set,
    counting_inequality_check,
    counting_parameters,
    khintchine_square_function,
    random_pair_family,
    strongly_absolute_check,
    strongly_absolute_function,
    strongly_absolute_rows,
)

P_VALUES = (0.3, 0.5, 0.7)
EPS_VALUES = (0.1, 1.0, 10.0)


def lemma32_vectors(trials, seed=0, dim=16):
    out = []
    for i in range(trials):
        rng = substream(seed, VERIFY_VECTORS, i)
        out.append(rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4))
    return np.array(out)


class TestAbsoluteFunction:
    def test_half_half(self):
        assert strongly_absolute_function(0.5, 0.5) == pytest.approx(2.0)

    def test_unit_eps(self):
        assert strongly_absolute_function(0.5, 1.0) == pytest.approx(1.0)

    def test_two_thirds(self):
        assert strongly_absolute_function(2 / 3, 1 / 8) == pytest.approx(64.0)

    def test_rejects_p_outside_unit_interval(self):
        for p in (1.0, 1.5, 0.0, -0.2):
            with pytest.raises(InvalidExponentError):
                strongly_absolute_function(p, 0.5)


class TestAbsoluteCheck:
    def test_flat_pair(self):
        res = strongly_absolute_check([1, 1], 0.5, 1.0)
        assert res.lhs == pytest.approx(2.0)
        assert res.rhs == pytest.approx(4.0)
        assert res.holds

    def test_single_coordinate(self):
        res = strongly_absolute_check([7.5, 0.0], 0.5, 1.0)
        assert res.lhs <= res.rhs + 1e-12
        assert res.holds

    def test_zero_vector(self):
        res = strongly_absolute_check([0.0, 0.0], 0.5, 2.0)
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.holds

    def test_no_violations_over_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            f = rng.standard_normal(12) * 10.0 ** rng.integers(-2, 3)
            for p in (0.3, 0.5, 0.7):
                for eps in (0.1, 1.0, 10.0):
                    assert strongly_absolute_check(f, p, eps).holds


class TestAbsoluteRows:
    def assert_rows_match_scalar(self, rows):
        lhs, rhs, holds = strongly_absolute_rows(rows, P_VALUES, EPS_VALUES)
        for k, p in enumerate(P_VALUES):
            for i, f in enumerate(rows):
                for e, eps in enumerate(EPS_VALUES):
                    one = strongly_absolute_check(f, p, eps)
                    assert lhs[i] == one.lhs
                    assert rhs[k, i, e] == one.rhs
                    assert holds[k, i, e] == one.holds
        return lhs, rhs, holds

    def test_block_matches_scalar_on_lemma32_draws(self):
        rows = lemma32_vectors(2000)
        lhs, rhs, holds = self.assert_rows_match_scalar(rows)
        assert holds.all()
        # the plain scalar gauges agree to the last ulp or two: numpy's array
        # pow and its scalar pow may round (sum)^(1/p) differently
        for k, p in enumerate(P_VALUES):
            for i in range(0, 2000, 7):
                f = rows[i]
                assert lhs[i] == lp_gauge(f, 1.0)
                for e, eps in enumerate(EPS_VALUES):
                    a = strongly_absolute_function(p, eps)
                    plain = max(a * lp_gauge(f, math.inf), eps * lp_gauge(f, p))
                    assert rhs[k, i, e] == pytest.approx(plain, rel=4.5e-16)

    def test_zero_one_hot_and_extreme_rows(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((3, 16))
        rows = np.vstack([np.zeros(16), np.eye(16)[5], -2.5 * np.eye(16)[0],
                          base * 1e200, base * 1e-200, np.full(16, 1e200), np.full(16, 1e-200)])
        lhs, rhs, holds = self.assert_rows_match_scalar(rows)
        assert lhs[0] == 0.0 and (rhs[:, 0] == 0.0).all()
        assert lhs[1] == 1.0 and lhs[2] == 2.5
        assert np.isfinite(rhs).all() and (rhs[:, 3:] > 0).all()
        assert holds.all()
        # a vector of 16 equal entries: ||f||_p = 16^(1/p) |f_0|
        assert lhs[-2] == pytest.approx(1.6e201, rel=1e-12)
        assert lhs[-1] == pytest.approx(1.6e-199, rel=1e-12)

    def test_empty_rows(self):
        lhs, _, holds = strongly_absolute_rows(np.zeros((2, 0)), (0.5,), (1.0,))
        assert lhs.tolist() == [0.0, 0.0] and holds.all()
        assert strongly_absolute_check([], 0.5, 1.0) == strongly_absolute_check([0.0], 0.5, 1.0)


def lemma32_oracle(p=None, trials=10_000, seed=0, dim=16):
    """The per-vector, per-p suite loop, one scalar check per (p, vector, eps),
    over the suite's sampled vectors."""
    p_values = (p,) if p is not None else (0.3, 0.5, 0.7)
    eps_values = (0.1, 1.0, 10.0)
    vectors = list(_lemma32_vectors(dim, trials, seed))
    results = []
    for pv in p_values:
        violations = 0
        witness = None
        for f in vectors:
            for eps in eps_values:
                check = strongly_absolute_check(f, pv, eps)
                if not check.holds:
                    violations += 1
                    witness = {"f": f.tolist(), "p": pv, "eps": eps,
                               "lhs": check.lhs, "rhs": check.rhs}
        results.append(CheckResult(
            name=f"coefficient-sum domination, p={pv} ({trials} vectors x {len(eps_values)} eps)",
            passed=violations == 0,
            detail=f"{violations} violations",
            witness=witness,
        ))
    return results


@pytest.mark.parametrize("p", [None, 0.7])
def test_lemma32_suite_counts_and_witness_match_scalar_loop(p, monkeypatch):
    """With A(eps) forced down to 6, far below the true constant, the suite's
    violation counts and last-violation witnesses are those of the
    per-vector loop."""
    monkeypatch.setattr(strongly_absolute_module, "strongly_absolute_function",
                        lambda p, eps: 6.0)
    monkeypatch.setattr("qgreedy.spaces._ROW_CAP", 97)  # many blocks of vectors
    got = suite_lemma32(p=p, trials=700, seed=4)
    assert got == lemma32_oracle(p=p, trials=700, seed=4)
    violations = int(got[-1].detail.split()[0])
    assert 0 < violations < 700 and got[-1].witness["p"] == 0.7


class TestPairFamily:
    def test_unit_family(self):
        fam = PairFamily(np.eye(4), np.eye(4), 0.5)
        assert fam.size == 4
        assert fam.a == pytest.approx(1.0)
        assert fam.b == pytest.approx(1.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(PreconditionError, match="pair 1"):
            PairFamily(np.eye(3), np.diag([1.0, 2.0, 1.0]), 0.5)

    def test_random_family_is_normalized_and_reproducible(self):
        fam = random_pair_family(8, 5, 0.5, seed=9)
        pairing = np.einsum("ij,ij->i", fam.duals, fam.vectors)
        assert np.allclose(pairing, 1.0, atol=1e-12)
        fam2 = random_pair_family(8, 5, 0.5, seed=9)
        assert np.array_equal(fam.vectors, fam2.vectors)


FAMILY_CASES = [(dim, size, p, seed) for dim, size, p in
                [(1, 1, 0.5), (6, 3, 0.3), (8, 8, 0.5), (16, 11, 0.9), (40, 40, 0.5)]
                for seed in (0, 7, 2**40)]


class TestRandomPairFamily:
    @pytest.mark.parametrize("dim,size,p,seed", FAMILY_CASES)
    def test_deterministic(self, dim, size, p, seed):
        fam = random_pair_family(dim, size, p, seed)
        again = random_pair_family(dim, size, p, seed)
        assert fam.vectors.tobytes() == again.vectors.tobytes()
        assert fam.duals.tobytes() == again.duals.tobytes()
        other = random_pair_family(dim, size, p, seed + 1)
        assert dim == 1 or not np.array_equal(fam.vectors, other.vectors)  # dim 1: +-1

    @pytest.mark.parametrize("dim,size,p,seed", FAMILY_CASES)
    def test_normalized(self, dim, size, p, seed):
        fam = random_pair_family(dim, size, p, seed)
        pairing = np.einsum("ij,ij->i", fam.duals, fam.vectors)
        assert np.all(np.abs(pairing - 1.0) <= strongly_absolute_module.NORMALIZATION_TOL)
        assert np.allclose(lp_gauge_rows(fam.vectors, p), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("dim,size,p,seed", FAMILY_CASES)
    def test_raw_pairings_clear_the_floor(self, dim, size, p, seed):
        """Each functional is u / (u . x): its raw pairing |u . x| is at least
        _MIN_PAIRING |u|_2 |x|_2, that is 1 >= _MIN_PAIRING |x*|_2 |x|_2."""
        fam = random_pair_family(dim, size, p, seed)
        scale = np.linalg.norm(fam.duals, axis=1) * np.linalg.norm(fam.vectors, axis=1)
        assert np.all(strongly_absolute_module._MIN_PAIRING * scale <= 1.0 + 1e-12)

    @pytest.mark.parametrize("dim,size,p,seed,min_pairing", [
        *[(*case, None) for case in FAMILY_CASES],
        (2, 2, 0.5, 5, 0.9), (3, 3, 0.3, 1, 0.9), (3, 1, 0.5, 0, 0.9)])
    def test_matches_pair_by_pair_rejection(self, dim, size, p, seed, min_pairing, monkeypatch):
        """The vectors are the first (size, dim) Gaussian block of the stream
        (seed, PAIR_FAMILIES), scaled row by row to unit l_p gauge; then each
        rejection round draws one row per pair still pending, in pair order
        (a floor of 0.9 at d <= 3 forces many rounds)."""
        if min_pairing is not None:
            monkeypatch.setattr(strongly_absolute_module, "_MIN_PAIRING", min_pairing)
        floor = strongly_absolute_module._MIN_PAIRING
        stream = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(PAIR_FAMILIES,)))
        vectors = stream.standard_normal((size, dim))
        vectors /= lp_gauge_rows(vectors, p)[:, None]
        duals = [None] * size
        pending = list(range(size))
        while pending:
            draws = stream.standard_normal((len(pending), dim))
            still = []
            for n, u in zip(pending, draws):
                raw = float(u @ vectors[n])
                if abs(raw) >= floor * np.linalg.norm(u) * np.linalg.norm(vectors[n]):
                    duals[n] = u / raw
                else:
                    still.append(n)
            pending = still
        fam = random_pair_family(dim, size, p, seed)
        assert np.array_equal(fam.vectors, vectors)
        assert np.allclose(fam.duals, np.array(duals), rtol=1e-13, atol=0)


    def test_rejection_rounds_are_bounded(self):
        """At dimension 1000 a draw clears the floor with probability about
        2e-10, so the 1000 rounds run out and the draw stops with an error."""
        with pytest.raises(PreconditionError, match=r"1 of 1 pairs .* --dim"):
            random_pair_family(1000, 1, 0.5, seed=0)

    def test_hopeless_family_is_refused_before_drawing(self, monkeypatch):
        """By the spherical-cap bound a 3-pair family at dimension 1000 completes
        within the rounds with probability below (1000 * 2 e^-20)^3, about 7e-17,
        so no stream is opened; one pair more than 1e-12 likely is drawn."""
        def no_stream(*key):
            raise AssertionError(f"stream {key} opened")

        monkeypatch.setattr(strongly_absolute_module, "substream", no_stream)
        with pytest.raises(PreconditionError,
                           match=r"^3 pairs would all .* in 1000 rounds at dimension 1000 "
                                 r"with probability below 1e-12; .* --dim$"):
            random_pair_family(1000, 3, 0.5, seed=0)
        with pytest.raises(AssertionError, match="opened"):
            random_pair_family(1000, 2, 0.5, seed=0)


class TestSuiteFamilies:
    def test_suite_checks_random_pair_family(self, monkeypatch):
        """Family i of the suite is random_pair_family(dim, size_i, p,
        seed * 1_000_003 + i), with size_i the i-th block sample, and every
        family is checked exactly once."""
        trials, seed, dim, p = 300, 2, 6, 0.4
        drawn, stacked = {}, []
        real_draw, real_rows = verify_module._pair_family_arrays, verify_module._counting_rows

        def draw(*args):
            drawn[args] = real_draw(*args)
            return drawn[args]

        def rows(vectors, duals, *args):
            stacked.extend(zip(vectors.tolist(), duals.tolist()))
            return real_rows(vectors, duals, *args)

        monkeypatch.setattr(verify_module, "_pair_family_arrays", draw)
        monkeypatch.setattr(verify_module, "_counting_rows", rows)
        assert suite_lemma33(trials=trials, seed=seed, dim=dim, p=p)[0].passed
        sizes = list(block_samples(lambda rng, start: rng.integers(1, dim + 1, size=SAMPLE_BLOCK),
                                   trials, seed, LEMMA33_SIZES))
        want = {(dim, int(size), p, seed * 1_000_003 + i) for i, size in enumerate(sizes)}
        assert set(drawn) == want and len(stacked) == trials
        for args, (vectors, duals) in drawn.items():
            fam = random_pair_family(*args)
            assert np.array_equal(vectors, fam.vectors) and np.array_equal(duals, fam.duals)
        assert sorted(stacked) == sorted((v.tolist(), u.tolist()) for v, u in drawn.values())

    def test_witness_is_the_last_violation(self, monkeypatch):
        monkeypatch.setattr(strongly_absolute_module, "_COUNTING_TOL", -math.inf)
        result = suite_lemma33(trials=600, seed=1, dim=5)[0]
        assert not result.passed and result.detail == "600 violations"
        size = result.witness["size"]
        last = random_pair_family(5, size, 0.5, seed=1_000_003 + 599)
        assert result.witness["vectors"] == last.vectors.tolist()
        assert result.witness["duals"] == last.duals.tolist()
        assert result.witness["bound"] == counting_inequality_check(last).bound

    @pytest.mark.parametrize("size", [1, 3, 7])
    def test_stacked_checks_equal_one_family_checks(self, size):
        families = [random_pair_family(7, size, 0.5, seed=50 + i) for i in range(40)]
        for C in (1.2, 2.0):
            eps, delta, hit, bound, holds = strongly_absolute_module._counting_rows(
                np.stack([f.vectors for f in families]), np.stack([f.duals for f in families]),
                0.5, C)
            for f, fam in enumerate(families):
                one = counting_inequality_check(fam, C)
                assert (one.eps, one.delta, one.bound, one.holds) == (
                    eps[f], delta[f], bound[f], holds[f])
                assert one.omega == tuple(np.flatnonzero(hit[f]).tolist())


class TestConcentrationSet:
    def test_unit_family_small_delta(self):
        fam = PairFamily(np.eye(5)[:3], np.eye(5)[:3], 0.5)
        assert concentration_set(fam, 0.5).tolist() == [0, 1, 2]

    def test_unit_family_large_delta(self):
        fam = PairFamily(np.eye(5)[:3], np.eye(5)[:3], 0.5)
        assert concentration_set(fam, 1.5).size == 0

    def test_skewed_pair(self):
        vec = np.array([[0.8, 0.6]])
        dual = np.array([[1.25, 0.0]])
        fam = PairFamily(vec, dual, 0.5)
        assert concentration_set(fam, 0.9).tolist() == [0]

    def test_monotone_in_delta(self):
        fam = random_pair_family(10, 6, 0.5, seed=1)
        small = set(concentration_set(fam, 0.05).tolist())
        large = set(concentration_set(fam, 0.2).tolist())
        assert large <= small


class TestCountingParameters:
    def test_all_ones(self):
        eps, delta = counting_parameters(2.0, 1, 1, 1, 1, 0.5)
        assert eps == pytest.approx(0.5)
        assert delta == pytest.approx(0.25)

    def test_product_four(self):
        eps, delta = counting_parameters(2.0, 4, 1, 1, 1, 0.5)
        assert eps == pytest.approx(1 / 8)
        assert delta == pytest.approx(1 / 16)

    def test_degenerate_limit(self):
        eps1, delta1 = counting_parameters(1.01, 1, 1, 1, 1, 0.5)
        eps2, delta2 = counting_parameters(1.001, 1, 1, 1, 1, 0.5)
        assert eps2 < eps1 and delta2 < delta1

    def test_rejects_bad_c(self):
        with pytest.raises(PreconditionError):
            counting_parameters(1.0, 1, 1, 1, 1, 0.5)

    @pytest.mark.parametrize("C", [math.nan, math.inf])
    def test_rejects_non_finite_c(self, C):
        with pytest.raises(PreconditionError, match="finite"):
            counting_parameters(C, 1, 1, 1, 1, 0.5)


class TestCountingInequality:
    def test_bound_sums_the_concentration_set_only(self):
        # products (0.9, 0.1); a = (1 + sqrt(0.1))^2, b = 1, so delta = 1 / (4 a) ~ 0.144
        fam = PairFamily(np.array([[1.0, 0.1]]), np.array([[0.9, 1.0]]), 0.5)
        check = counting_inequality_check(fam, 2.0)
        assert check.delta == pytest.approx(0.25 / fam.a)
        assert check.omega == (0,)
        assert check.bound == 2.0 * 0.9 and check.holds

    def test_unit_family_bound_is_c_times_m(self):
        fam = PairFamily(np.eye(6)[:4], np.eye(6)[:4], 0.5)
        check = counting_inequality_check(fam, 2.0)
        assert check.size == 4
        assert check.bound == pytest.approx(8.0)
        assert check.holds
        assert check.omega == (0, 1, 2, 3)

    def test_random_families_never_violate(self):
        for i in range(200):
            size = (i % 6) + 1
            fam = random_pair_family(6, size, 0.5, seed=100 + i)
            assert counting_inequality_check(fam, 2.0).holds

    def test_pairing_threshold_admits_draws(self):
        # |x*(x)| <= |x*|_2 |x|_2 (Cauchy-Schwarz): the rejection loop ends only below 1
        assert 0.0 < strongly_absolute_module._MIN_PAIRING < 1.0

    def test_various_c_values(self):
        fam = random_pair_family(8, 5, 0.5, seed=42)
        for c in (1.2, 2.0, 10.0):
            assert counting_inequality_check(fam, c).holds


class TestKhintchine:
    def test_disjoint_unit_vectors(self):
        cmp = khintchine_square_function(np.eye(3), 0.5, mode="exact")
        assert cmp.lhs == pytest.approx(3.0, abs=1e-12)
        assert cmp.rhs == pytest.approx(3.0, abs=1e-12)
        assert cmp.ratio == pytest.approx(1.0, abs=1e-12)

    def test_two_vector_hand_oracle(self):
        # all four sign choices of (e1+e2) +/- (e1-e2) collapse to 2 e_j, so
        # every pattern has gauge 2 and gauge^(1/2) = sqrt 2
        x = np.array([[1.0, 1.0], [1.0, -1.0]])
        patterns = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        oracle = np.mean([lp_gauge(a * x[0] + b * x[1], 0.5) ** 0.5 for a, b in patterns])
        cmp = khintchine_square_function(x, 0.5, mode="exact")
        assert cmp.lhs == pytest.approx(oracle, abs=1e-12)
        assert cmp.lhs == pytest.approx(math.sqrt(2), abs=1e-12)
        assert cmp.rhs == pytest.approx(2 * 2**0.25, abs=1e-12)
        assert cmp.ratio == pytest.approx(0.5946035575013605, abs=1e-12)

    def test_sign_flip_and_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 7))
        base = khintchine_square_function(x, 0.5, mode="exact").lhs
        flipped = x.copy()
        flipped[2] *= -1.0
        assert khintchine_square_function(flipped, 0.5, mode="exact").lhs == pytest.approx(
            base, rel=1e-12)
        assert khintchine_square_function(x[::-1], 0.5, mode="exact").lhs == pytest.approx(
            base, rel=1e-12)

    def test_mc_agrees_with_exact(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 12))
        exact = khintchine_square_function(x, 0.5, mode="exact")
        mc = khintchine_square_function(x, 0.5, mode="mc", samples=20000, seed=5)
        assert abs(mc.lhs - exact.lhs) <= 3 * mc.stderr

    def test_ratio_bracket_regression_guard(self):
        # fixed bracket for random stacks at p = 1/2; a regression guard, not
        # a sharp constant
        rng = np.random.default_rng(6)
        for _ in range(30):
            k = int(rng.integers(2, 13))
            x = rng.standard_normal((k, 12))
            cmp = khintchine_square_function(x, 0.5, mode="exact")
            assert 0.3 <= cmp.ratio <= 3.5

    @pytest.mark.parametrize("k", [1, 2, 5, 6, 9])
    @pytest.mark.parametrize("cap", [None, 4])
    def test_exact_matches_pattern_bruteforce(self, monkeypatch, k, cap):
        if cap is not None:  # many blocks, some cut inside one mask size
            monkeypatch.setattr("qgreedy.spaces._ROW_CAP", cap)
        x = np.random.default_rng(k).standard_normal((k, 5))
        oracle = math.fsum(float(np.sum(np.abs(np.array(eps) @ x) ** 0.5))
                           for eps in itertools.product((-1.0, 1.0), repeat=k)) / 2**k
        assert khintchine_square_function(x, 0.5, mode="exact").lhs == pytest.approx(
            oracle, rel=1e-12)

    def test_exact_cap(self):
        with pytest.raises(PreconditionError):
            khintchine_square_function(np.eye(21), 0.5, mode="exact")

    def test_mc_needs_samples(self):
        with pytest.raises(PreconditionError):
            khintchine_square_function(np.eye(3), 0.5, mode="mc", samples=1)

    # sample counts at the edges of a row block (4,096 rows at dim 5, 2,048 at
    # dim 16) and of a 16,384-sample chunk
    @pytest.mark.parametrize("dim", [5, 16])
    @pytest.mark.parametrize("k", [1, 3, 12, 13])
    def test_mc_has_the_bits_of_whole_chunk_draws(self, dim, k):
        x = np.random.default_rng(100 * dim + k).standard_normal((k, dim))
        for samples in (2, 2047, 2048, 2049, 4097, 16383, 16384, 16385, 40001):
            got = khintchine_square_function(x, 0.5, mode="mc", samples=samples, seed=samples % 3)
            want = mc_whole_chunks(x, 0.5, samples, samples % 3)
            assert (got.lhs.hex(), got.stderr.hex()) == tuple(v.hex() for v in want)

    def test_mc_memory_is_one_row_block_beyond_the_samples(self):
        # 800 KB of per-sample values and a 2,048-row block; a whole chunk of
        # 16,384 rows peaked at about 4.5 MB
        x = np.random.default_rng(0).standard_normal((12, 16))
        tracemalloc.start()
        try:
            khintchine_square_function(x, 0.5, mode="mc", samples=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


def mc_whole_chunks(vectors, p, samples, seed):
    """(lhs, stderr) of the Monte Carlo sign average, each 16,384-sample chunk
    drawn and scored whole."""
    chunk, k = 1 << 14, vectors.shape[0]
    vals = np.empty(samples)
    for idx, start in enumerate(range(0, samples, chunk)):
        take = min(chunk, samples - start)
        sums = _SIGNS[substream(seed, KHINTCHINE_MC, idx).integers(0, 2, size=(take, k))] @ vectors
        np.abs(sums, out=sums)
        sums **= p
        vals[start : start + take] = sums.sum(axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))
