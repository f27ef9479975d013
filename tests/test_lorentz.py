import math

import numpy as np
import pytest

from qgreedy.errors import InvalidWeightError
from qgreedy.lorentz import (
    difference_weight,
    log_damped_primitive,
    lorentz_gauge,
    power_primitive,
    power_weight,
    primitive_weight,
)
from qgreedy.spaces import lp_gauge


class TestPrimitiveWeight:
    def test_flat(self):
        assert primitive_weight([1, 1, 1]).tolist() == [1, 2, 3]

    def test_two_terms(self):
        assert primitive_weight([1, 3]).tolist() == [1, 4]

    def test_square_primitive(self):
        # the weight (1, 3, 5) accumulates to n^2
        assert primitive_weight([1, 3, 5]).tolist() == [1, 4, 9]
        assert power_weight(2.0, 3).tolist() == [1, 3, 5]

    def test_matches_fsum_on_long_input(self):
        rng = np.random.default_rng(2)
        w = rng.random(5000) + 1e-3
        s = primitive_weight(w)
        for k in (1, 7, 512, 513, 4999, 5000):
            assert s[k - 1] == pytest.approx(math.fsum(w[:k]), rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidWeightError):
            primitive_weight([1.0, 0.0])


class TestDifferenceWeight:
    def test_flat(self):
        assert difference_weight([1, 2, 3]).tolist() == [1, 1, 1]

    def test_squares(self):
        assert difference_weight([1, 4, 9]).tolist() == [1, 3, 5]

    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidWeightError):
            difference_weight([2, 2])

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        w = rng.random(40) + 0.01
        s = primitive_weight(w)
        assert difference_weight(s) == pytest.approx(w, rel=1e-9)


class TestConstructors:
    def test_power_primitive(self):
        assert power_primitive(0.5, 4).tolist() == [1.0, math.sqrt(2), math.sqrt(3), 2.0]

    def test_log_damped(self):
        s = log_damped_primitive(0.5, 1.0, 3)
        expect = [n**2 / (1 + math.log(n)) for n in (1, 2, 3)]
        assert s == pytest.approx(expect, rel=1e-12)


class TestLorentzGauge:
    def test_flat_weak_gauge_counts_support(self):
        for m in (1, 3, 7):
            f = np.zeros(10)
            f[:m] = 1.0
            assert lorentz_gauge(f, math.inf, np.ones(10)) == pytest.approx(m, abs=1e-12)

    def test_q1_flat_weight_is_l1(self):
        assert lorentz_gauge([2, 1], 1.0, [1, 1]) == pytest.approx(3.0, abs=1e-12)

    def test_weak_gauge_with_square_primitive(self):
        # rearranged values (4, 1) against s = (1, 4): max(4, 4) = 4
        assert lorentz_gauge([1, 4], math.inf, power_weight(2.0, 2)) == pytest.approx(4.0)

    def test_l1_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = rng.standard_normal(9)
            got = lorentz_gauge(f, 1.0, np.ones(9))
            assert got == pytest.approx(lp_gauge(f, 1.0), rel=1e-12)

    def test_rearrangement_invariance_exact(self):
        rng = np.random.default_rng(3)
        w = rng.random(8) + 0.1
        f = rng.standard_normal(8)
        base = lorentz_gauge(f, 0.7, w)
        for _ in range(10):
            perm = rng.permutation(8)
            assert lorentz_gauge(f[perm], 0.7, w) == base

    def test_monotone_truncations_increase(self):
        # f^(k) keeps the k largest moduli; gauges must be non-decreasing in k
        rng = np.random.default_rng(4)
        w = rng.random(10) + 0.1
        f = rng.standard_normal(10)
        order = np.argsort(-np.abs(f))
        prev = 0.0
        for k in range(1, 11):
            fk = np.zeros(10)
            fk[order[:k]] = f[order[:k]]
            val = lorentz_gauge(fk, 0.5, w)
            assert val >= prev - 1e-12
            prev = val

    def test_lp_comparison_bracket_and_permutation_stability(self):
        # with s_n = n^(1/p) and q = p = 1/2 the gauge is equivalent to the
        # lp gauge; the provable bracket at p = 1/2 is [1, (1/p)^(1/p)] = [1, 4]
        p = 0.5
        w = power_weight(1.0 / p, 12)
        rng = np.random.default_rng(5)
        ratios = []
        for _ in range(100):
            f = rng.standard_normal(12)
            ratio = lorentz_gauge(f, p, w) / lp_gauge(f, p)
            ratios.append(ratio)
            assert 1.0 - 1e-9 <= ratio <= 4.0 + 1e-9
            perm = rng.permutation(12)
            assert lorentz_gauge(f[perm], p, w) == lorentz_gauge(f, p, w)
        assert max(ratios) > 1.0

    def test_short_weight_rejected(self):
        with pytest.raises(InvalidWeightError):
            lorentz_gauge([1, 2, 3], 1.0, [1, 1])


class TestPrimitivePrefix:
    def test_prefix_argument(self):
        assert primitive_weight([1, 3, 5], 2).tolist() == [1, 4]

    def test_prefix_out_of_range(self):
        with pytest.raises(InvalidWeightError):
            primitive_weight([1, 1], 3)


class TestStoredPrimitiveWeight:
    def test_computed_once_at_construction(self, monkeypatch):
        import qgreedy.lorentz as lorentz_module
        import qgreedy.spaces as spaces_module
        from qgreedy.spaces import LorentzSpace, ambient_gauge, ambient_gauge_rows

        w = power_weight(2.0, 16)
        space = LorentzSpace(0.5, w)
        assert np.array_equal(space.primitive, primitive_weight(w))
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((20, 16))
        expected = [lorentz_gauge(row, 0.5, w) for row in mat]

        calls = []
        for module, name in ((lorentz_module, "check_weight"),
                             (lorentz_module, "primitive_weight"),
                             (spaces_module, "check_weight"),
                             (spaces_module, "compensated_cumsum")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        scalar = [ambient_gauge(space, row) for row in mat]
        rows = ambient_gauge_rows(space, mat)
        assert calls == []
        # the same accumulation of the same weight through one row kernel:
        # bit-identical values
        assert scalar == expected
        assert rows.tolist() == expected
