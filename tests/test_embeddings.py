import numpy as np
import pytest

from qgreedy.bases import synthesize, zoo
from qgreedy.embeddings import embed_lorentz_into_space, embed_space_into_weak_lorentz
from qgreedy.errors import InvalidExponentError
from qgreedy.lorentz import lorentz_gauge, power_weight
from qgreedy.reports import companion_csv
from qgreedy.spaces import ambient_gauge


class TestSpaceIntoWeakLorentz:
    def test_unit_basis_constant_is_one(self):
        basis = zoo("unit", p=0.5, dim=8)
        w = power_weight(2.0, 8)  # primitive weight n^(1/p)
        report = embed_space_into_weak_lorentz(basis, w, budget=100, seed=0)
        assert report.constant.lower == pytest.approx(1.0, abs=1e-12)
        assert report.constant.upper == pytest.approx(1.0, abs=1e-12)
        assert report.constant.upper_certified

    def test_unit_companion_table_saturates(self):
        basis = zoo("unit", p=0.5, dim=8)
        w = power_weight(2.0, 8)
        report = embed_space_into_weak_lorentz(basis, w, budget=50, seed=0)
        for row in report.table:
            assert row.s_m == pytest.approx(row.m**2, rel=1e-12)
            assert row.phi == pytest.approx(row.m**2, rel=1e-12)
            assert row.ratio == pytest.approx(1.0, rel=1e-12)

    def test_difference_basis_diverges(self):
        # the last ambient unit vector has m flat coefficients, so the weak
        # gauge reaches s_m while the space gauge stays at 1
        basis = zoo("difference", p=0.5, dim=8)
        w = power_weight(2.0, 8)
        report = embed_space_into_weak_lorentz(basis, w, budget=50, seed=0)
        assert report.constant.lower >= 64.0 - 1e-9
        assert not report.constant.upper_certified
        # companion table shows s_m outrunning phi_l
        last = report.table[-1]
        assert last.ratio > 10

    def test_witness_reproducible(self):
        basis = zoo("difference", p=0.5, dim=6)
        w = power_weight(2.0, 6)
        report = embed_space_into_weak_lorentz(basis, w, budget=40, seed=1)
        f = np.array(report.constant.witness["f"])
        from qgreedy.bases import coefficient_transform

        ratio = (lorentz_gauge(coefficient_transform(basis, f), float("inf"), w)
                 / ambient_gauge(basis.space, f))
        assert ratio == pytest.approx(report.constant.lower, rel=1e-12)

    def test_requires_lp_ambient(self):
        basis = zoo("block_l2", p=4, blocks=[1, 2])
        with pytest.raises(InvalidExponentError):
            embed_space_into_weak_lorentz(basis, np.ones(3))

    @pytest.mark.parametrize("m_max", [0, -3])
    def test_nonpositive_m_max_rejected(self, m_max):
        basis = zoo("unit", p=0.5, dim=4)
        w = power_weight(2.0, 4)
        with pytest.raises(ValueError, match=rf"m_max must be >= 1, got {m_max}"):
            embed_space_into_weak_lorentz(basis, w, budget=10, m_max=m_max)
        with pytest.raises(ValueError, match=rf"m_max must be >= 1, got {m_max}"):
            embed_lorentz_into_space(basis, 0.5, w, budget=10, m_max=m_max)


class TestLorentzIntoSpace:
    def test_l1_identity(self):
        basis = zoo("unit", p=1.0, dim=6)
        report = embed_lorentz_into_space(basis, 1.0, np.ones(6), budget=50, seed=0)
        assert report.constant.lower == pytest.approx(1.0, abs=1e-12)
        assert report.constant.upper == pytest.approx(1.0, abs=1e-12)
        assert report.constant.upper_certified

    def test_unit_p_half_bracket(self):
        basis = zoo("unit", p=0.5, dim=8)
        w = power_weight(2.0, 8)
        report = embed_lorentz_into_space(basis, 0.5, w, budget=100, seed=0)
        # the termwise bound at q = p certifies the ratio bracket [., 1]
        assert report.constant.upper == pytest.approx(1.0, rel=1e-12)
        assert report.constant.lower == pytest.approx(1.0, rel=1e-12)

    def test_indicator_rows_link_to_phi_u(self):
        basis = zoo("difference", p=0.5, dim=6)
        w = power_weight(2.0, 6)
        report = embed_lorentz_into_space(basis, 0.5, w, budget=50, seed=0)
        from qgreedy.democracy import upper_democracy

        for row in report.table:
            exact = upper_democracy(basis, row.m).lower
            assert row.phi == pytest.approx(exact, rel=1e-9)
            assert row.ratio == pytest.approx(row.phi / row.s_m, rel=1e-12)

    def test_indicator_candidate_ratio(self):
        # indicator of a size-m set: space gauge of the indicator sum against
        # its Lorentz gauge
        basis = zoo("unit", p=0.5, dim=6)
        w = power_weight(2.0, 6)
        g = np.zeros(6)
        g[:3] = 1.0
        ratio = (ambient_gauge(basis.space, synthesize(basis, g))
                 / lorentz_gauge(g, 0.5, w))
        report = embed_lorentz_into_space(basis, 0.5, w, budget=10, seed=0)
        assert report.constant.lower >= ratio - 1e-12


class TestCompanionCsv:
    def test_header_carries_phi_label(self):
        basis = zoo("unit", p=0.5, dim=5)
        w = power_weight(2.0, 5)
        up = embed_space_into_weak_lorentz(basis, w, budget=10, seed=0)
        text = companion_csv(up)
        assert text.startswith("m,s_m,phi_l,ratio\n")
        down = embed_lorentz_into_space(basis, 0.5, w, budget=10, seed=0)
        assert companion_csv(down).startswith("m,s_m,phi_u,ratio\n")
