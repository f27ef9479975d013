import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgreedy.errors import (
    DimensionMismatchError,
    InvalidExponentError,
    InvalidVectorError,
)
from qgreedy.spaces import (
    BlockLpL2,
    Lp,
    LorentzSpace,
    Scratch,
    ambient_gauge,
    ambient_gauge_rows,
    dual_gauge,
    lp_gauge,
    lp_gauge_rows,
    nonincreasing_rearrangement,
    p_triangle_defect,
)
from qgreedy.lorentz import lorentz_gauge, primitive_weight

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=10).map(np.array)
exponents = st.sampled_from([0.3, 0.5, 0.7, 1.0])


class TestLpGauge:
    def test_half_exponent(self):
        assert lp_gauge([1, 1], 0.5) == pytest.approx(4.0, abs=1e-12)

    def test_euclidean(self):
        assert lp_gauge([3, 4], 2) == pytest.approx(5.0, abs=1e-12)

    def test_sup(self):
        assert lp_gauge([3, -1, 2], math.inf) == 3.0

    def test_zero_iff_zero_vector(self):
        assert lp_gauge([0.0, 0.0], 0.5) == 0.0
        assert lp_gauge([0.0, 1e-300], 0.5) > 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_extreme_magnitudes(self):
        root2 = math.sqrt(2.0)
        assert lp_gauge([1e200, 1e200], 2) == pytest.approx(root2 * 1e200, rel=1e-15)
        assert lp_gauge([1e-200, 1e-200], 2) == pytest.approx(root2 * 1e-200, rel=1e-15)
        assert lp_gauge([1e200, -1e200], 0.5) == pytest.approx(4e200, rel=1e-15)
        assert lp_gauge([1e-200, 0.0], 0.5) == pytest.approx(1e-200, rel=1e-15)
        # a true value beyond the float range stays inf
        assert lp_gauge([1e308, 1e308], 0.5) == math.inf

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_rows_extreme_magnitudes(self):
        mat = np.array([[1e200, 1e200], [0.0, 0.0], [1e-200, -1e-200], [3.0, 4.0]])
        out = lp_gauge_rows(mat, 2)
        expected = [math.sqrt(2.0) * 1e200, 0.0, math.sqrt(2.0) * 1e-200, 5.0]
        assert out.tolist() == pytest.approx(expected, rel=1e-15)
        assert out[1] == 0.0

    def test_in_range_values_unchanged(self):
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((50, 7)) * 10.0 ** rng.integers(-5, 5, size=(50, 1))
        for p in (0.3, 0.5, 1.0, 2.0):
            plain = np.sum(np.abs(mat) ** p, axis=1) ** (1.0 / p)
            assert np.array_equal(lp_gauge_rows(mat, p), plain)
            # a scalar gauge is the 1-row case of the row formula
            for row, value in zip(mat, plain):
                assert lp_gauge(row, p) == value

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidVectorError):
            lp_gauge([1.0, math.nan], 0.5)
        with pytest.raises(InvalidVectorError):
            lp_gauge([math.inf, 0.0], 2)

    def test_rejects_bad_exponent(self):
        for p in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidExponentError):
                lp_gauge([1.0], p)


class TestAmbientGauge:
    def test_block_example(self):
        space = BlockLpL2(p=4, blocks=(1, 2))
        # blocks give norms (0, sqrt 2); outer sum (sqrt2^4)^(1/4) = sqrt 2
        assert ambient_gauge(space, [0, 1, 1]) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_block_single_coordinate(self):
        space = BlockLpL2(p=4, blocks=(1, 2))
        assert ambient_gauge(space, [1, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_lp_unit_coordinate(self):
        assert ambient_gauge(Lp(0.5, 3), [1, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ambient_gauge(Lp(0.5, 3), [1, 0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_scalar_gauge_is_the_row_kernel(self, data):
        """A scalar gauge returns exactly the row kernel's value for that row,
        for every space kind, at moduli from 1e-200 to 1e200."""
        n = data.draw(st.integers(1, 8), label="n")
        rows = data.draw(st.integers(1, 5), label="rows")
        mantissa = st.floats(-10.0, 10.0, allow_nan=False)
        entries = st.lists(mantissa, min_size=n, max_size=n)
        scales = 10.0 ** np.array(data.draw(
            st.lists(st.integers(-200, 200), min_size=rows, max_size=rows), label="scales"))
        mat = np.array(data.draw(st.lists(entries, min_size=rows, max_size=rows),
                                 label="mantissas")) * scales[:, None]
        cut = data.draw(st.integers(0, n - 1), label="cut")
        blocks = (cut, n - cut) if cut else (n,)
        w = np.array(data.draw(st.lists(st.floats(0.01, 100.0), min_size=n + 2,
                                         max_size=n + 2), label="weight"))
        exponents = (0.3, 0.5, 2.0, math.inf)
        spaces = [Lp(p, n) for p in exponents]
        spaces += [BlockLpL2(p, blocks) for p in (0.5, 1.5, 2.0)]
        spaces += [LorentzSpace(q, w[:n]) for q in (0.5, 1.5, math.inf)]
        for space in spaces:
            batch = ambient_gauge_rows(space, mat)
            for row, value in zip(mat, batch.tolist()):
                assert ambient_gauge(space, row) == value
        for p in exponents:
            batch = lp_gauge_rows(mat, p)
            for row, value in zip(mat, batch.tolist()):
                assert lp_gauge(row, p) == value
        for q in (0.5, 1.5, math.inf):
            space = LorentzSpace(q, w[:n])
            for row in mat:
                assert lorentz_gauge(row, q, w) == ambient_gauge(space, row)


class TestOverflowSafeGauges:
    """Block and Lorentz gauges recompute an over- or underflowed result with
    the largest modulus factored out, as the lp gauges do."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_block_extreme_magnitudes(self):
        space = BlockLpL2(0.5, (2,))
        root2 = math.sqrt(2.0)
        assert ambient_gauge(space, [1e200, 1e200]) == pytest.approx(root2 * 1e200, rel=1e-15)
        assert ambient_gauge(space, [1e-200, 1e-200]) == pytest.approx(root2 * 1e-200, rel=1e-15)
        rows = ambient_gauge_rows(space, np.array([[1e200, 1e200], [1e-200, -1e-200], [0.0, 0.0]]))
        assert rows.tolist() == pytest.approx([root2 * 1e200, root2 * 1e-200, 0.0], rel=1e-15)
        # one overflowing block beside an in-range one, and the dual gauge
        two = BlockLpL2(0.5, (1, 1))
        assert ambient_gauge(two, [1e200, 1.0]) == pytest.approx(1e200, rel=1e-15)
        assert dual_gauge(BlockLpL2(2.0, (2,)), [1e200, 1e200]) == pytest.approx(
            root2 * 1e200, rel=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_lorentz_extreme_magnitudes(self):
        space = LorentzSpace(2, np.ones(2))
        root3 = math.sqrt(3.0)
        assert ambient_gauge(space, [1e200, 1e200]) == pytest.approx(root3 * 1e200, rel=1e-15)
        assert ambient_gauge(space, [1e-200, 1e-200]) == pytest.approx(root3 * 1e-200, rel=1e-15)
        rows = ambient_gauge_rows(space, np.array([[1e200, 1e200], [1e-200, 1e-200], [0.0, 0.0]]))
        assert rows.tolist() == pytest.approx([root3 * 1e200, root3 * 1e-200, 0.0], rel=1e-15)
        assert lorentz_gauge([1e200, 1e200], 2, np.ones(2)) == pytest.approx(root3 * 1e200,
                                                                            rel=1e-15)

    def test_in_range_values_match_plain_formulas(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-5, 5, size=(40, 1))
        a = np.abs(mat)
        for p in (0.3, 0.5, 2.0):
            space = BlockLpL2(p, (2, 3, 1))
            norms = np.sqrt(np.add.reduceat(mat * mat, space.offsets, axis=1))
            plain = np.sum(norms**p, axis=1) ** (1.0 / p)
            assert np.array_equal(ambient_gauge_rows(space, mat), plain)
            for row, value in zip(mat, plain):
                assert ambient_gauge(space, row) == value
        for q in (0.5, 1.5):
            w = np.arange(1.0, 7.0)
            space = LorentzSpace(q, w)
            s = primitive_weight(w)
            srt = np.sort(a, axis=1)[:, ::-1].copy()
            plain = np.sum(srt**q * s ** (q - 1.0) * w, axis=1) ** (1.0 / q)
            assert np.array_equal(ambient_gauge_rows(space, mat), plain)
            for row, value in zip(mat, plain):
                assert ambient_gauge(space, row) == value
                assert lorentz_gauge(row, q, w) == value


# The out-of-place formulas the row kernels had before they wrote their
# moduli in place, kept as the reference they must match bit for bit.
def _reference_guarded(plain, a, *args):
    out = plain(a, *args)
    if out.size == 0 or (out.min() > 0.0 and math.isfinite(out.sum())) or a.shape[1] == 0:
        return out
    bad = ~np.isfinite(out) | (out == 0.0)
    if bad.any():
        sub = a[bad]
        scale = sub.max(axis=1, keepdims=True)
        ratio = np.divide(sub, scale, out=np.zeros_like(sub), where=scale > 0)
        out[bad] = scale[:, 0] * plain(ratio, *args)
    return out


def _reference_lp_sum(a, p):
    return a.max(axis=-1) if math.isinf(p) else np.sum(a**p, axis=-1) ** (1.0 / p)


def _reference_block_sum(a, space, p):
    return _reference_lp_sum(np.sqrt(np.add.reduceat(a * a, space.offsets, axis=-1)), p)


def _reference_lorentz_sum(a, q, w, s):
    if math.isinf(q):
        return np.max(s * a, axis=-1)
    return np.sum(a**q * s ** (q - 1.0) * w, axis=-1) ** (1.0 / q)


def _reference_rows(space, rows):
    """The reference gauges of the rows of ``rows`` in ``space``."""
    a = np.abs(rows)
    if isinstance(space, Lp):
        return _reference_guarded(_reference_lp_sum, a, space.p)
    if isinstance(space, BlockLpL2):
        return _reference_guarded(_reference_block_sum, a, space, space.p)
    return _reference_guarded(_reference_lorentz_sum, -np.sort(-a, axis=-1), space.q,
                              space.weight, space.primitive)


def _conjugate(p):
    return math.inf if p <= 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)


class TestInPlaceKernels:
    """The row kernels overwrite their moduli array in place, and give the
    bits of the out-of-place formulas, guard rows included, without touching
    the caller's array."""

    EXPONENTS = (0.5, 1 / 3, 0.3, 1.0, 1.5, 2.0, math.inf)

    @staticmethod
    def rows(width):
        rng = np.random.default_rng(width)
        mat = rng.standard_normal((300, width)) * 10.0 ** rng.integers(-5, 5, size=(300, 1))
        guards = np.array([np.full(width, 1e200), np.full(width, -1e-200), np.zeros(width)])
        mixed = np.zeros(width)
        mixed[0], mixed[-1] = 1e200, 1.0
        return np.vstack((guards, [mixed], mat))

    @staticmethod
    def assert_bits(got, want):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("p", EXPONENTS)
    @pytest.mark.parametrize("blocks", [(2, 3, 1), (4,) * 8])
    def test_lp_and_block_kernels(self, p, blocks):
        mat = self.rows(sum(blocks))
        before = mat.copy()
        space, lp = BlockLpL2(p, blocks), Lp(p, sum(blocks))
        a = np.abs(mat)
        self.assert_bits(lp_gauge_rows(mat, p), _reference_guarded(_reference_lp_sum, a, p))
        self.assert_bits(ambient_gauge_rows(lp, mat),
                         _reference_guarded(_reference_lp_sum, a, p))
        self.assert_bits(ambient_gauge_rows(space, mat),
                         _reference_guarded(_reference_block_sum, a, space, p))
        for row in mat[:8]:
            # the dual gauge rejects a Lorentz ambient; the scalar gauge is the 1-row call
            one = np.abs(row)[None, :]
            assert dual_gauge(lp, row) == _reference_guarded(
                _reference_lp_sum, one, _conjugate(p))[0]
            assert dual_gauge(space, row) == _reference_guarded(
                _reference_block_sum, one, space, _conjugate(p))[0]
            assert ambient_gauge(space, row) == _reference_guarded(
                _reference_block_sum, one, space, p)[0]
        assert np.array_equal(mat, before)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, math.inf])
    @pytest.mark.parametrize("width", [6, 32])
    def test_lorentz_kernel(self, q, width):
        mat = self.rows(width)
        before = mat.copy()
        w = 2.0 * np.arange(1.0, width + 1.0) - 1.0
        space = LorentzSpace(q, w)
        srt = -np.sort(-np.abs(mat), axis=-1)
        want = _reference_guarded(_reference_lorentz_sum, srt, q, w, space.primitive)
        self.assert_bits(ambient_gauge_rows(space, mat), want)
        for row, value in zip(mat[:8], want[:8]):
            assert ambient_gauge(space, row) == value
        assert np.array_equal(mat, before)

    @staticmethod
    def spaces(width):
        return [Lp(p, width) for p in TestInPlaceKernels.EXPONENTS] + [
            BlockLpL2(p, (2, width - 2)) for p in (0.5, 2.0, math.inf)] + [
            LorentzSpace(q, 2.0 * np.arange(1.0, width + 1.0) - 1.0)
            for q in (0.5, 1.0, 2.0, math.inf)]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("width", [6, 32])
    def test_scratch_gives_the_same_bits(self, width):
        """One search scratch, its moduli NaN-filled at the start, reused
        across calls that grow and shrink it, gives the reference bits, guard
        rows included, as a fresh array does; the rescale path reads the
        caller's rows, and ``mat`` is unchanged."""
        mat = self.rows(width)
        before = mat.copy()
        scratch = Scratch()
        scratch("moduli", 4, width).fill(np.nan)
        for space in self.spaces(width):
            for rows in (mat[:4], mat, mat[2:3], mat[:150], mat[::-2]):
                rows = np.ascontiguousarray(rows)
                want = _reference_rows(space, rows)
                self.assert_bits(ambient_gauge_rows(space, rows), want)
                self.assert_bits(ambient_gauge_rows(space, rows, scratch), want)
        assert np.array_equal(mat, before)


class TestDualGauge:
    def test_sup_norm_for_small_p(self):
        assert dual_gauge(Lp(0.5, 3), [1, -2, 0.5]) == 2.0

    def test_conjugate_for_p2(self):
        assert dual_gauge(Lp(2, 2), [3, 4]) == pytest.approx(5.0)

    def test_l1_for_sup_space(self):
        assert dual_gauge(Lp(math.inf, 3), [1, -2, 0.5]) == pytest.approx(3.5)

    def test_lorentz_unsupported(self):
        with pytest.raises(NotImplementedError):
            dual_gauge(LorentzSpace(1.0, np.ones(2)), [1, 0])


class TestRearrangement:
    def test_basic(self):
        assert nonincreasing_rearrangement([1, -3, 2]).tolist() == [3, 2, 1]

    def test_zeros(self):
        assert nonincreasing_rearrangement([0, 0]).tolist() == [0, 0]

    def test_ties(self):
        assert nonincreasing_rearrangement([2, 2, -2]).tolist() == [2, 2, 2]

    @given(vectors)
    def test_is_permutation_of_moduli(self, f):
        out = nonincreasing_rearrangement(f)
        assert sorted(out) == sorted(np.abs(f))
        assert np.all(np.diff(out) <= 0)


class TestTriangleDefect:
    def test_disjoint_supports_give_zero(self):
        assert p_triangle_defect([1, 0], [0, 1], 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_aligned_is_negative(self):
        # ||(2,0)||^(1/2) = sqrt 2 against the parts' sum 2
        defect = p_triangle_defect([1, 0], [1, 0], 0.5)
        assert defect == pytest.approx(math.sqrt(2) - 2.0, abs=1e-12)
        assert defect < 0

    def test_zero_vectors(self):
        assert p_triangle_defect([0, 0], [0, 0], 0.5) == 0.0

    def test_rejects_p_above_one(self):
        with pytest.raises(InvalidExponentError):
            p_triangle_defect([1], [1], 2.0)

    @given(vectors, vectors, exponents)
    @settings(max_examples=150)
    def test_never_positive(self, f, g, p):
        n = min(f.size, g.size)
        f, g = f[:n], g[:n]
        # tolerance scales with the p-power sums; raw 1e-12 applies at unit scale
        scale = 1.0 + lp_gauge(f, p) ** p + lp_gauge(g, p) ** p
        assert p_triangle_defect(f, g, p) <= 1e-12 * scale


class TestAxioms:
    @given(vectors, st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=150)
    def test_homogeneity(self, f, t):
        for space in (Lp(0.5, f.size), BlockLpL2(2.5, (f.size,)),
                      LorentzSpace(1.0, np.ones(f.size))):
            left = ambient_gauge(space, t * f)
            right = abs(t) * ambient_gauge(space, f)
            assert left == pytest.approx(right, rel=1e-12, abs=1e-9)

    @given(vectors, st.data())
    @settings(max_examples=150)
    def test_monotonicity(self, f, data):
        shrink = np.array(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=f.size, max_size=f.size)))
        g = shrink * f
        for space in (Lp(0.5, f.size), BlockLpL2(2.5, (f.size,)),
                      LorentzSpace(1.0, np.ones(f.size))):
            assert ambient_gauge(space, g) <= ambient_gauge(space, f) * (1 + 1e-12) + 1e-12

    @given(vectors, st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    @settings(max_examples=150)
    def test_interpolation_identity(self, f, p):
        # ||f||_1 <= ||f||_inf^(1-p) ||f||_p^p
        lhs = lp_gauge(f, 1)
        rhs = lp_gauge(f, math.inf) ** (1 - p) * lp_gauge(f, p) ** p
        assert lhs <= rhs * (1 + 1e-12) + 1e-12

    def test_positivity_on_sampled_vectors(self):
        rng = np.random.default_rng(0)
        spaces = (Lp(0.5, 5), BlockLpL2(4, (2, 3)), LorentzSpace(0.5, np.arange(1.0, 6.0)))
        for _ in range(50):
            f = rng.standard_normal(5)
            if not np.any(f):
                continue
            for space in spaces:
                assert ambient_gauge(space, f) > 0


class TestSpaceValidation:
    def test_lp_rejects_bad_exponent(self):
        with pytest.raises(InvalidExponentError):
            Lp(0.0, 3)

    def test_block_rejects_empty(self):
        with pytest.raises(InvalidVectorError):
            BlockLpL2(1.0, ())

    def test_block_dim(self):
        assert BlockLpL2(4, (1, 2, 3)).dim == 6

    def test_lorentz_rejects_nonpositive_weight(self):
        from qgreedy.errors import InvalidWeightError

        with pytest.raises(InvalidWeightError):
            LorentzSpace(1.0, np.array([1.0, 0.0]))
