"""The certified bounds of :mod:`qgreedy.bounds` hold for every computed gauge
they claim to bound.  The row ceilings' own property tests, with the
operator searches they prune, are ``tests/test_greedy.py::TestRowCeilings``."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_greedy import _ceiling_basis, _coefficient_rows, _moduli

import qgreedy.bases as bases_module
from qgreedy.bounds import completion_bounds, row_ceilings
from qgreedy.spaces import Lp, _subset_sums, ambient_gauge_rows

KINDS = ["difference", "perturbed_unit", "dense", "block",
         *(f"lorentz-{v}-{w}" for v in ("difference", "dense") for w in ("increasing", "decreasing"))]
EXPONENTS = [0.01, 0.1, 0.5, 1.0, 2.0, math.inf]


def completion_gauges(vectors, space, members, start, r):
    """The computed gauges of every completion of the partial set ``members``
    by r members of [start, d), summed as the feed sums them: the partial sum
    in member order from -0.0, then each tail member in turn; and that sum."""
    partial = np.full(vectors.shape[1], -0.0)
    for i in members:
        partial = partial + vectors[i]
    rows = []
    for tail in itertools.combinations(range(start, len(vectors)), r):
        y = partial.copy()
        for i in tail:
            y = y + vectors[i]
        rows.append(y)
    return ambient_gauge_rows(space, np.array(rows)), partial


@st.composite
def _vectors(draw, base):
    """The basis vectors with each row scaled by a modulus of 1e-6..1e6 and,
    for cancellation, the last row optionally near the negated first one."""
    scales = np.array(draw(st.lists(_moduli, min_size=len(base), max_size=len(base))))
    vectors = base * scales[:, None]
    if draw(st.booleans()):
        eps = draw(st.one_of(st.just(0.0), st.floats(min_value=1e-15, max_value=1e-9)))
        vectors[-1] = -vectors[0] * (1 + eps) + eps * vectors[-1]
    return vectors


class TestCompletionBounds:
    @pytest.mark.parametrize("p", EXPONENTS)
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_bounds_hold_for_every_computed_completion(self, kind, p, data):
        basis = _ceiling_basis(kind, p)
        vectors = data.draw(_vectors(basis.vectors))
        d = len(vectors)
        bounds = completion_bounds(vectors, basis.space, d)
        assert bounds is not None  # these vectors lie in the certified range
        ceilings, floors = bounds
        start = data.draw(st.integers(0, d))
        members = sorted(data.draw(st.sets(st.integers(0, max(0, start - 1)), max_size=start)))
        r = data.draw(st.integers(0, d - start))
        gauges, partial = completion_gauges(vectors, basis.space, members, start, r)
        at = (partial[None], np.array([start]), np.array([r]))
        assert np.all(gauges <= ceilings(*at)[0])
        assert np.all(gauges >= floors(*at)[0])

    def test_cancellation_needs_the_absolute_term(self):
        """fl(fl(1 + 2^-53) - 1) = 0, while the completion's exact first
        coordinate is 2^-53: the distance of its interval from 0 alone is
        above the computed modulus, and at p = 1/10 that lifts the gauge of
        the interval floor above the computed gauge by far more than the
        allowance."""
        vectors = np.array([[1.0, 1.0, 0.0], [2.0**-53, 0.0, 1.0], [-1.0, 0.0, 0.0]])
        space = Lp(0.1, 3)
        (sums, _, _), = _subset_sums(vectors, 3, 3)
        assert sums[0].tolist() == [0.0, 1.0, 1.0]
        gauge = ambient_gauge_rows(space, sums)[0]
        _, floors = completion_bounds(vectors, space, 3)
        floor = floors(vectors[:1], np.array([1]), np.array([2]))[0]
        assert 0 < floor <= gauge

    @pytest.mark.parametrize("vectors,space", [
        (np.diag([1.0, 1e-290]), Lp(0.5, 2)),  # a sum's least entry may leave the range
        (np.diag([1.0, 1e300]), Lp(2.0, 2)),  # a square overflows
        (np.diag([1.0, 1e-280]), Lp(1.0, 2)),  # 4 theta times a tiny sum is not normal
    ])
    def test_vectors_out_of_range_are_never_pruned(self, vectors, space):
        assert completion_bounds(vectors, space, 2) is None
        assert completion_bounds(np.eye(2), space, 2) is not None


class TestFamilyCeilings:
    """The row ceiling at 3 d + 1 roundings bounds both exact multiplier
    families of the unconditionality constant, sign family included."""

    @pytest.mark.parametrize("p", EXPONENTS)
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_ceiling_bounds_both_families(self, kind, p, data):
        basis = _ceiling_basis(kind, p)
        coeffs = data.draw(_coefficient_rows(basis.d, basis.duals))
        caps = row_ceilings(basis, 3 * basis.d + 1)(coeffs)
        assert np.all(np.isfinite(caps))
        for c, cap in zip(coeffs, caps):
            for value, _ in bases_module._exact_family_best(basis, c):
                assert value <= cap

    @pytest.mark.parametrize("name", ["difference", "perturbed_unit"])
    @pytest.mark.parametrize("d", [12, 16])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_skipping_families_changes_nothing(self, monkeypatch, name, d, p):
        basis = bases_module.zoo(name, p=p, dim=d, seed=1)
        scored = []
        real = bases_module._exact_family_best
        monkeypatch.setattr(bases_module, "_exact_family_best",
                            lambda basis, c: scored.append(1) or real(basis, c))
        pruned = bases_module.unconditional_constant(basis, mode="exact")
        pruned_calls = len(scored)
        monkeypatch.setattr(bases_module, "row_ceilings", lambda basis, n=None: None)
        full = bases_module.unconditional_constant(basis, mode="exact")
        assert pruned.as_dict() == full.as_dict()
        assert pruned_calls < len(scored) - pruned_calls
