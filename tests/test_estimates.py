import math

import pytest

from qgreedy.estimates import BoundEstimate


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
class TestRelativeTolerance:
    def test_exact_needs_agreement_relative_to_the_bounds(self, scale):
        assert not BoundEstimate(scale, 2 * scale, upper_certified=True).exact
        assert BoundEstimate(scale, scale * (1 + 1e-12), upper_certified=True).exact
        assert not BoundEstimate(scale, scale * (1 + 1e-12)).exact

    def test_rounding_disagreement_is_consistent(self, scale):
        est = BoundEstimate(math.nextafter(scale, math.inf), scale, upper_certified=True)
        assert est.exact

    def test_lower_above_upper_is_rejected(self, scale):
        with pytest.raises(ValueError, match="inconsistent bound pair"):
            BoundEstimate(scale * (1 + 1e-6), scale)


def test_zero_and_infinite_bounds_compare_exactly():
    assert BoundEstimate(0.0, 0.0, upper_certified=True).exact
    assert not BoundEstimate(0.0, 1e-300, upper_certified=True).exact
    assert not BoundEstimate(1.0, math.inf, upper_certified=True).exact
    assert BoundEstimate(math.inf, math.inf, upper_certified=True).exact
    BoundEstimate(-math.inf, 0.0)
    with pytest.raises(ValueError, match="inconsistent bound pair"):
        BoundEstimate(math.inf, 5.0)
    with pytest.raises(ValueError, match="inconsistent bound pair"):
        BoundEstimate(1e-300, 0.0)
