import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgreedy.estimates import BoundEstimate, Tracker


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


values = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([-math.inf, math.inf]))


@given(st.lists(st.tuples(values, st.booleans()), max_size=40),
       st.lists(st.integers(0, 8), min_size=1, max_size=10).filter(any),
       st.booleans(), st.none() | values)
@settings(max_examples=300)
def test_block_offers_equal_one_at_a_time_updates(entries, splits, maximize, start):
    """Ties, ineligible entries and any block split, empty blocks included:
    offering the blocks ends in the (best, witness) of updating with the
    eligible entries in order, and a witness is built only for an entry that
    takes the lead."""
    one, blocks = Tracker(maximize), Tracker(maximize)
    if start is not None:
        one.update(start, "start")
        blocks.update(start, "start")
    for i, (value, eligible) in enumerate(entries):
        if eligible:
            one.update(value, i)
    at, sizes = 0, itertools.cycle(splits)
    while at < len(entries):
        block = entries[at:at + next(sizes)]
        vals = np.array([value for value, _ in block])
        mask = np.array([eligible for _, eligible in block], dtype=bool)
        built = []

        def witness_of(j, at=at, built=built):
            built.append(at + j)
            return at + j

        before = blocks.best
        blocks.offer(vals, witness_of, None if mask.all() else mask)
        assert built == ([] if blocks.best == before else [blocks.witness])
        at += len(block)
    assert (blocks.best, blocks.witness) == (one.best, one.witness)
