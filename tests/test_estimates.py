import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgreedy.bases import Basis, _difference_matrices, unconditional_constant, zoo
from qgreedy.democracy import democracy_profile
from qgreedy.embeddings import embed_lorentz_into_space, embed_space_into_weak_lorentz
from qgreedy.estimates import BoundEstimate, Tracker
from qgreedy.greedy import quasi_greedy_constant, truncation_constant
from qgreedy.spaces import Lp, LorentzSpace


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


def fields(est: BoundEstimate) -> tuple:
    return est.lower, est.upper, est.witness, est.upper_certified, est.heuristic, est.note


def test_estimate_clamps_to_the_upper_bound_and_certifies_finite_ones():
    tracker = Tracker()
    tracker.update(3.0, "w")
    assert fields(tracker.estimate()) == (3.0, math.inf, "w", False, True, "")
    assert fields(tracker.estimate(5.0)) == (3.0, 5.0, "w", True, True, "")
    # a witness that rounds above its proved bound is clamped, not reported
    assert fields(tracker.estimate(2.0, heuristic=False, note="proof")) == (
        2.0, 2.0, "w", True, False, "proof")
    # an upper bound that overflowed to inf proves nothing
    assert not tracker.estimate(math.inf).upper_certified


def test_estimate_of_an_exhaustive_minimizing_search():
    tracker = Tracker(maximize=False)
    for value, witness in ((2.0, "a"), (1.5, "b"), (1.5, "c")):
        tracker.update(value, witness)
    est = tracker.estimate(tracker.best, heuristic=False)
    assert fields(est) == (1.5, 1.5, "b", True, False, "")
    assert est.exact


RULE_DIM = 8


def rule_basis(name: str) -> Basis:
    if name == "lorentz_difference":
        vectors, duals = _difference_matrices(RULE_DIM)
        weight = 2.0 * np.arange(1, RULE_DIM + 1) - 1.0
        return Basis(LorentzSpace(0.5, weight), vectors, duals)
    if name == "block_l2":
        return zoo(name, p=0.5, blocks=(2, 3, 3))
    return zoo(name, p=0.5, dim=RULE_DIM, seed=1)


@pytest.mark.parametrize("name", ["difference", "perturbed_unit", "block_l2",
                                  "lorentz_difference", "unit"])
def test_every_estimate_certifies_exactly_its_finite_upper_bounds(name):
    """The one rule of Tracker.estimate, over every estimator's output."""
    basis = rule_basis(name)
    estimates = {
        "quasi_greedy": quasi_greedy_constant(basis, budget=30),
        "truncation": truncation_constant(basis, budget=30),
        "K_u random": unconditional_constant(basis, mode="random", budget=30),
        "K_u exact": unconditional_constant(basis, mode="exact"),
    }
    for mode in ("random", "exact"):
        profile = democracy_profile(basis, m_max=4, mode=mode, budget=30)
        for row in profile.rows:
            estimates[f"{mode} phi_u({row.m})"] = row.phi_u
            estimates[f"{mode} phi_l({row.m})"] = row.phi_l
        for kind in ("succ", "sign_change", "super_democracy", "quasi_greedy"):
            estimates[f"{mode} profile {kind}"] = getattr(profile, kind)
    if isinstance(basis.space, Lp):
        w = 2.0 * np.arange(1, basis.d + 1) - 1.0
        estimates["into weak Lorentz"] = embed_space_into_weak_lorentz(basis, w, budget=30).constant
        estimates["from Lorentz"] = embed_lorentz_into_space(basis, 0.5, w, budget=30).constant
    for label, est in estimates.items():
        assert est.upper_certified == math.isfinite(est.upper), label
        assert est.lower <= est.upper, label
