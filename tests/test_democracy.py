import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qgreedy
import qgreedy.bounds as bounds_module
import qgreedy.democracy as democracy_module
import qgreedy.spaces as spaces_module
from qgreedy import power_weight
from qgreedy.bases import Basis, unconditional_constant, zoo
from qgreedy.democracy import (
    ProfileRow,
    democracy_profile,
    indicator_gauge,
    lower_democracy,
    profile_tasks,
    sign_change_constant,
    succ_constant,
    super_democracy_constant,
    upper_democracy,
)
from qgreedy.errors import CombinatorialOverflowError
from qgreedy.estimates import BoundEstimate
from qgreedy.reports import profile_csv
from qgreedy.spaces import BlockLpL2, LorentzSpace, Lp, ambient_gauge, ambient_gauge_rows


def brute_force_phi(basis, m):
    """Independent oracle: full powerset scan with explicit bitmasks."""
    d = basis.d
    best_u, best_l = 0.0, math.inf
    for mask in range(1, 1 << d):
        idx = [i for i in range(d) if (mask >> i) & 1]
        gauge = ambient_gauge(basis.space, basis.vectors[idx].sum(axis=0))
        if len(idx) <= m:
            best_u = max(best_u, gauge)
        if len(idx) >= m:
            best_l = min(best_l, gauge)
    return best_u, best_l


class TestIndicatorGauge:
    def test_out_of_range_index_rejected(self):
        basis = zoo("difference", p=0.5, dim=6)
        with pytest.raises(IndexError, match=r"\[0, 6\)"):
            indicator_gauge(basis, [-1])

    def test_repeated_index_counts_once(self):
        basis = zoo("difference", p=0.5, dim=6)
        assert indicator_gauge(basis, [0, 0]) == indicator_gauge(basis, [0])
        assert indicator_gauge(basis, [0, 0]) != ambient_gauge(basis.space, 2 * basis.vectors[0])

    @pytest.mark.parametrize("name", ["unit", "difference", "block_l2"])
    def test_empty_set_is_zero(self, name):
        # the empty sum is 0, whatever the sums buffer held before
        basis = zoo(name, p=0.5, dim=6) if name != "block_l2" else zoo(name, p=0.5, blocks=(3, 3))
        assert indicator_gauge(basis, [0, 1]) > 0
        assert indicator_gauge(basis, []) == 0.0
        masks = np.zeros((3, 6), dtype=bool)
        masks[::2, [1, 4]] = True
        gauges = democracy_module._indicator_gauges(basis, masks)
        assert gauges.tolist() == [indicator_gauge(basis, [1, 4]), 0.0,
                                   indicator_gauge(basis, [1, 4])]


class TestExactDemocracy:
    def test_unit_phi_values(self):
        basis = zoo("unit", p=0.5, dim=6)
        for m in (1, 3, 6):
            assert upper_democracy(basis, m).lower == pytest.approx(m**2, abs=1e-9)
            assert lower_democracy(basis, m).lower == pytest.approx(m**2, abs=1e-9)

    def test_difference_phi_l_is_flat_one(self):
        basis = zoo("difference", p=0.5, dim=8)
        for m in range(1, 5):
            est = lower_democracy(basis, m)
            assert est.lower == pytest.approx(1.0, abs=1e-9)
            # the witness is a prefix interval that telescopes to one entry
            assert indicator_gauge(basis, est.witness["set"]) == pytest.approx(1.0)

    def test_difference_phi_u_matches_bruteforce(self):
        # disjoint interior supports give 2m boundary points, so (2m)^(1/p)
        basis = zoo("difference", p=0.5, dim=8)
        for m in range(1, 5):
            est = upper_democracy(basis, m)
            oracle_u, _ = brute_force_phi(basis, m)
            assert est.lower == pytest.approx(oracle_u, abs=1e-9)
            assert est.lower == pytest.approx((2 * m) ** 2, abs=1e-9)

    def test_exact_matches_bruteforce_on_perturbed_basis(self):
        basis = zoo("perturbed_unit", p=0.5, dim=7, seed=4)
        for m in (2, 4):
            oracle_u, oracle_l = brute_force_phi(basis, m)
            assert upper_democracy(basis, m).lower == pytest.approx(oracle_u, rel=1e-12)
            assert lower_democracy(basis, m).lower == pytest.approx(oracle_l, rel=1e-12)

    def test_block_occupancy_values(self):
        basis = zoo("block_l2", p=4, blocks=list(range(1, 13)))
        est_u = upper_democracy(basis, 4)
        est_l = lower_democracy(basis, 4)
        assert est_u.lower == pytest.approx(2.0, abs=1e-9)          # 4^(1/2)
        assert est_l.lower == pytest.approx(2 ** 0.5, abs=1e-9)     # 4^(1/4)

    def test_block_occupancy_matches_bruteforce(self):
        basis = zoo("block_l2", p=4, blocks=[1, 2, 3])
        for m in (1, 2, 4):
            oracle_u, oracle_l = brute_force_phi(basis, m)
            assert upper_democracy(basis, m).lower == pytest.approx(oracle_u, rel=1e-12)
            assert lower_democracy(basis, m).lower == pytest.approx(oracle_l, rel=1e-12)

    def test_occupancy_witness_reproduces_value(self):
        basis = zoo("block_l2", p=4, blocks=list(range(1, 13)))
        est = upper_democracy(basis, 5)
        assert indicator_gauge(basis, est.witness["set"]) == pytest.approx(est.lower)

    def test_near_identity_block_basis_is_not_an_occupancy_problem(self):
        # the occupancy DP assumes unit vectors; a diagonal entry off 1 by 5e-6
        # moves phi_u(2) above the DP's 4, and the witness must replay the value
        vectors = np.diag([1.000005, 1.0, 1.0, 1.0])
        basis = Basis(BlockLpL2(0.5, (2, 2)), vectors, np.linalg.inv(vectors).T)
        est = upper_democracy(basis, 2)
        assert est.exact
        assert est.lower == indicator_gauge(basis, est.witness["set"])
        assert est.lower == pytest.approx(4.000009999993751, rel=1e-12)
        assert "occupancy" in upper_democracy(zoo("block_l2", p=0.5, blocks=(2, 2)), 2).witness

    @pytest.mark.parametrize("p", [0.5, 2.0])
    @pytest.mark.parametrize("blocks", [(3, 3, 2, 4), (1, 5, 2), (4, 4, 4)])
    def test_profile_rows_are_the_single_occupancy_values(self, p, blocks):
        basis = zoo("block_l2", p=p, blocks=blocks)
        tasks, _ = profile_tasks(basis, basis.d, mode="exact")
        rows = tasks["rows"]()
        sets, sizes, gauges = scan_oracle(basis)
        assert [row.m for row in rows] == list(range(1, basis.d + 1))
        for row in rows:
            assert row.phi_u.as_dict() == upper_democracy(basis, row.m).as_dict()
            assert row.phi_l.as_dict() == lower_democracy(basis, row.m).as_dict()
            for est in (row.phi_u, row.phi_l):
                assert est.exact and not est.heuristic
                assert len(est.witness["set"]) == row.m == sum(est.witness["occupancy"])
                assert indicator_gauge(basis, est.witness["set"]) == pytest.approx(est.lower,
                                                                                   rel=1e-12)
            # against every set scored by the row kernel
            assert row.phi_u.lower == pytest.approx(gauges[sizes <= row.m].max(), rel=1e-12)
            assert row.phi_l.lower == pytest.approx(gauges[sizes >= row.m].min(), rel=1e-12)

    def test_occupancy_overflow_is_an_uncertified_inf(self):
        # (sum_b c_b^(p/2))^(1/p) leaves the float range at p = 0.001 from three
        # occupied blocks on, as the subset scan's gauge of unit vectors does
        basis = zoo("block_l2", p=0.001, blocks=(4, 4, 4))
        with np.errstate(over="ignore"):
            scan = upper_democracy(zoo("unit", p=0.001, dim=4), 4)
        assert (scan.lower, scan.upper, scan.upper_certified) == (math.inf, math.inf, False)
        assert upper_democracy(basis, 2).exact
        up, down = upper_democracy(basis, 3), lower_democracy(basis, 12)
        assert (up.lower, up.upper, up.upper_certified, up.heuristic) == (
            math.inf, math.inf, False, False)
        assert up.witness == {"set": [0, 4, 8], "occupancy": [1, 1, 1]}
        assert (down.lower, down.upper, down.upper_certified, down.witness) == (
            math.inf, math.inf, False, None)
        assert lower_democracy(basis, 3).exact

    def test_overflow_guard(self):
        basis = zoo("unit", p=0.5, dim=40)
        with pytest.raises(CombinatorialOverflowError, match="random"):
            upper_democracy(basis, 20, mode="exact")

    def test_monotone_in_m(self):
        basis = zoo("difference", p=0.5, dim=7)
        phi_u = [upper_democracy(basis, m).lower for m in range(1, 8)]
        phi_l = [lower_democracy(basis, m).lower for m in range(1, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(phi_u, phi_u[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(phi_l, phi_l[1:]))
        # a size-m set is feasible for both, so phi_l(m) <= phi_u(m)
        assert all(l <= u + 1e-12 for l, u in zip(phi_l, phi_u))


def first_extremes(basis, m):
    """Per-m oracle of the exact kernels: the first max over |A| <= m and the
    first min over |A| >= m, scanning sizes upward and each size's sets in
    itertools.combinations order, with strict improvement."""
    d = basis.d
    best_u, set_u = -math.inf, None
    best_l, set_l = math.inf, None
    for k in range(1, d + 1):
        for combo in itertools.combinations(range(d), k):
            gauge = ambient_gauge(basis.space, basis.vectors[list(combo)].sum(axis=0))
            if k <= m and gauge > best_u:
                best_u, set_u = gauge, list(combo)
            if k >= m and gauge < best_l:
                best_l, set_l = gauge, list(combo)
    return best_u, set_u, best_l, set_l


class TestExactProfile:
    @pytest.mark.parametrize("name,p,d,seed", [
        ("difference", 0.5, 10, 0),
        ("perturbed_unit", 0.5, 9, 2),
        ("perturbed_unit", 0.5, 10, 3),
        ("unit", 0.5, 8, 0),
        ("unit", math.inf, 6, 0),  # every set has gauge 1: ties across all sizes
    ])
    def test_rows_match_per_m_definitions(self, name, p, d, seed):
        basis = zoo(name, p=p, dim=d, seed=seed)
        profile = democracy_profile(basis, m_max=d, mode="exact", budget=20, seed=seed)
        assert [row.m for row in profile.rows] == list(range(1, d + 1))
        for row in profile.rows:
            hi, set_hi, lo, set_lo = first_extremes(basis, row.m)
            assert (row.phi_u.lower, row.phi_u.upper) == (hi, hi)
            assert (row.phi_l.lower, row.phi_l.upper) == (lo, lo)
            assert row.phi_u.witness == {"set": set_hi}
            assert row.phi_l.witness == {"set": set_lo}
            single_u = upper_democracy(basis, row.m, mode="exact")
            single_l = lower_democracy(basis, row.m, mode="exact")
            assert (single_u.lower, single_u.witness) == (hi, row.phi_u.witness)
            assert (single_l.lower, single_l.witness) == (lo, row.phi_l.witness)
            assert not (row.phi_u.heuristic or row.phi_l.heuristic)

    def test_profile_overflow_message_unchanged(self):
        basis = zoo("difference", p=0.5, dim=24)
        message = (r"exact enumeration over sets of size >= 1 in d = 24 exceeds "
                   r"10000000 subsets; use mode='random'")
        with pytest.raises(CombinatorialOverflowError, match=message):
            democracy_profile(basis, m_max=3, mode="exact")
        with pytest.raises(CombinatorialOverflowError, match=message):
            lower_democracy(basis, 1, mode="exact")
        unit = zoo("unit", p=0.5, dim=24)
        for estimate, m, bound in ((upper_democracy, 24, "<= 24"), (lower_democracy, 3, ">= 3")):
            with pytest.raises(CombinatorialOverflowError,
                               match=message.replace(">= 1", bound)):
                estimate(unit, m, mode="exact")

    @pytest.mark.parametrize("mode", ["exact", "random"])
    @pytest.mark.parametrize("m_max", [0, -2])
    def test_nonpositive_m_max_rejected(self, mode, m_max):
        basis = zoo("difference", p=0.5, dim=6)
        with pytest.raises(ValueError, match=rf"m_max must be >= 1, got {m_max}"):
            democracy_profile(basis, m_max=m_max, mode=mode, budget=20)


def scan_oracle(basis):
    """Every nonempty set in feed order (by size, then itertools.combinations
    order), each scored by the row kernel on its member-order sum."""
    sets = [list(a) for k in range(1, basis.d + 1)
            for a in itertools.combinations(range(basis.d), k)]
    sums = np.array([basis.vectors[a].sum(axis=0) for a in sets])
    return sets, np.array([len(a) for a in sets]), ambient_gauge_rows(basis.space, sums)


def oracle_estimates(basis, m):
    """phi_u(m) and phi_l(m) as the exact kernels report them, from the first
    strict best of :func:`scan_oracle` over the sizes each takes."""
    sets, sizes, gauges = scan_oracle(basis)
    out = []
    for at, pick in ((np.flatnonzero(sizes <= m), np.argmax),
                     (np.flatnonzero(sizes >= m), np.argmin)):
        j = at[pick(gauges[at])]  # the first extreme: argmax and argmin stop at the first
        value = float(gauges[j])
        out.append(BoundEstimate(value, value, {"set": sets[j]}, upper_certified=True,
                                 heuristic=False))
    return out


def _near_identity_block_basis(blocks=(3, 3, 2, 4)):
    """Block l_{1/2}(l_2) over ``blocks``, vectors near the identity: not
    diagonal, so exact mode enumerates subsets rather than occupancies."""
    d = sum(blocks)
    vectors = np.eye(d) + 0.1 * np.random.default_rng(5).standard_normal((d, d))
    return Basis(BlockLpL2(0.5, blocks), vectors, np.linalg.inv(vectors).T)


def _lorentz_difference(d):
    basis = zoo("difference", p=0.5, dim=d)
    return Basis(LorentzSpace(0.5, power_weight(2.0, d)), basis.vectors, basis.duals)


ORACLE_BASES = [
    pytest.param(lambda: zoo("difference", p=0.5, dim=12), id="difference"),
    *(pytest.param(lambda p=p: zoo("perturbed_unit", p=p, dim=12, seed=3), id=f"perturbed_unit-{p}")
      for p in (0.5, 1.0, 2.0)),
    pytest.param(lambda: _lorentz_difference(12), id="lorentz"),
    pytest.param(_near_identity_block_basis, id="block_l2"),
]


class TestExactOracle:
    """Exact mode, which skips the frontier rows that provably hold no first
    best, reports what a scan of every set reports, witnesses included."""

    # at m_max = 4 the sets of more than 4 members are dropped by their floors alone
    @pytest.mark.parametrize("m_max", [4, 12])
    @pytest.mark.parametrize("make", ORACLE_BASES)
    def test_profile_equals_the_full_scan(self, make, m_max):
        basis = make()
        assert not democracy_module._use_occupancy(basis)
        tasks, assemble = profile_tasks(basis, m_max, mode="exact", budget=100, seed=1)
        parts = {name: task() for name, task in tasks.items() if name != "rows"}
        parts["rows"] = [ProfileRow(m, *oracle_estimates(basis, m)) for m in range(1, m_max + 1)]
        got = democracy_profile(basis, m_max, mode="exact", budget=100, seed=1)
        assert dataclasses.asdict(got) == dataclasses.asdict(assemble(parts))

    @pytest.mark.parametrize("make", ORACLE_BASES)
    def test_single_functions_equal_the_full_scan(self, make):
        basis = make()
        for m in range(1, basis.d + 1):
            up, down = oracle_estimates(basis, m)
            assert upper_democracy(basis, m).as_dict() == up.as_dict()
            assert lower_democracy(basis, m).as_dict() == down.as_dict()

    def test_d20_profile_scores_few_sets(self, monkeypatch):
        """The difference d = 20, m <= 6 profile's rows pass scores at most
        15% of its 2^20 sets, bound rows included."""
        scored = []
        real = spaces_module.ambient_gauge_rows

        def counting(space, mat, scratch=None):
            scored.append(len(mat))
            return real(space, mat, scratch)

        for module in (democracy_module, bounds_module):
            monkeypatch.setattr(module, "ambient_gauge_rows", counting)
        tasks, _ = profile_tasks(zoo("difference", p=0.5, dim=20), m_max=6)
        tasks["rows"]()
        assert sum(scored) <= 0.15 * 2**20

    def test_no_bound_rows_while_a_window_has_no_best(self, monkeypatch):
        """Each size's first frontier rows meet the phi_l window of that size
        before it has a best, so none can drop and no bound is computed for
        them.  On ``unit`` at d = 12 (the m <= 12 profile of ``verify
        democracy-lp``) every size's sets fit one block, so none is at all."""
        rows = []
        real = spaces_module.ambient_gauge_rows

        def counting(space, mat, scratch=None):
            rows.append(len(mat))
            return real(space, mat, scratch)

        monkeypatch.setattr(bounds_module, "ambient_gauge_rows", counting)
        tasks, _ = profile_tasks(zoo("unit", p=0.5, dim=12), m_max=12)
        tasks["rows"]()
        assert sum(rows) == 0


def _dropped_rows(monkeypatch, run):
    """Every frontier row the exact scans of ``run()`` drop, as (k, sum, size,
    last, up, down): the size k being fed and the thresholds in force at that
    call, the least best of the maximizing windows that take k (inf if none)
    and the largest best of the minimizing ones (-inf if none)."""
    drops = []
    real = democracy_module._pruner

    def pruner(basis, hi, windows):
        prune = real(basis, hi, windows)
        if prune is None:
            return None

        def recording(k, sums, sizes, last):
            drop = prune(k, sums, sizes, last)
            taking = [t for t, small, large in windows if small <= k <= large]
            up = min((t.best for t in taking if t.maximize), default=math.inf)
            down = max((t.best for t in taking if not t.maximize), default=-math.inf)
            drops.extend((k, sums[i], sizes[i], last[i], up, down) for i in np.flatnonzero(drop))
            return drop

        return recording

    monkeypatch.setattr(democracy_module, "_pruner", pruner)
    run()
    return drops


def _assert_no_completion_wins(basis, drops):
    """Every completion of each dropped row, built in the feed's own addition
    order and scored by the row kernel, is at most ``up`` and at least ``down``."""
    tables = {}
    for k, total, size, last, up, down in drops:
        more = k - size
        avail = basis.d - 1 - last if more > 0 else 0
        block, _ = spaces_module._completions(
            basis.vectors, total[None], np.array([avail]), np.array([more]),
            np.array([math.comb(avail, more)]), tables)
        gauges = ambient_gauge_rows(basis.space, block)
        assert gauges.max() <= up and gauges.min() >= down, (k, size, last)


AUDIT_BASES = [
    pytest.param(lambda: zoo("difference", p=0.5, dim=16), id="difference"),
    *(pytest.param(lambda p=p: zoo("perturbed_unit", p=p, dim=16, seed=3),
                   id=f"perturbed_unit-{p}") for p in (0.5, 1.0, 2.0)),
    pytest.param(lambda: _lorentz_difference(16), id="lorentz"),
    pytest.param(lambda: _near_identity_block_basis((3, 3, 2, 4, 4)), id="block_l2"),
]


class TestPrunerAudit:
    """Where the exact scan drops frontier rows, no completion of a dropped
    row could have replaced the best it was dropped against.  The
    single-sense scans carry the check: above a profile's m_max every drop is
    far from its threshold."""

    @pytest.mark.parametrize("scan", [
        pytest.param(lambda b: upper_democracy(b, 6), id="phi_u-6"),
        pytest.param(lambda b: lower_democracy(b, 10), id="phi_l-10"),
        pytest.param(lambda b: democracy_module._profile_rows(b, 8, "exact", 0, 0), id="rows-8"),
    ])
    @pytest.mark.parametrize("make", AUDIT_BASES)
    def test_dropped_rows_hold_no_winner(self, monkeypatch, make, scan):
        basis = make()
        drops = _dropped_rows(monkeypatch, lambda: scan(basis))
        assert drops
        _assert_no_completion_wins(basis, drops)

    def test_dropped_rows_hold_no_winner_at_d20(self, monkeypatch):
        basis = zoo("difference", p=0.5, dim=20)
        drops = _dropped_rows(
            monkeypatch, lambda: democracy_module._profile_rows(basis, 6, "exact", 0, 0))
        assert drops
        _assert_no_completion_wins(basis, drops[::7])


def _moved_bases(p, seed):
    """A random dense basis of l_p at d = 8, and the same basis after a
    permutation and sign flips of the ambient coordinates and a reordering
    of the basis."""
    rng = np.random.default_rng(seed)
    d = 8
    vectors = np.eye(d) + 0.4 * rng.standard_normal((d, d))
    duals = np.linalg.inv(vectors).T
    perm, order = rng.permutation(d), rng.permutation(d)
    signs = rng.choice([-1.0, 1.0], d)
    moved = Basis(Lp(p, d), (vectors[:, perm] * signs)[order], (duals[:, perm] * signs)[order])
    return Basis(Lp(p, d), vectors, duals), moved


class TestMetamorphic:
    """Exact values depend on the basis as a set of vectors, and an l_p gauge
    does not see coordinate permutations and sign flips."""

    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_democracy_is_invariant(self, p, seed):
        basis, moved = _moved_bases(p, seed)
        for m in range(1, basis.d + 1):
            for fn in (upper_democracy, lower_democracy):
                a, b = fn(basis, m), fn(moved, m)
                assert b.lower == pytest.approx(a.lower, rel=1e-12, abs=0)
                assert b.upper == pytest.approx(a.upper, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_unconditional_constant_is_invariant(self, p, seed):
        basis, moved = _moved_bases(p, seed)
        a, b = unconditional_constant(basis, mode="exact"), unconditional_constant(moved, mode="exact")
        assert b.lower == pytest.approx(a.lower, rel=1e-12, abs=0)
        assert b.upper == pytest.approx(a.upper, rel=1e-12, abs=0)


def _size_ranges(d):
    # (0, d) and (0, d // 2): the feeds of the exact multiplier search and sign average
    ranges = {(1, d), (1, 1), (d, d), ((d + 1) // 2, (d + 1) // 2), (2, d - 1),
              (0, d), (0, d // 2)}
    return sorted((lo, hi) for lo, hi in ranges if 0 <= lo <= hi <= d)


def _assert_feed_is_bruteforce(vectors, lo, hi):
    """The feed yields every set of lo..hi members in order, in blocks of at most
    _ROW_CAP rows, each with the bits of its member-order sum."""
    expected = list(itertools.chain.from_iterable(
        itertools.combinations(range(len(vectors)), k) for k in range(lo, hi + 1)))
    witnesses, rows = [], []
    for sums, sizes, witness_of in spaces_module._subset_sums(vectors, lo, hi):
        assert 1 <= len(sums) <= spaces_module._ROW_CAP
        assert len(sizes) == len(sums)
        witnesses.extend(witness_of(j)["set"] for j in range(len(sums)))
        rows.extend(sums)
        assert list(sizes) == [len(w) for w in witnesses[-len(sums):]]
    assert witnesses == [list(a) for a in expected]
    for a, row in zip(expected, rows):
        assert np.array_equal(row, vectors[list(a)].sum(axis=0))


class TestExactFeed:
    # row caps from one row per block, through blocks cut inside one head
    # subset's sets, to the default cap (the whole head table in one block)
    @pytest.mark.parametrize("cap", [1, 2, 5, 40, None])
    @pytest.mark.parametrize("d,lo,hi", [(d, lo, hi) for d in (1, 2, 3, 8, 9)
                                         for lo, hi in _size_ranges(d)])
    def test_feed_is_every_set_in_order_with_member_order_sums(self, monkeypatch, cap, d, lo, hi):
        if cap is not None:
            monkeypatch.setattr(spaces_module, "_ROW_CAP", cap)
        _assert_feed_is_bruteforce(zoo("perturbed_unit", p=0.5, dim=d, seed=d).vectors, lo, hi)

    # production caps at which one block holds several (tail length, members
    # still to take) groups: (30, 27, 30) mixes the second, the others both
    @pytest.mark.parametrize("d,lo,hi", [(40, 1, 2), (60, 1, 3), (30, 27, 30)])
    def test_default_cap_blocks_mix_groups(self, monkeypatch, d, lo, hi):
        tables, groups = [], []
        lex_table, completions = spaces_module._lex_table, spaces_module._completions

        def recording_table(cache, n, r):
            tables.append(lex_table(cache, n, r))
            return tables[-1]

        def recording_completions(vectors, sums, n, r, counts, cache):
            groups.append(len(set(zip(n.tolist(), r.tolist()))))
            return completions(vectors, sums, n, r, counts, cache)

        monkeypatch.setattr(spaces_module, "_lex_table", recording_table)
        monkeypatch.setattr(spaces_module, "_completions", recording_completions)
        _assert_feed_is_bruteforce(zoo("perturbed_unit", p=0.5, dim=d, seed=d).vectors, lo, hi)
        assert max(groups) > 1
        assert max(len(t) for t in tables) <= spaces_module._block_rows(d)

    def test_tables_stay_small_at_large_d(self):
        # a 2^(d/2) head table of sums would need 2^20 * 40 * 8 bytes = 335 MB at d = 40
        tracemalloc.start()
        try:
            est = upper_democracy(zoo("difference", p=0.5, dim=40), 2, mode="exact")
            assert (est.lower, est.upper, est.witness) == (16.0, 16.0, {"set": [1, 3]})  # (2m)^2
            est = lower_democracy(zoo("difference", p=0.5, dim=30), 28, mode="exact")
            assert (est.lower, est.witness) == (1.0, {"set": list(range(28))})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_exact_kernels_leave_numpy_ma_unimported(self):
        # np.unique imports numpy.ma (about 1.3 MB of RSS) in numpy 2.x; every
        # task runs in the fresh interpreter itself, which then reports
        # whether numpy alone loaded numpy.ma and whether the kernels did
        code = """
import json, sys
import numpy as np
alone = "numpy.ma" in sys.modules
import qgreedy.tasks
from qgreedy import democracy_profile, khintchine_square_function, unconditional_constant, zoo
from qgreedy.democracy import indicator_gauge
qgreedy.tasks._usable_cpus = lambda: 1
democracy_profile(zoo("unit", p=0.5, dim=12), mode="exact")
indicator_gauge(zoo("unit", p=0.5, dim=12), [2, 0, 2])
unconditional_constant(zoo("difference", p=0.5, dim=8), mode="exact")
khintchine_square_function(np.random.default_rng(0).standard_normal((8, 4)), 0.5, mode="exact")
print(json.dumps([alone, "numpy.ma" in sys.modules]))
"""
        src = str(Path(qgreedy.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        alone, loaded = json.loads(out)
        if alone:
            pytest.skip("importing numpy alone loads numpy.ma")
        assert not loaded


class TestRandomDemocracy:
    def test_lower_bound_below_exact(self):
        basis = zoo("difference", p=0.5, dim=8)
        for m in (2, 3):
            exact = upper_democracy(basis, m).lower
            est = upper_democracy(basis, m, mode="random", budget=150, seed=0)
            assert est.lower <= exact + 1e-9
            assert est.witness is not None
            assert indicator_gauge(basis, est.witness["set"]) == pytest.approx(est.lower)

    def test_phi_l_random_gives_upper(self):
        basis = zoo("difference", p=0.5, dim=8)
        est = lower_democracy(basis, 3, mode="random", budget=150, seed=0)
        exact = lower_democracy(basis, 3).lower
        assert est.upper >= exact - 1e-9
        assert est.lower == 0.0
        # the interval sampler finds the telescoping witness here
        assert est.upper == pytest.approx(1.0, abs=1e-9)

    def test_certified_upper_bound(self):
        basis = zoo("difference", p=0.5, dim=8)
        est = upper_democracy(basis, 3, mode="random", budget=50, seed=0)
        assert est.upper == pytest.approx(basis.a * 3.0**2, rel=1e-12)
        assert est.upper_certified


class TestSignConstants:
    def test_unit_succ_is_one(self):
        basis = zoo("unit", p=0.5, dim=6)
        assert succ_constant(basis, budget=80, seed=0).lower == pytest.approx(1.0, abs=1e-12)

    def test_unit_sign_change_is_one(self):
        basis = zoo("unit", p=0.5, dim=6)
        assert sign_change_constant(basis, budget=80, seed=0).lower == pytest.approx(1.0, abs=1e-12)

    def test_difference_adjacent_pair(self):
        # first two vectors: the singleton beats its superset by 4 at p = 1/2
        basis = zoo("difference", p=0.5, dim=6)
        ratio = (indicator_gauge(basis, [1]) / indicator_gauge(basis, [0, 1]))
        assert ratio == pytest.approx(4.0, abs=1e-12)
        est = succ_constant(basis, budget=80, seed=0)
        assert est.lower >= 4.0 - 1e-9

    @pytest.mark.parametrize("d", [16, 32])
    def test_difference_comb_keeps_d_squared_on_large_sets(self, d):
        # the odd comb against {0..d-1} under all-positive signs gives d^(1/p);
        # sets of more than 12 members are scored on sampled patterns, which
        # must still include the all-ones one
        est = succ_constant(zoo("difference", p=0.5, dim=d), budget=500, seed=0)
        assert est.lower >= d**2 - 1e-9
        assert est.witness["signs"] == [1.0] * d

    def test_succ_witness_reproducible(self):
        basis = zoo("difference", p=0.5, dim=6)
        est = succ_constant(basis, budget=80, seed=1)
        a = est.witness["A"]
        b = est.witness["B"]
        signs = np.array(est.witness["signs"])
        pos = [b.index(i) for i in a]
        ratio = (ambient_gauge(basis.space, signs[pos] @ basis.vectors[a])
                 / ambient_gauge(basis.space, signs @ basis.vectors[b]))
        assert ratio == pytest.approx(est.lower, rel=1e-9)

    def test_unit_super_democracy(self):
        basis = zoo("unit", p=0.5, dim=6)
        est = super_democracy_constant(basis, budget=60, seed=0)
        assert est.lower == pytest.approx(1.0, abs=1e-12)

    def test_singleton_super_democracy_is_norm_ratio(self):
        basis = zoo("difference", p=0.5, dim=5)
        est = super_democracy_constant(basis, m_max=1, budget=40, seed=0)
        expect = basis.vector_norms.max() / basis.vector_norms.min()
        assert est.lower == pytest.approx(expect, rel=1e-9)

    def test_difference_super_democracy_diverges_with_m(self):
        basis = zoo("difference", p=0.5, dim=10)
        small = super_democracy_constant(basis, m_max=1, budget=40, seed=0).lower
        large = super_democracy_constant(basis, m_max=5, budget=40, seed=0).lower
        assert large > small

    @pytest.mark.parametrize("m_max", [0, -2])
    def test_super_democracy_nonpositive_m_max_rejected(self, m_max):
        basis = zoo("difference", p=0.5, dim=6)
        with pytest.raises(ValueError, match=rf"m_max must be >= 1, got {m_max}"):
            super_democracy_constant(basis, m_max=m_max, budget=20)


class TestProfile:
    def test_unit_slopes(self):
        basis = zoo("unit", p=0.5, dim=10)
        profile = democracy_profile(basis, m_max=10, mode="exact", budget=100, seed=0)
        assert profile.slope_u == pytest.approx(2.0, abs=0.01)
        assert profile.slope_l == pytest.approx(2.0, abs=0.01)
        assert profile.democratic
        assert profile.almost_greedy
        assert "democratic" in profile.verdict

    def test_difference_profile_not_democratic(self):
        basis = zoo("difference", p=0.5, dim=8)
        profile = democracy_profile(basis, m_max=4, mode="exact", budget=100, seed=0)
        assert [r.phi_l_value for r in profile.rows] == pytest.approx([1.0] * 4)
        assert profile.slope_u == pytest.approx(2.0, abs=0.05)
        assert not profile.democratic
        assert not profile.almost_greedy
        assert "not democratic" in profile.verdict

    @pytest.mark.parametrize("mode", ["exact", "random"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_no_slope_without_two_fitted_sizes(self, d, mode):
        # the fit reads m in [2, m_max], so m_max <= 2 leaves fewer than two sizes
        profile = democracy_profile(zoo("unit", p=0.5, dim=d), mode=mode, budget=50, seed=0)
        assert math.isnan(profile.slope_u) and math.isnan(profile.slope_l)
        assert not profile.democratic and not profile.almost_greedy
        assert profile.verdict.startswith("not democratic: no slope could be fitted")
        assert "nan" not in profile.verdict

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_no_slope_past_the_float_range(self):
        # phi(3) = 3^1000 at p = 0.001 is inf, inside the fit window [2, 4]
        profile = democracy_profile(zoo("unit", p=0.001, dim=4), mode="exact", budget=10)
        assert math.isnan(profile.slope_u) and math.isnan(profile.slope_l)
        assert not profile.democratic and not profile.almost_greedy
        assert "leave the float range" in profile.verdict
        assert "nan" not in profile.verdict

    def test_block_slopes(self):
        basis = zoo("block_l2", p=4, blocks=list(range(1, 13)))
        profile = democracy_profile(basis, m_max=12, mode="exact", budget=50, seed=0)
        assert profile.slope_u == pytest.approx(0.5, abs=0.01)
        assert profile.slope_l == pytest.approx(0.25, abs=0.01)

    def test_profile_csv_shape(self):
        basis = zoo("unit", p=0.5, dim=5)
        profile = democracy_profile(basis, m_max=4, mode="exact", budget=50, seed=0)
        text = profile_csv(profile)
        lines = text.strip().split("\n")
        assert lines[0] == "m,phi_u_lo,phi_u_hi,phi_l_lo,phi_l_hi,witness_u,witness_l"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(1.0)


class TestSandwichInvariant:
    def test_phi_l_below_min_equal_size_below_phi_u(self):
        # phi_l(m) <= min over |A| = m <= phi_u(m)
        import itertools

        for name in ("difference", "perturbed_unit"):
            basis = zoo(name, p=0.5, dim=6, seed=2)
            for m in (1, 3, 5):
                mid = min(
                    indicator_gauge(basis, idx)
                    for idx in itertools.combinations(range(6), m)
                )
                assert lower_democracy(basis, m).lower <= mid + 1e-12
                assert mid <= upper_democracy(basis, m).lower + 1e-12
