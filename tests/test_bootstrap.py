import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgreedy.bootstrap import (
    _BLOCK as BLOCK,
    GrowthSequence,
    _stage_blocks,
    bootstrap_chain,
    bootstrap_step,
    harmonic,
)
from qgreedy.errors import InvalidWeightError
from qgreedy.reports import chain_csv, chain_json, csv_text, json_text
from qgreedy.verify import suite_bootstrap

positive_seqs = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=1, max_size=20
).map(np.array)


class TestHarmonic:
    def test_first_values(self):
        h = harmonic(4)
        assert h.term(1) == 1.0
        assert h.term(2) == 1.5
        assert h.term(4) == pytest.approx(25 / 12, abs=1e-15)

    def test_matches_fsum(self):
        h = harmonic(2000)
        for m in (1, 17, 512, 1999, 2000):
            assert h.term(m) == pytest.approx(math.fsum(1.0 / n for n in range(1, m + 1)),
                                              rel=1e-15)


class TestBootstrapStep:
    def test_constant_sequence_gives_sqrt(self):
        out = bootstrap_step(np.ones(9))
        assert out.term(4) == pytest.approx(2.0, abs=1e-15)
        assert np.allclose(out.values, np.sqrt(np.arange(1, 10)), rtol=1e-15)

    def test_sqrt_sequence_gives_harmonic_form(self):
        out = bootstrap_step(np.sqrt(np.arange(1.0, 5.0)))
        assert out.term(2) == pytest.approx(2.0 / math.sqrt(1.5), rel=1e-15)

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        s = rng.random(30) + 0.1
        base = bootstrap_step(s).values
        scaled = bootstrap_step(2.0 * s).values
        assert np.allclose(scaled, 2.0 * base, rtol=1e-13)

    @given(positive_seqs, st.floats(min_value=0.1, max_value=50, allow_nan=False))
    @settings(max_examples=80)
    def test_homogeneity_property(self, s, c):
        left = bootstrap_step(c * s).values
        right = c * bootstrap_step(s).values
        assert np.allclose(left, right, rtol=1e-11)

    def test_monotone_comparison(self):
        rng = np.random.default_rng(1)
        s = rng.random(40) + 0.1
        bigger = s * (1.0 + rng.random(40))
        assert np.all(bootstrap_step(s).values <= bootstrap_step(bigger).values + 1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidWeightError):
            bootstrap_step(np.array([1.0, 0.0]))
        with pytest.raises(InvalidWeightError):
            GrowthSequence(np.array([-1.0]))


class TestChain:
    def test_stage_zero_is_ones(self):
        chain = bootstrap_chain(5, 0)
        assert chain.iterations == 0
        assert np.array_equal(chain.stages[0].values, np.ones(5))

    def test_one_iteration_is_sqrt(self):
        chain = bootstrap_chain(9, 1)
        assert chain.stages[1].term(9) == pytest.approx(3.0, abs=1e-15)

    def test_two_iterations_match_literal_reevaluation(self):
        # oracle: recompute t_m = m (sum 1/stage1_n^2)^(-1/2) with fsum
        chain = bootstrap_chain(50, 2)
        stage1 = chain.stages[1].values
        for m in (1, 2, 4, 13, 50):
            oracle = m * math.fsum(1.0 / stage1[n] ** 2 for n in range(m)) ** -0.5
            assert chain.stages[2].term(m) == pytest.approx(oracle, rel=1e-13)

    def test_closed_forms_at_scale(self):
        M = 10_000
        chain = bootstrap_chain(M, 3)
        m = np.arange(1, M + 1, dtype=float)
        assert np.allclose(chain.stages[1].values, np.sqrt(m), rtol=1e-12)
        h = harmonic(M).values
        assert np.allclose(chain.stages[2].values, m / np.sqrt(h), rtol=1e-12)

    def test_third_stage_ratio_monotone_and_convergent(self):
        chain = bootstrap_chain(20_000, 3)
        ratio = chain.final_over_m
        assert np.all(np.diff(ratio) <= 1e-15)
        # limit is (sum H_n / n^2)^(-1/2); partial-sum oracle at the tail
        h = harmonic(20_000).values
        partial = math.fsum(h[n] / (n + 1) ** 2 for n in range(20_000))
        assert ratio[-1] == pytest.approx(partial**-0.5, rel=1e-12)

    def test_extra_iterations_allowed(self):
        chain = bootstrap_chain(100, 5)
        assert chain.iterations == 5
        assert np.all(chain.stages[5].values > 0)

    def test_prefix_stability(self):
        # values at rank m do not depend on the chain length
        short = bootstrap_chain(100, 3)
        long = bootstrap_chain(1000, 3)
        assert np.allclose(short.stages[3].values, long.stages[3].values[:100], rtol=1e-15)


class TestChainCsv:
    def test_header_and_rows(self):
        text = "".join(chain_csv(4, 1))
        lines = text.strip().split("\n")
        assert lines[0] == "m,stage0,stage1,stage1_over_m"
        assert lines[1].split(",")[0] == "1"
        assert float(lines[4].split(",")[2]) == pytest.approx(2.0)

    def test_deterministic_bytes(self):
        a = "".join(chain_csv(50, 3))
        b = "".join(chain_csv(50, 3))
        assert a == b

    @pytest.mark.parametrize("M", [1, 513, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_stream_is_the_chain_table(self, M, k):
        # oracle: the whole chain's rows, formatted as one table
        chain = bootstrap_chain(M, k)
        header = ["m"] + [f"stage{i}" for i in range(k + 1)] + [f"stage{k}_over_m"]
        rows = [[i + 1] + [float(s.values[i]) for s in chain.stages] + [float(r)]
                for i, r in enumerate(chain.final_over_m)]
        assert "".join(chain_csv(M, k)) == csv_text(header, rows)

    def test_rejects_bad_arguments_at_the_call(self):
        with pytest.raises(InvalidWeightError):
            chain_csv(0, 3)
        with pytest.raises(InvalidWeightError):
            chain_csv(5, -1)

    def test_stream_stays_small(self):
        # 200,000 rows of 5 columns; the whole chain alone would take 6.4 MB
        tracemalloc.start()
        try:
            size = sum(len(piece) for piece in chain_csv(200_000, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 10 * 2**20
        assert peak < 4 * 2**20


class TestChainJson:
    @pytest.mark.parametrize("M", [1, 513, BLOCK + 1, 50_000])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_stream_is_the_chain_json(self, M, k):
        assert "".join(chain_json(M, k)) == json_text(bootstrap_chain(M, k))

    def test_rejects_bad_arguments_at_the_call(self):
        with pytest.raises(InvalidWeightError):
            chain_json(0, 3)
        with pytest.raises(InvalidWeightError):
            chain_json(5, -1)

    def test_stream_stays_small(self):
        # 200,000 ranks in 4 stages; the whole chain alone would take 6.4 MB,
        # and its JSON text (as json_text builds it) about 14 MB
        tracemalloc.start()
        try:
            size = sum(len(piece) for piece in chain_json(200_000, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 10 * 2**20
        assert peak < 4 * 2**20


class TestStreaming:
    @pytest.mark.parametrize("M", [1, 511, 512, 513, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_chain_is_repeated_steps(self, M):
        chain = bootstrap_chain(M, 3)
        stage = chain.stages[0]
        assert np.array_equal(stage.values, np.ones(M))
        for k in (1, 2, 3):
            stage = bootstrap_step(stage)
            assert np.array_equal(chain.stages[k].values, stage.values)

    def test_blocks_cover_the_ranks(self):
        blocks = list(_stage_blocks(2 * BLOCK + 3, 2))
        assert [m.size for m, _ in blocks] == [BLOCK, BLOCK, 3]
        assert np.array_equal(np.concatenate([m for m, _ in blocks]),
                              np.arange(1, 2 * BLOCK + 4, dtype=float))
        assert all(len(stages) == 3 for _, stages in blocks)


def reference_suite(max_m):
    """The bootstrap suite's three values from whole arrays."""
    chain = bootstrap_chain(max_m, 3)
    m = np.arange(1, max_m + 1, dtype=float)
    err1 = float(np.max(np.abs(chain.stages[1].values / np.sqrt(m) - 1.0)))
    h = harmonic(max_m).values
    err2 = float(np.max(np.abs(chain.stages[2].values / (m / np.sqrt(h)) - 1.0)))
    steps = np.diff(chain.stages[3].values / m)
    nonmono = float(steps.max()) if steps.size else 0.0
    return [f"max rel err {err1:.3e}", f"max rel err {err2:.3e}", f"max increment {nonmono:.3e}"]


class TestSuite:
    @pytest.mark.parametrize("M", [1, 2, 511, 513, BLOCK, BLOCK + 1, BLOCK + 2, 40_000])
    def test_blocks_give_the_whole_array_values(self, M):
        results = suite_bootstrap(max_m=M)
        assert [r.detail for r in results] == reference_suite(M)
        assert all(r.passed for r in results)

    def test_suite_stays_small(self):
        # the whole-array suite held stages, harmonic numbers and temporaries: 61 MB
        tracemalloc.start()
        try:
            results = suite_bootstrap()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in results)
        assert peak < 4 * 2**20
