"""Block streams: every bulk search draws sample i as row i % SAMPLE_BLOCK of a
block drawn whole from the stream (seed, op, i // SAMPLE_BLOCK).

Sample i therefore depends on the seed, the operation and i alone, so a
search at budget 500 sees exactly the first 500 samples of one at budget
10000, whatever the row cap.
"""

import contextlib
import importlib
import io
import math
import pkgutil
import sys
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import qgreedy
import qgreedy.spaces as spaces_module
from qgreedy import rng
from qgreedy.bases import unconditional_constant, zoo
from qgreedy.cli import main
from qgreedy.democracy import (
    _profile_rows,
    _random_phi,
    _random_sets,
    _set_feed,
    _succ_pairs,
    lower_democracy,
    sign_change_constant,
    succ_constant,
    super_democracy_constant,
    upper_democracy,
)
from qgreedy.embeddings import embed_lorentz_into_space, embed_space_into_weak_lorentz
from qgreedy.greedy import (
    conditionality_growth_profile,
    quasi_greedy_constant,
    truncation_constant,
)
from qgreedy.lorentz import power_weight
from qgreedy.reports import json_text
from qgreedy.sampling import COEFF_KINDS, coefficient_block, random_masks
from qgreedy.verify import suite_lemma32, suite_lemma33

BASIS = zoo("perturbed_unit", p=0.5, dim=6, seed=2)
WEIGHT = power_weight(2.0, 6)

# every search that draws block samples, as a function of its budget
SEARCHES = {
    "quasi_greedy": lambda b: quasi_greedy_constant(BASIS, budget=b, seed=3),
    "truncation": lambda b: truncation_constant(BASIS, budget=b, seed=3),
    "conditionality": lambda b: conditionality_growth_profile(BASIS, budget=b, seed=3),
    "unconditional": lambda b: unconditional_constant(BASIS, mode="random", budget=b, seed=3),
    "profile": lambda b: _profile_rows(BASIS, 6, _set_feed(BASIS, 1, 6, b, 3, rng.PROFILE_SETS),
                                        _random_phi),
    "upper_democracy": lambda b: upper_democracy(BASIS, 3, mode="random", budget=b, seed=3),
    "lower_democracy": lambda b: lower_democracy(BASIS, 3, mode="random", budget=b, seed=3),
    "succ": lambda b: succ_constant(BASIS, budget=b, seed=3),
    "sign_change": lambda b: sign_change_constant(BASIS, budget=b, seed=3),
    "super_democracy": lambda b: super_democracy_constant(BASIS, budget=b, seed=3),
    "embed_space": lambda b: embed_space_into_weak_lorentz(BASIS, WEIGHT, budget=b, seed=3),
    "embed_lorentz": lambda b: embed_lorentz_into_space(BASIS, 0.5, WEIGHT, budget=b, seed=3),
    "lemma32": lambda b: suite_lemma32(trials=b, seed=3),
    "lemma33": lambda b: suite_lemma33(trials=b, seed=3),
}


def reference_stream(seed, *key):
    """numpy's own stream for ``key`` under ``seed``, built without ``rng``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def plain(sample):
    """A sample (an array, or a tuple of arrays) as nested lists."""
    if isinstance(sample, tuple):
        return [plain(part) for part in sample]
    return np.asarray(sample).tolist()


def qgreedy_modules():
    return [importlib.import_module(f"qgreedy.{info.name}")
            for info in pkgutil.iter_modules(qgreedy.__path__)]


def recorded_samples(monkeypatch, search: str, budget: int) -> dict:
    """key -> every sample the search drew under that key, in order."""
    log: dict = {}
    real = rng.block_samples

    def recording(draw, count, seed, *key):
        for sample in real(draw, count, seed, *key):
            log.setdefault((seed, *key), []).append(plain(sample))
            yield sample

    with monkeypatch.context() as patch:
        for module in qgreedy_modules():
            if getattr(module, "block_samples", None) is real:
                patch.setattr(module, "block_samples", recording)
        SEARCHES[search](budget)
    return log


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_samples_are_a_prefix_whatever_the_budget_and_row_cap(search, monkeypatch):
    small = recorded_samples(monkeypatch, search, 500)
    large = recorded_samples(monkeypatch, search, 10_000)
    assert small and small.keys() == large.keys()
    for key, samples in small.items():
        assert 0 < len(samples) < len(large[key])
        assert samples == large[key][:len(samples)]
    monkeypatch.setattr(spaces_module, "_ROW_CAP", 13)
    assert recorded_samples(monkeypatch, search, 500) == small


@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize("budget", [1, 256, 700])
def test_one_stream_per_block_of_samples(search, budget, monkeypatch):
    """Each sampled key makes ceil(count / 256) streams, blocks 0, 1, ...;
    ``rng.substream`` is looked up at call time by ``block_samples`` only."""
    counts = {key: len(samples)
              for key, samples in recorded_samples(monkeypatch, search, budget).items()}
    made = []
    real = rng.substream

    def counting(seed, *key):
        made.append((seed, *key))
        return real(seed, *key)

    monkeypatch.setattr(rng, "substream", counting)
    SEARCHES[search](budget)
    blocks: dict = {}
    for *key, block in made:
        blocks.setdefault(tuple(key), []).append(block)
    assert blocks == {key: list(range(math.ceil(n / rng.SAMPLE_BLOCK)))
                      for key, n in counts.items()}
    per_size = max(1, budget // BASIS.d)
    if search != "super_democracy":
        assert set(counts.values()) == {budget}
    else:
        assert set(counts.values()) == {per_size}
    assert len(made) == sum(math.ceil(n / rng.SAMPLE_BLOCK) for n in counts.values())


def test_block_samples_rows_come_from_the_block_stream():
    def draw(stream, start):
        return stream.random(rng.SAMPLE_BLOCK) + start

    got = list(rng.block_samples(draw, 600, 11, rng.QG_SAMPLES))
    assert len(got) == 600
    for i in (0, 255, 256, 511, 512, 599):
        block = rng.substream(11, rng.QG_SAMPLES, i // rng.SAMPLE_BLOCK).random(rng.SAMPLE_BLOCK)
        assert got[i] == block[i % rng.SAMPLE_BLOCK] + (i - i % rng.SAMPLE_BLOCK)
    assert list(rng.block_samples(draw, 0, 11, rng.QG_SAMPLES)) == []


def test_keys_are_hashed_one_block_at_a_time(monkeypatch):
    """The stream of a block is made, and its key hashed, only when the
    block's first sample is asked for; each block is drawn once."""
    made, drawn = [], []
    real = rng.substream

    def recording(seed, *key):
        made.append((seed, *key))
        return real(seed, *key)

    def draw(stream, start):
        drawn.append(start)
        return stream.random(rng.SAMPLE_BLOCK)

    monkeypatch.setattr(rng, "substream", recording)
    samples = rng.block_samples(draw, 10**5, 3, rng.QG_SAMPLES)
    assert made == [] and drawn == []
    first = next(samples)
    assert made == [(3, rng.QG_SAMPLES, 0)] and drawn == [0]
    assert first == reference_stream(3, rng.QG_SAMPLES, 0).random()
    rest = [next(samples) for _ in range(rng.SAMPLE_BLOCK)]
    assert made == [(3, rng.QG_SAMPLES, 0), (3, rng.QG_SAMPLES, 1)]
    assert drawn == [0, rng.SAMPLE_BLOCK]
    assert rest[-1] == reference_stream(3, rng.QG_SAMPLES, 1).random()
    assert list(rng.block_samples(draw, 0, 3, rng.QG_SAMPLES)) == []


def test_block_stream_keys_are_new_operation_codes():
    """Block streams use codes of their own, so no block key equals a key of a
    single-key stream."""
    codes = {name: value for name, value in vars(rng).items()
             if name.isupper() and isinstance(value, int) and name != "SAMPLE_BLOCK"}
    assert len(set(codes.values())) == len(codes)
    single = {rng.SUCC_PAIRS, rng.SIGN_CHANGE, rng.SUPER_DEMOCRACY, rng.KHINTCHINE_MC,
              rng.PAIR_FAMILIES, rng.PERTURBED_BASIS, rng.VERIFY_VECTORS}
    assert all(code >= 15 for name, code in codes.items() if code not in single)
    assert not set(codes.values()) & {1, 2, 3, 4, 5, 10, 11, 12}  # retired


# ---------------------------------------------------------------------------
# the block samplers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 7, 12])
@pytest.mark.parametrize("start", [0, 3, 256])
def test_coefficient_block_kinds(d, start):
    block = coefficient_block(np.random.default_rng(d + start), d, start)
    assert block.shape == (rng.SAMPLE_BLOCK, d) and np.isfinite(block).all()
    boosts = {10.0 ** -k for k in range(3, 10)}
    for r, row in enumerate(block):
        kind = COEFF_KINDS[(start + r) % len(COEFF_KINDS)]
        if kind == "flat_signs":
            assert set(np.abs(row).tolist()) == {1.0}
        elif kind == "plateau":
            moduli = set(np.abs(row).tolist())
            assert moduli <= {1.0} | {1.0 + b for b in boosts}
            assert len(moduli - {1.0}) == 1
        elif kind == "sparse":
            assert 1 <= np.count_nonzero(row) < max(2, d // 2)
            assert not np.signbit(row[row == 0]).any()
        elif kind == "decay":
            assert (row > 0).all() and (np.diff(row) <= 0).all()


def test_plateau_boosts_a_nonempty_subset():
    d = 9
    block = coefficient_block(np.random.default_rng(0), d, 2)  # row 0 is a plateau
    plateaus = np.abs(block[::len(COEFF_KINDS)])
    boosted = (plateaus > 1.0).sum(axis=1)
    assert boosted.min() >= 1 and boosted.max() == d
    assert len({float(v) for v in plateaus.max(axis=1)}) > 3  # several exponents


def test_random_subsets_sizes_and_members():
    d = 10
    stream = np.random.default_rng(4)
    sizes = stream.integers(0, d + 1, size=rng.SAMPLE_BLOCK)
    for size, members in zip(sizes, map(np.flatnonzero, random_masks(stream, d, sizes))):
        assert members.size == size
        assert members.tolist() == sorted(set(members.tolist()))
        assert all(0 <= m < d for m in members.tolist())


def test_random_masks_within_pick_members_only():
    d = 9
    stream = np.random.default_rng(5)
    outer = random_masks(stream, d, np.full(rng.SAMPLE_BLOCK, 6))
    inner = random_masks(stream, d, np.arange(rng.SAMPLE_BLOCK) % 5 + 1, within=outer)
    assert (inner.sum(axis=1) == np.arange(rng.SAMPLE_BLOCK) % 5 + 1).all()
    assert not (inner & ~outer).any()


def test_sampled_set_sizes():
    """Sizes uniform in [low, high], or fixed unless i % 3 == 0; nested succ
    pairs with 2 <= |B| <= d and 1 <= |A| < |B|."""
    d = 10
    sizes = [s.size for s in _random_sets(d, 2, 7, 600, 1, rng.PROFILE_SETS)]
    assert set(sizes) == set(range(2, 8))
    sizes = [s.size for s in _random_sets(d, 3, d, 600, 1, rng.LOWER_DEMOCRACY_SETS, fixed=3)]
    assert {n for i, n in enumerate(sizes) if i % 3} == {3}
    assert set(sizes[::3]) == set(range(3, d + 1))
    pairs = list(_succ_pairs(d, 600, 1))
    assert {b.size for _, b in pairs} == set(range(2, d + 1))
    assert {a.size for a, _ in pairs} == set(range(1, d))
    assert all(0 < a.size < b.size and set(a.tolist()) <= set(b.tolist()) for a, b in pairs)


def test_random_subsets_are_uniform():
    """Rank masks of uniform keys give every 2-subset of {0..3} equally often."""
    stream = np.random.default_rng(6)
    counts = Counter()
    for _ in range(40):
        counts.update(tuple(np.flatnonzero(s).tolist()) for s in
                      random_masks(stream, 4, np.full(rng.SAMPLE_BLOCK, 2)))
    assert set(counts) == set(combinations(range(4), 2))
    expected = 40 * rng.SAMPLE_BLOCK / 6
    assert all(abs(n / expected - 1.0) < 0.1 for n in counts.values())


def test_no_module_keeps_per_sample_streams():
    """The per-sample stream port and the scalar samplers are gone."""
    for module in qgreedy_modules():
        assert not hasattr(module, "substreams"), module.__name__
    for name in ("_key_pool", "_block_states", "_preset_state_type"):
        assert not hasattr(rng, name)
    sampling = sys.modules["qgreedy.sampling"]
    assert not hasattr(sampling, "coefficient_sample")
    assert not hasattr(sampling, "random_subset")


# ---------------------------------------------------------------------------
# call sites: each draws the expected block streams, built as numpy's own
# ---------------------------------------------------------------------------


def cli_stdout(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        main(list(argv))
    return buf.getvalue()


def library_json(fn, *args, **kwargs):
    return lambda: json_text(fn(*args, **kwargs))


# name -> (run, the (key, count) of its block_samples calls in order)
CALL_SITE_RUNS = {
    "analyze": (
        lambda: cli_stdout("analyze", "--zoo", "difference", "--p", "0.5", "--dim", "12",
                           "--budget", "1000", "--format", "json", "--seed", "4"),
        [((rng.PROFILE_SETS,), 1000), ((rng.QG_SAMPLES,), 500),
         ((rng.SUCC_PAIR_SAMPLES,), 500), ((rng.SIGN_CHANGE_SETS,), 500),
         *[((rng.SUPER_DEMOCRACY_SETS, m), 500 // 12) for m in range(1, 13)],
         ((rng.KU_SAMPLES,), 1000), ((rng.QG_SAMPLES,), 1000),
         ((rng.TRUNCATION_SAMPLES,), 1000), ((rng.CONDITIONALITY_SAMPLES,), 400)]),
    "verify-succ": (lambda: cli_stdout("verify", "succ", "--seed", "4"),
                    [((rng.SUCC_PAIR_SAMPLES,), 300), ((rng.SIGN_CHANGE_SETS,), 300),
                     ((rng.SUCC_PAIR_SAMPLES,), 300)]),
    "verify-lemma32": (lambda: cli_stdout("verify", "lemma32", "--trials", "2000", "--seed", "4"),
                       [((rng.LEMMA32_VECTORS,), 2000)]),
    "verify-lemma33": (lambda: cli_stdout("verify", "lemma33", "--seed", "4"),
                       [((rng.LEMMA33_SIZES,), 1000)]),
    "upper-democracy": (library_json(upper_democracy, zoo("difference", p=0.5, dim=10), 4,
                                     mode="random", budget=300, seed=4),
                        [((rng.UPPER_DEMOCRACY_SETS,), 300)]),
    "lower-democracy": (library_json(lower_democracy, zoo("difference", p=0.5, dim=10), 4,
                                     mode="random", budget=300, seed=4),
                        [((rng.LOWER_DEMOCRACY_SETS,), 300)]),
    "embed-space": (library_json(embed_space_into_weak_lorentz, zoo("difference", p=0.5, dim=8),
                                 power_weight(2.0, 8), budget=300, seed=4),
                    [((rng.EMBED_SPACE_SAMPLES,), 300)]),
    "embed-lorentz": (library_json(embed_lorentz_into_space, zoo("difference", p=0.5, dim=8),
                                   0.5, power_weight(2.0, 8), budget=300, seed=4),
                      [((rng.EMBED_LORENTZ_SAMPLES,), 300)]),
}


@pytest.mark.parametrize("name", sorted(CALL_SITE_RUNS))
def test_call_sites_match_per_key_streams(name, monkeypatch, inline_tasks):
    """Byte-identical output when every module's ``block_samples`` is replaced
    by one numpy ``SeedSequence`` stream per block key (seed, *key, block),
    drawn whole and cut to the count, and the keys and counts those calls ask
    for are the expected ones: each call site draws the same blocks in the
    same order.  The estimators run inline, in their listed order, so every
    call is recorded here."""
    run, expected_calls = CALL_SITE_RUNS[name]
    got = run()
    calls = []

    def per_key_blocks(draw, count, seed, *key):
        calls.append((key, count))
        for start in range(0, count, rng.SAMPLE_BLOCK):
            block = draw(reference_stream(seed, *key, start // rng.SAMPLE_BLOCK), start)
            yield from block[:count - start]

    patched = [module for module in qgreedy_modules()
               if getattr(module, "block_samples", None) is rng.block_samples]
    assert {m.__name__ for m in patched} >= {"qgreedy.bases", "qgreedy.democracy",
                                             "qgreedy.sampling", "qgreedy.verify"}
    for module in patched:
        monkeypatch.setattr(module, "block_samples", per_key_blocks)
    assert run() == got
    assert calls == expected_calls
