"""Block-derived substreams against numpy's own SeedSequence streams.

``substreams`` hashes its keys with a numpy port of ``SeedSequence``.  If a
numpy release changes that algorithm, the guard tests here fail instead of
every sampled search moving quietly.
"""

import contextlib
import io
import sys

import numpy as np
import pytest

from qgreedy import rng
from qgreedy.bases import zoo
from qgreedy.cli import main
from qgreedy.democracy import lower_democracy, upper_democracy
from qgreedy.embeddings import embed_lorentz_into_space, embed_space_into_weak_lorentz
from qgreedy.lorentz import power_weight
from qgreedy.reports import json_text
from qgreedy.spaces import _ROW_CAP

KEYS = [*range(5000), 2**30 + 17, 2**32 - 1]
SEEDS_OPS = [(0, rng.QG_SEARCH), (7919, rng.DEMOCRACY_SETS), (2**32, rng.VERIFY_VECTORS),
             (2**64 - 1, rng.KU_SEARCH)]


def reference_stream(seed, op, key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(op, key)))


@pytest.mark.parametrize("seed,op", SEEDS_OPS)
def test_block_words_equal_seed_sequence(seed, op):
    pool, const = rng._key_pool(seed, op)
    words = rng._block_states(pool, const, np.array(KEYS, dtype=np.uint32))
    want = np.array([np.random.SeedSequence(entropy=seed, spawn_key=(op, k))
                     .generate_state(4, np.uint64) for k in KEYS])
    assert words.dtype == np.uint64 and words.shape == (len(KEYS), 4)
    assert np.array_equal(words, want)


@pytest.mark.parametrize("seed,op", SEEDS_OPS)
def test_block_streams_draw_like_seed_sequence(seed, op):
    got = list(rng.substreams(seed, op, KEYS))
    assert len(got) == len(KEYS)
    for k, g in zip(KEYS, got):
        ref = reference_stream(seed, op, k)
        assert g.integers(0, 2**63, size=2).tolist() == ref.integers(0, 2**63, size=2).tolist()
        assert g.random() == ref.random()


def test_wide_keys_take_the_single_key_path(monkeypatch):
    made = []
    real = rng.substream

    def recording(seed, *key):
        made.append(key)
        return real(seed, *key)

    monkeypatch.setattr(rng, "substream", recording)
    keys = [5, 2**32, 7, 2**40]
    got = list(rng.substreams(11, rng.SUCC_PAIRS, keys))
    assert made == [(rng.SUCC_PAIRS, 2**32), (rng.SUCC_PAIRS, 2**40)]
    for k, g in zip(keys, got):
        assert g.random(3).tolist() == reference_stream(11, rng.SUCC_PAIRS, k).random(3).tolist()


def test_keys_are_hashed_one_block_at_a_time(monkeypatch):
    hashed = []
    real = rng._block_states

    def counting(pool, const, keys):
        hashed.append(len(keys))
        return real(pool, const, keys)

    monkeypatch.setattr(rng, "_block_states", counting)
    streams = rng.substreams(3, rng.QG_SEARCH, range(10**5))
    assert hashed == []
    first = next(streams)
    assert hashed == [_ROW_CAP]
    assert first.random() == reference_stream(3, rng.QG_SEARCH, 0).random()
    assert list(rng.substreams(3, rng.QG_SEARCH, [])) == []


def test_preset_state_serves_only_the_pcg64_seeding_call():
    state = np.random.SeedSequence(1).generate_state(4, np.uint64)
    preset = rng._preset_state_type()(state)
    assert preset.generate_state(4, np.uint64) is state
    with pytest.raises(ValueError):
        preset.generate_state(8, np.uint32)


# ---------------------------------------------------------------------------
# call sites: the block form consumes the keys the per-key form would
# ---------------------------------------------------------------------------


def cli_stdout(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        main(list(argv))
    return buf.getvalue()


def library_json(fn, *args, **kwargs):
    return lambda: json_text(fn(*args, **kwargs))


# name -> (run, the (op, keys) of its substreams calls in order, by the key
# formulas of the per-key loops the block form replaced)
CALL_SITE_RUNS = {
    "analyze": (
        lambda: cli_stdout("analyze", "--zoo", "difference", "--p", "0.5", "--dim", "12",
                           "--budget", "1000", "--format", "json", "--seed", "4"),
        [(rng.DEMOCRACY_SETS, range(1000)), (rng.QG_SEARCH, range(500)),
         (rng.SUCC_PAIRS, range(500)), (rng.SIGN_CHANGE, range(500)),
         *[(rng.SUPER_DEMOCRACY, range(500 * m, 500 * m + 500 // 12)) for m in range(1, 13)],
         (rng.KU_SEARCH, range(1000)), (rng.QG_SEARCH, range(1000)),
         (rng.TRUNCATION_SEARCH, range(1000)), (rng.CONDITIONALITY_SEARCH, range(400))]),
    "verify-succ": (lambda: cli_stdout("verify", "succ", "--seed", "4"),
                    [(rng.SUCC_PAIRS, range(10000)), (rng.SIGN_CHANGE, range(10000)),
                     (rng.SUCC_PAIRS, range(10000))]),
    "verify-lemma32": (lambda: cli_stdout("verify", "lemma32", "--trials", "2000", "--seed", "4"),
                       [(rng.VERIFY_VECTORS, range(2000))]),
    "verify-lemma33": (lambda: cli_stdout("verify", "lemma33", "--seed", "4"),
                       [(rng.VERIFY_VECTORS, range(1000, 2000))]),
    "upper-democracy": (library_json(upper_democracy, zoo("difference", p=0.5, dim=10), 4,
                                     mode="random", budget=300, seed=4),
                        [(rng.DEMOCRACY_SETS, range(300))]),
    "lower-democracy": (library_json(lower_democracy, zoo("difference", p=0.5, dim=10), 4,
                                     mode="random", budget=300, seed=4),
                        [(rng.DEMOCRACY_SETS, range(300, 600))]),
    "embed-space": (library_json(embed_space_into_weak_lorentz, zoo("difference", p=0.5, dim=8),
                                 power_weight(2.0, 8), budget=300, seed=4),
                    [(rng.EMBED_SPACE, range(300))]),
    "embed-lorentz": (library_json(embed_lorentz_into_space, zoo("difference", p=0.5, dim=8),
                                   0.5, power_weight(2.0, 8), budget=300, seed=4),
                      [(rng.EMBED_LORENTZ, range(300))]),
}


@pytest.mark.parametrize("name", sorted(CALL_SITE_RUNS))
def test_call_sites_match_per_key_streams(name, monkeypatch):
    """Byte-identical output when every module's ``substreams`` is replaced by
    one ``substream`` call per key, and the keys those calls ask for are the
    per-key loops' keys: each call site draws the same streams in the same
    order as before."""
    run, expected_calls = CALL_SITE_RUNS[name]
    got = run()
    calls = []

    def per_key_substreams(seed, op, keys):
        keys = list(keys)
        calls.append((op, keys))
        for k in keys:
            yield rng.substream(seed, op, k)

    patched = [module for mod_name, module in sys.modules.items()
               if mod_name.startswith("qgreedy") and getattr(module, "substreams", None)
               is rng.substreams]
    assert {m.__name__ for m in patched} >= {"qgreedy.bases", "qgreedy.democracy",
                                             "qgreedy.embeddings", "qgreedy.greedy",
                                             "qgreedy.verify"}
    for module in patched:
        monkeypatch.setattr(module, "substreams", per_key_substreams)
    assert run() == got
    assert calls == [(op, list(keys)) for op, keys in expected_calls]
