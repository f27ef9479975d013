"""Deterministic random streams for all budgeted searches.

A stream is a generator keyed by ``(seed, operation code, key...)`` through
numpy's ``SeedSequence`` (``substream``).  The bulk searches draw their
samples in blocks: sample i is row ``i % SAMPLE_BLOCK`` of one block drawn
whole from the stream ``(seed, op, i // SAMPLE_BLOCK)`` (``block_samples``).
Sample i therefore depends on the seed, the operation and i only: not on the
budget, the row cap, the chunking or the order of evaluation, and a search at
a smaller budget sees a prefix of the samples of a larger one.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

import numpy as np

_SEED_MASK = (1 << 64) - 1

# Operation codes.  Stable identifiers: never reuse a value.  Codes 1-5, 10
# and 11 keyed one stream per sample of loops that now draw block streams
# (15 onward); they are retired.
SUCC_PAIRS = 6  # per-set sign streams, keyed by position
SIGN_CHANGE = 7  # per-set sign streams, keyed by position
SUPER_DEMOCRACY = 8  # per-set sign streams, keyed by (size, position)
KHINTCHINE_MC = 9
PAIR_FAMILY = 12
PERTURBED_BASIS = 13
VERIFY_VECTORS = 14
KU_SAMPLES = 15
QG_SAMPLES = 16
TRUNCATION_SAMPLES = 17
CONDITIONALITY_SAMPLES = 18
PROFILE_SETS = 19
UPPER_DEMOCRACY_SETS = 20
LOWER_DEMOCRACY_SETS = 21
SUCC_PAIR_SAMPLES = 22
SIGN_CHANGE_SETS = 23
SUPER_DEMOCRACY_SETS = 24  # keyed by (size, block)
EMBED_SPACE_SAMPLES = 25
EMBED_LORENTZ_SAMPLES = 26
LEMMA32_VECTORS = 27
LEMMA33_SIZES = 28

SAMPLE_BLOCK = 256


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``key`` under ``seed``."""
    entropy = int(seed) & _SEED_MASK
    spawn_key = tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key))


def block_samples(draw: Callable[[np.random.Generator, int], Sequence], count: int,
                  seed: int, *key: int) -> Iterator:
    """Samples 0..count-1 of the sequence keyed ``(seed, *key)``, lazily.

    ``draw(rng, start)`` returns the SAMPLE_BLOCK samples start, start + 1, ...
    from ``rng = substream(seed, *key, start // SAMPLE_BLOCK)``.  Every block
    is drawn whole and the last one is cut to ``count``.
    """
    for start in range(0, count, SAMPLE_BLOCK):
        block = draw(substream(seed, *key, start // SAMPLE_BLOCK), start)
        yield from block[:count - start]
