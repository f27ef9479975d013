"""Deterministic random streams for all budgeted searches.

Every randomized sample is drawn from a generator keyed by
``(seed, operation code, sample index)``.  Sample i therefore sees the same
stream no matter in which order, on which thread, or alongside which other
operations it is evaluated.

``substream`` makes one such generator through numpy's ``SeedSequence``.
``substreams`` makes the generators of many indices under one operation code;
it hashes them in blocks with a numpy port of ``SeedSequence``'s entropy pool,
and each of its generators equals the one ``substream`` gives for that key,
bit for bit.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator

import numpy as np

from .spaces import _ROW_CAP

_SEED_MASK = (1 << 64) - 1

# Operation codes for substreams.  Stable identifiers: never reuse a value.
KU_SEARCH = 1
QG_SEARCH = 2
TRUNCATION_SEARCH = 3
CONDITIONALITY_SEARCH = 4
DEMOCRACY_SETS = 5
SUCC_PAIRS = 6
SIGN_CHANGE = 7
SUPER_DEMOCRACY = 8
KHINTCHINE_MC = 9
EMBED_SPACE = 10
EMBED_LORENTZ = 11
PAIR_FAMILY = 12
PERTURBED_BASIS = 13
VERIFY_VECTORS = 14

# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of 4 uint32
# words, its hash constants and its mixing multipliers.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``key`` under ``seed``."""
    entropy = int(seed) & _SEED_MASK
    spawn_key = tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key))


def substreams(seed: int, op: int, keys: Iterable[int]) -> Iterator[np.random.Generator]:
    """``substream(seed, op, k)`` for each k of ``keys``, in order, lazily.

    Keys are read and hashed in blocks of at most ``_ROW_CAP``, one block at
    a time.  A key outside [0, 2^32) takes more than one entropy word and goes
    through ``substream`` itself.
    """
    preset = _preset_state_type()
    pool, const = _key_pool(seed, op)
    it = iter(keys)
    while block := [int(k) for k in itertools.islice(it, _ROW_CAP)]:
        small = [k for k in block if 0 <= k <= _MASK32]
        states = iter(_block_states(pool, const, np.array(small, dtype=np.uint32)))
        for k in block:
            if 0 <= k <= _MASK32:
                # a copy, so that no generator keeps the whole block alive
                state = next(states).copy()
                yield np.random.Generator(np.random.PCG64(preset(state)))
            else:
                yield substream(seed, op, k)


@functools.cache
def _preset_state_type() -> type:
    """The seed class ``substreams`` hands to ``PCG64``; defined on first use,
    so that importing this module does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class PresetState(ISeedSequence):
        """Stands in for the SeedSequence whose ``generate_state(4, np.uint64)``
        gave ``state``; that call is the only one ``PCG64`` makes."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a preset state serves generate_state(4, np.uint64) only")
            return self.state

    return PresetState


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's ``hashmix`` of a word (an int, or every word of a uint32
    array, whose products wrap mod 2^32); returns it and the next constant.
    ``generate_state`` hashes its output words the same way with ``_MULT_B``."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ (value >> _XSHIFT), nxt


def _mix(x: int, y):
    """SeedSequence's ``mix`` of the pool word ``x`` with ``y`` (an int or a
    uint32 array)."""
    result = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _key_pool(seed: int, op: int) -> tuple[list[int], int]:
    """The entropy pool of ``SeedSequence(seed, spawn_key=(op, k))`` before k
    is mixed in, and the hash constant at that point.

    The run entropy is padded to the pool size, as SeedSequence pads it when
    a spawn key is present, and the one-word ``op`` follows.
    """
    op = int(op)
    if not 0 <= op <= _MASK32:
        raise ValueError(f"operation code must lie in [0, 2^32), got {op}")
    entropy = int(seed) & _SEED_MASK
    words = [entropy & _MASK32] + ([entropy >> 32] if entropy >> 32 else [])
    words += [0] * (_POOL_SIZE - len(words))
    const = _INIT_A
    pool = []
    for w in words:
        value, const = _hashmix(w, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for dst in range(_POOL_SIZE):
        value, const = _hashmix(op, const)
        pool[dst] = _mix(pool[dst], value)
    return pool, const


def _block_states(pool: list[int], const: int, keys: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of the pool after each one-word key of
    ``keys`` (uint32) is mixed in: one (len(keys), 4) uint64 row per key.

    Every hash constant is the same for all keys, so each step of the hash is
    one array operation over the block.
    """
    mixed = []
    for dst in range(_POOL_SIZE):
        value, const = _hashmix(keys, const)
        mixed.append(_mix(pool[dst], value))
    words = []
    const = _INIT_B
    for i in range(8):  # eight uint32 words make the four uint64 words
        value, const = _hashmix(mixed[i % _POOL_SIZE], const, _MULT_B)
        words.append(value.astype(np.uint64))
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(words[0::2], words[1::2])],
                    axis=1)
