"""compensated_cumsum against the per-chunk loop it replaced: one cumsum and
one math.fsum per 512-term chunk, carried with Neumaier compensation."""

import math
import sys
import warnings

import numpy as np
import pytest

from qgreedy import numerics
from qgreedy.bootstrap import bootstrap_chain
from qgreedy.numerics import RunningTotal, compensated_cumsum

CHUNK = 512
LENGTHS = [0, 1, 511, 512, 513, 3 * CHUNK + 7, 10**6]


def reference_cumsum(x):
    """The per-chunk loop: np.cumsum and math.fsum once per chunk."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    carry = 0.0
    comp = 0.0
    for i in range(0, x.size, CHUNK):
        seg = x[i : i + CHUNK]
        np.cumsum(seg, out=out[i : i + CHUNK])
        out[i : i + CHUNK] += carry
        out[i : i + CHUNK] += comp
        total = math.fsum(seg)
        s = carry + total
        if abs(carry) >= abs(total):
            comp += (carry - s) + total
        else:
            comp += (total - s) + carry
        carry = s
    return out


def tie_rows(n, rng):
    """Integer chunks that start at 2^53: a chunk whose other terms sum to a
    positive odd integer has an exact total halfway between two doubles (the
    spacing is 2 above 2^53 and 1 below)."""
    x = rng.integers(-1000, 1001, size=n).astype(float)
    x[::CHUNK] = 2.0**53
    return x


KINDS = {
    "mixed_signs": lambda n, rng: rng.standard_normal(n),
    "scales": lambda n, rng: rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, size=n),
    "ties": tie_rows,
}


def outcome(fn, x):
    """The result's bits, or the exception's type and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy's inf - inf warnings
        try:
            return fn(x).tobytes()
        except (ValueError, OverflowError) as exc:
            return type(exc), str(exc)


@pytest.fixture
def fsum_calls(monkeypatch):
    calls = []
    real = math.fsum

    def counting(values):
        calls.append(len(values))
        return real(values)

    monkeypatch.setattr(math, "fsum", counting)
    return calls


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n", LENGTHS)
def test_bits_equal_the_per_chunk_loop(n, kind):
    x = KINDS[kind](n, np.random.default_rng(n))
    assert compensated_cumsum(x).tobytes() == reference_cumsum(x).tobytes()


def test_ties_fall_back_to_fsum(fsum_calls):
    x = tie_rows(20 * CHUNK, np.random.default_rng(1))
    rest = [math.fsum(x[i + 1 : i + CHUNK]) for i in range(0, x.size, CHUNK)]
    ties = sum(r > 0 and r % 2 == 1 for r in rest)
    assert 0 < ties < len(rest) and min(rest) < 0
    fsum_calls.clear()
    got = compensated_cumsum(x)
    assert len(fsum_calls) == ties + 1  # every tie, and the empty tail
    assert got.tobytes() == reference_cumsum(x).tobytes()


BIG = sys.float_info.max


# the last four sum exactly to 2^970, yet the partials of fsum overflow on the way
@pytest.mark.parametrize("values", [[math.inf], [math.nan], [math.inf, -math.inf],
                                    [-math.inf, 1.0], [1e308, 1e308, -1e308],
                                    [BIG, 2.0**969, 2.0**969, -BIG]])
@pytest.mark.parametrize("at", [0, 2 * CHUNK + 5, 3 * CHUNK + 2])
def test_non_finite_rows_match(values, at):
    x = np.random.default_rng(2).standard_normal(3 * CHUNK + 7)
    x[at : at + len(values)] = values
    assert outcome(compensated_cumsum, x) == outcome(reference_cumsum, x)


def test_bootstrap_stage_inputs_rarely_fall_back(fsum_calls):
    """The chain's three summed inputs (s^-2 of stages 0-2 at 10^6 terms) take
    the exact double-double total in all but under 1% of their chunks."""
    chain = bootstrap_chain(10**6, 2)
    chunks = math.ceil(10**6 / CHUNK)
    for stage in chain.stages:
        fsum_calls.clear()
        compensated_cumsum(stage.values**-2.0)
        assert len(fsum_calls) < 0.01 * chunks


def test_short_inputs_take_one_fsum(fsum_calls):
    compensated_cumsum(np.arange(16.0))
    assert fsum_calls == [16]


def test_block_boundaries_do_not_move_bits(monkeypatch):
    x = KINDS["scales"](7 * CHUNK + 3, np.random.default_rng(3))
    want = reference_cumsum(x).tobytes()
    for rows in (1, 2, 5):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", rows)
        assert compensated_cumsum(x).tobytes() == want


def in_pieces(x, sizes):
    """compensated_cumsum fed through one running total, ``sizes`` terms a piece."""
    total = RunningTotal()
    bounds = np.cumsum([0, *sizes])
    return np.concatenate([compensated_cumsum(x[a:b], total) for a, b in zip(bounds, bounds[1:])]
                          + [compensated_cumsum(x[bounds[-1]:], total)])


PIECES = [[], [CHUNK], [CHUNK, CHUNK], [16 * CHUNK], [3 * CHUNK, 0, 17 * CHUNK]]


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("sizes", PIECES)
@pytest.mark.parametrize("n", [CHUNK * 20, CHUNK * 20 + 9, CHUNK * 37 + 500])
def test_pieces_give_the_one_shot_bits(n, sizes, kind):
    x = KINDS[kind](n, np.random.default_rng(n))
    assert in_pieces(x, sizes).tobytes() == compensated_cumsum(x).tobytes()


@pytest.mark.parametrize("values", [[math.inf, -math.inf], [-math.inf, 1.0], [math.inf],
                                    [1e308, 1e308, -1e308], [BIG, 2.0**969, 2.0**969, -BIG]])
@pytest.mark.parametrize("at", [5, CHUNK - 2, 2 * CHUNK + 5, 3 * CHUNK + 2])
def test_pieces_raise_as_one_shot(values, at):
    x = np.random.default_rng(4).standard_normal(3 * CHUNK + 7)
    x[at : at + len(values)] = values
    assert outcome(lambda x: in_pieces(x, [CHUNK, 2 * CHUNK]), x) == outcome(compensated_cumsum, x)


def test_only_the_last_piece_ends_inside_a_chunk():
    total = RunningTotal()
    compensated_cumsum(np.ones(CHUNK + 1), total)
    with pytest.raises(ValueError, match="last piece"):
        compensated_cumsum(np.ones(CHUNK), total)
