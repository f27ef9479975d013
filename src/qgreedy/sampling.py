"""Shared candidate generators for the budgeted witness searches.

The random samplers fill whole blocks of ``rng.SAMPLE_BLOCK`` rows from one
stream (see :func:`qgreedy.rng.block_samples`), with one vectorised draw per
quantity and block.
"""

from __future__ import annotations

import numpy as np

from .rng import SAMPLE_BLOCK, block_samples

COEFF_KINDS = ("gaussian", "flat_signs", "plateau", "sparse", "decay")


def coefficient_samples(d: int, count: int, seed: int, op: int):
    """The first ``count`` coefficient samples of the search ``op``, in order."""
    return block_samples(lambda rng, start: coefficient_block(rng, d, start), count, seed, op)


def coefficient_block(rng: np.random.Generator, d: int, start: int) -> np.ndarray:
    """Coefficient samples start, ..., start + SAMPLE_BLOCK - 1 as the rows of
    one array; sample i has the shape ``COEFF_KINDS[i % 5]``:

    gaussian    i.i.d. normal entries
    flat_signs  +/-1 entries
    plateau     all ones with a boost 10^-k (k uniform in 3..9) on a uniform
                random subset of uniform size; the boosted subset becomes the
                greedy set, which is how tie-adversarial witnesses are
                produced; then random signs
    sparse      gaussian on a uniform random support of fewer than
                max(2, d // 2) members
    decay       positive, sorted decreasing (greedy order = index order)
    """
    kinds = (start + np.arange(SAMPLE_BLOCK)) % len(COEFF_KINDS)
    out = np.empty((SAMPLE_BLOCK, d))
    for k, draw in enumerate((_gaussian, _flat_signs, _plateau, _sparse, _decay)):
        at = np.flatnonzero(kinds == k)
        out[at] = draw(rng, at.size, d)
    return out


def _gaussian(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return rng.standard_normal((n, d))


def _flat_signs(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return random_signs(rng, (n, d))


def _plateau(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    boosted = random_masks(rng, d, rng.integers(1, d + 1, size=n))
    boost = 10.0 ** -rng.integers(3, 10, size=(n, 1))
    return np.where(boosted, 1.0 + boost, 1.0) * random_signs(rng, (n, d))


def _sparse(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    support = random_masks(rng, d, rng.integers(1, max(2, d // 2), size=n))
    return np.where(support, rng.standard_normal((n, d)), 0.0)


def _decay(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return np.sort(np.abs(rng.standard_normal((n, d))), axis=1)[:, ::-1] + 1e-12


def random_signs(rng: np.random.Generator, shape) -> np.ndarray:
    """Independent uniform +/-1 entries."""
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def random_masks(rng: np.random.Generator, d: int, sizes: np.ndarray,
                 within: np.ndarray | None = None) -> np.ndarray:
    """One row per entry of ``sizes``: the indicator of a uniform random subset
    of {0..d-1} (of the row's members of ``within``, if given) with that many
    members; it marks the ranks below the size of d uniform keys."""
    keys = rng.random((len(sizes), d))
    if within is not None:
        keys[~within] = 2.0  # ranked after every member
    return keys.argsort(axis=1).argsort(axis=1) < np.asarray(sizes)[:, None]


def plateau_coefficients(d: int, boosted, delta: float = 1e-9) -> np.ndarray:
    """Ones with entries raised by ``delta`` on ``boosted`` (deterministic)."""
    coeffs = np.ones(d)
    coeffs[np.asarray(list(boosted), dtype=int)] += delta
    return coeffs


def structured_subsets(d: int, m: int) -> list[np.ndarray]:
    """Deterministic index sets of size m: intervals, stride-2 combs, spread."""
    out: list[np.ndarray] = []
    if m < 1 or m > d:
        return out
    out.append(np.arange(m))
    out.append(np.arange(d - m, d))
    if 2 * m <= d + 1:
        out.append(np.arange(0, 2 * m, 2))
        even = np.arange(1, 2 * m, 2)
        if even[-1] < d:
            out.append(even)
    stride = max(1, d // m)
    spread = np.arange(0, stride * m, stride)
    if spread[-1] < d:
        out.append(spread)
    return out
