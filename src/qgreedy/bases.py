"""Biorthogonal bases at finite scale.

A basis is a pair of (d x N) matrices: rows of ``vectors`` are the basis
elements x_n in ambient coordinates, rows of ``duals`` are the coordinate
arrays of the functionals x_n*, with x_n*(x_k) = delta_{nk}.  Index sets are
0-based throughout the Python API.

All sup-type constants are reported as :class:`~qgreedy.estimates.BoundEstimate`
pairs: a witness-certified lower bound plus a certified upper bound where one
is available (diagonal systems, or the p-convexity product bound).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .bounds import row_ceilings
from .errors import (
    BasisFileError,
    CombinatorialOverflowError,
    DimensionMismatchError,
    InvalidVectorError,
    NotABasisError,
)
from .estimates import BoundEstimate, Tracker, ratios
from .rng import KU_SAMPLES, PERTURBED_BASIS, SAMPLE_BLOCK, block_samples, substream
from .sampling import random_masks, random_signs
from .spaces import (
    AmbientSpace,
    BlockLpL2,
    Lp,
    LorentzSpace,
    Scratch,
    _row_chunks,
    _subset_sums,
    ambient_gauge,
    ambient_gauge_rows,
    as_vector,
    dual_gauge,
    p_convexity,
)

__all__ = [
    "Basis",
    "BIORTHOGONALITY_TOL",
    "candidate_blocks",
    "coefficient_transform",
    "synthesize",
    "sign_operator",
    "coordinate_projection",
    "unconditional_constant",
    "zoo",
    "ZOO_NAMES",
    "load_basis",
    "save_basis",
    "basis_to_dict",
]

BIORTHOGONALITY_TOL = 1e-9
_DESCENT_PASSES = 4  # coordinate-descent sweeps per multiplier search
_CANONICAL_CAP = 48  # unit vectors and basis vectors in the canonical pool
_SIGN_FLIP_KEEP = 8  # sign-flip survivors handed to coordinate descent
# why an operator constant of a diagonal system is at most 1
_DIAGONAL_NOTE = "diagonal system; gauge monotone in coordinate moduli"

ZOO_NAMES = ("unit", "difference", "block_l2", "perturbed_unit")


@dataclass(frozen=True, eq=False)
class Basis:
    space: AmbientSpace
    vectors: np.ndarray
    duals: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=float)
        u = np.asarray(self.duals, dtype=float)
        if v.ndim != 2 or u.ndim != 2:
            raise NotABasisError("vectors and duals must be 2-d arrays")
        if v.shape != u.shape:
            raise NotABasisError(f"vectors shape {v.shape} != duals shape {u.shape}")
        d, n = v.shape
        if d < 1:
            raise NotABasisError("a basis needs at least one vector")
        if n != self.space.dim:
            raise DimensionMismatchError(
                f"row length {n} != ambient dimension {self.space.dim}"
            )
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(u))):
            raise NotABasisError("vectors and duals must be finite")
        gram = u @ v.T
        err = np.abs(gram - np.eye(d))
        worst = np.unravel_index(np.argmax(err), err.shape)
        if err[worst] > BIORTHOGONALITY_TOL:
            i, k = int(worst[0]), int(worst[1])
            raise NotABasisError(
                f"biorthogonality violated at (n={i}, k={k}): "
                f"|x*_{i}(x_{k}) - {1 if i == k else 0}| = {err[worst]:.3e} "
                f"exceeds {BIORTHOGONALITY_TOL:g}"
            )
        if self.labels and len(self.labels) != d:
            raise NotABasisError(f"got {len(self.labels)} labels for {d} vectors")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "duals", u)
        object.__setattr__(self, "labels", tuple(self.labels))
        norms = ambient_gauge_rows(self.space, v)
        if np.any(norms <= 0):
            raise NotABasisError("basis contains a zero vector")
        object.__setattr__(self, "_vector_norms", norms)

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def vector_norms(self) -> np.ndarray:
        return self._vector_norms

    @cached_property
    def dual_norms(self) -> np.ndarray:
        return np.array([dual_gauge(self.space, row) for row in self.duals])

    @property
    def a(self) -> float:
        """Semi-normalization constant: max gauge of a basis vector."""
        return float(self.vector_norms.max())

    @property
    def b(self) -> float:
        """Semi-normalization constant: max dual gauge of a functional."""
        return float(self.dual_norms.max())

    def gauge(self, f) -> float:
        return ambient_gauge(self.space, f)

    def is_diagonal(self) -> bool:
        """True when vectors and duals are both diagonal matrices."""
        if self.d != self.dim:
            return False
        off = ~np.eye(self.d, dtype=bool)
        return not (np.any(self.vectors[off]) or np.any(self.duals[off]))

    @cached_property
    def disjoint_supports(self) -> bool:
        """True when each ambient coordinate is nonzero in at most one basis
        vector (the identity, blocks of it, and every scaled or permuted
        diagonal).  Then every signed sum sum_{n in A} eps_n x_n with eps_n =
        +-1 has, in each coordinate, one nonzero term or none, so it is +-x_n
        there exactly: adding +-0 is exact, FMA included."""
        return bool(np.count_nonzero(self.vectors, axis=0).max() <= 1)


def coefficient_transform(basis: Basis, f) -> np.ndarray:
    """The coefficient array (x_n*(f))_n of ``f``."""
    f = as_vector(f, dim=basis.dim)
    return basis.duals @ f


def synthesize(basis: Basis, coeffs) -> np.ndarray:
    """The vector sum_n coeffs_n x_n."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.d,):
        raise DimensionMismatchError(f"expected {basis.d} coefficients, got {coeffs.shape}")
    return coeffs @ basis.vectors


def _as_index_set(A, d: int) -> np.ndarray:
    """The distinct indices of A, ascending: integers (or integral floats) in [0, d)."""
    raw = np.asarray(list(A)).ravel()
    whole = np.isfinite(raw) & (raw == np.trunc(raw)) if raw.dtype.kind == "f" else True
    if raw.dtype == bool or not np.all(whole):
        raise IndexError(f"index set must list integer indices, got {raw.tolist()}")
    idx = np.array(sorted(set(raw.astype(int).tolist())), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= d):
        raise IndexError(f"index set must lie in [0, {d}), got extremes {idx[0]}, {idx[-1]}")
    return idx


def sign_operator(basis: Basis, gamma, f) -> np.ndarray:
    """Diagonal multiplier: sum_n gamma_n x_n*(f) x_n.

    Entries of |gamma| above 1 are accepted but flagged with a warning, since
    ratios they produce fall outside the unconditionality-constant range.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (basis.d,):
        raise DimensionMismatchError(f"expected {basis.d} multipliers, got {gamma.shape}")
    if not np.all(np.isfinite(gamma)):
        raise InvalidVectorError("multiplier has non-finite entries")
    if np.max(np.abs(gamma)) > 1.0 + 1e-12:
        warnings.warn(
            "multiplier exceeds the unit cube; ratios lie outside the "
            "unconditionality-constant range",
            stacklevel=2,
        )
    coeffs = coefficient_transform(basis, f)
    return (gamma * coeffs) @ basis.vectors


def coordinate_projection(basis: Basis, A, f) -> np.ndarray:
    """Projection sum_{n in A} x_n*(f) x_n (idempotent)."""
    idx = _as_index_set(A, basis.d)
    if idx.size == 0:
        return np.zeros(basis.dim)
    coeffs = coefficient_transform(basis, f)
    return coeffs[idx] @ basis.vectors[idx]


def candidate_blocks(basis: Basis, candidates, per_item: int = 1, ambient: bool = False):
    """Yield (coeffs, f, ||f||) per block of ``candidates`` (consumed lazily) that
    fits one capped rows call at ``per_item`` rows each: the one place a search's
    candidate becomes coefficients, an ambient vector and a norm.  Candidates are
    coefficient arrays (f = coeffs @ vectors) or, with ``ambient``, ambient
    vectors (coeffs = f @ duals.T)."""
    for chunk in _row_chunks(candidates, basis.dim, per_item):
        rows = np.array(chunk)
        coeffs, f = (rows @ basis.duals.T, rows) if ambient else (rows, rows @ basis.vectors)
        yield coeffs, f, ambient_gauge_rows(basis.space, f)


# ---------------------------------------------------------------------------
# unconditionality constant
# ---------------------------------------------------------------------------


def _descend_pool(basis: Basis, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate descent of gamma over {-1, 0, 1}^d from 1, maximizing the
    gauge of sum_n gamma_n coeffs_n x_n, for every row of ``coeffs`` at once.

    Each (pass, n, candidate) step is one rows call over the live rows whose
    gamma_n differs from the candidate; a row takes the move when it beats its
    own best by the factor 1 + 1e-12, and leaves the live set after a pass
    with no move (another pass would repeat it).  Every row has the arithmetic,
    and so the multipliers and gauges, of a descent run on it alone.
    """
    gamma = np.ones(coeffs.shape)
    current = np.array([np.ones(basis.d) @ (c[:, None] * basis.vectors) for c in coeffs])
    best = ambient_gauge_rows(basis.space, current)
    live = np.arange(len(coeffs))
    for _ in range(_DESCENT_PASSES):
        moved = np.zeros(len(coeffs), dtype=bool)
        for n in range(basis.d):
            for cand in (-1.0, 0.0, 1.0):
                at = live[gamma[live, n] != cand]
                if at.size == 0:
                    continue
                step = (cand - gamma[at, n])[:, None] * (coeffs[at, n, None] * basis.vectors[n])
                trial = current[at] + step
                val = ambient_gauge_rows(basis.space, trial)
                up = val > best[at] * (1 + 1e-12)
                take = at[up]
                current[take], gamma[take, n], best[take] = trial[up], cand, val[up]
                moved[take] = True
        live = live[moved[live]]
        if live.size == 0:
            break
    return gamma, best


def _exact_family_best(basis: Basis, coeffs: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Exact max of ||S_gamma f|| over the suppression family {0,1}^d, then over
    the sign family {-1,1}^d, each as (value, gamma), over the support of
    ``coeffs`` only, from one pass of the subset-sum feed: a set's sum scores
    suppression, and ``total - 2 (sum)`` scores signs for the sets of at most half
    the support (-gamma scores as gamma).  The first maximizer by set size, then
    lexicographically, wins."""
    support = np.flatnonzero(coeffs)
    half = support.size // 2
    scaled = coeffs[support, None] * basis.vectors[support]
    total = scaled.sum(axis=0)
    keep, flip = Tracker(), Tracker()
    for sums, sizes, witness_of in _subset_sums(scaled, 0, support.size):
        keep.offer(ambient_gauge_rows(basis.space, sums), witness_of)
        if sizes[0] <= half:  # a feed block holds one size
            flip.offer(ambient_gauge_rows(basis.space, total - 2.0 * sums), witness_of)
    out = []
    for tracker, off, on in ((keep, 0.0, 1.0), (flip, 1.0, -1.0)):
        gamma = np.full(basis.d, off)
        gamma[support[tracker.witness["set"]]] = on
        out.append((tracker.best, gamma))
    return out


def _canonical_test_vectors(basis: Basis) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    d, n = basis.d, basis.dim
    for j in range(min(n, _CANONICAL_CAP)):
        e = np.zeros(n)
        e[j] = 1.0
        out.append(e)
    for i in range(min(d, _CANONICAL_CAP)):
        out.append(basis.vectors[i].copy())
    out.append(synthesize(basis, np.ones(d)))
    alt = np.ones(d)
    alt[1::2] = -1.0
    out.append(synthesize(basis, alt))
    return out


def _certified_ku_upper(basis: Basis) -> tuple[float, str]:
    """A proved upper bound for K_u (inf when none is known) and its reason."""
    if basis.is_diagonal():
        return 1.0, _DIAGONAL_NOTE
    r = p_convexity(basis.space)
    if r is not None:
        products = basis.vector_norms * basis.dual_norms
        with np.errstate(over="ignore"):  # an overflowing bound is inf, reported uncertified
            return float(np.sum(products**r) ** (1.0 / r)), "r-convexity product bound"
    return math.inf, ""


def _sampled_vectors(basis: Basis, budget: int, seed: int):
    """The random-mode test vectors, in order: sample i has gaussian
    coefficients, +/-1 ones if i % 3 == 1, and gaussian ones on a uniform
    random support of uniform size if i % 3 == 2."""
    d = basis.d

    def draw(rng, start):
        kinds = (start + np.arange(SAMPLE_BLOCK)) % 3
        coeffs = rng.standard_normal((SAMPLE_BLOCK, d))
        flat, cut = kinds == 1, kinds == 2
        coeffs[flat] = random_signs(rng, (np.count_nonzero(flat), d))
        support = random_masks(rng, d, rng.integers(1, d + 1, size=np.count_nonzero(cut)))
        coeffs[cut] = np.where(support, coeffs[cut], 0.0)
        return coeffs @ basis.vectors

    return block_samples(draw, budget, seed, KU_SAMPLES)


def _sign_flip_pass(basis: Basis, vectors, tracker: Tracker) -> list[np.ndarray]:
    """Score ||S_gamma f|| / ||f|| for one multiplier per vector f (the signs
    of its coefficients, every second one flipped) in capped blocks.

    Offers each block's first best ratio, with its witness, to ``tracker`` and
    returns the ``_SIGN_FLIP_KEEP`` best-scoring vectors, the earlier first among equal
    scores and NaN scores last, as :meth:`Tracker.offer` ranks them; vectors with
    f = 0 are skipped.  It returns the caller's own arrays, so it chunks them itself.
    Every block is scored in one :class:`~qgreedy.spaces.Scratch`, made once per call.
    """
    top: list[tuple[float, int, np.ndarray]] = []
    seen = 0
    d, dim = basis.d, basis.dim
    scratch = Scratch()
    for chunk in _row_chunks(vectors, dim):
        n = len(chunk)
        fs = np.concatenate(chunk, out=scratch("fs", n * dim)).reshape(n, dim)
        nf = ambient_gauge_rows(basis.space, fs, scratch)
        coeffs = np.matmul(fs, basis.duals.T, out=scratch("coeffs", n, d))
        gammas = scratch("gammas", n, d)
        gammas.fill(1.0)
        np.copyto(gammas, -1.0, where=coeffs < 0)
        gammas[:, 1::2] *= -1.0
        # the sums overwrite fs, which nothing reads after the coefficients
        sums = np.matmul(np.multiply(gammas, coeffs, out=coeffs), basis.vectors, out=fs)
        scores = ratios(ambient_gauge_rows(basis.space, sums, scratch), nf)
        tracker.offer(scores, lambda b: {"f": chunk[b].tolist(), "gamma": gammas[b].tolist()})
        keys = np.where(np.isnan(scores), math.inf, -scores)
        live = np.flatnonzero(nf > 0)
        best = live[np.argsort(keys[live], kind="stable")[:_SIGN_FLIP_KEEP]]
        top += [(float(keys[b]), seen + int(b), chunk[b]) for b in best]
        top = sorted(top, key=lambda item: item[:2])[:_SIGN_FLIP_KEEP]
        seen += len(chunk)
    return [f for _, _, f in top]


def _is_identity(basis: Basis) -> bool:
    """True when vectors and duals are both exactly the identity matrix.  Then
    ``duals @ f`` is f, each coordinate of a multiplier search's row is +-f_j
    or 0, and the gauge is monotone in the moduli, so no ratio rounds above
    gamma = 1's.  On other diagonal systems the coefficients round first."""
    eye = np.eye(basis.d)
    return (basis.d == basis.dim and np.array_equal(basis.vectors, eye)
            and np.array_equal(basis.duals, eye))


def unconditional_constant(basis: Basis, mode: str = "random", budget: int = 2000,
                           seed: int = 0) -> BoundEstimate:
    """Two-sided estimate of sup over ||gamma||_inf <= 1 of ||S_gamma||.

    The lower bound searches multipliers in {-1, 0, 1}^d: coordinate descent
    from sampled and canonical vectors, over the whole pool at once, one rows
    call per (pass, coordinate, candidate) step; in exact mode also the whole
    suppression family {0,1}^d and sign family {-1,1}^d (exact over those
    families, for the tested vector pool), over the support of each vector's
    coefficients only, from one pass of the subset-sum feed of
    :mod:`qgreedy.spaces` per vector.  That pass is skipped when the vector's
    certified ceiling (:func:`~qgreedy.bounds.row_ceilings`) over its norm is
    at most the running best: then no ratio of either family could replace
    the best, so the result is the full search's.  A vector repeated in the
    pool is tested once.  On the identity the search stops at its initial
    witness (see :func:`_is_identity`).  Exact mode requires d <= 20 and runs
    in one thread.
    """
    if mode not in ("exact", "random"):
        raise ValueError(f"mode must be 'exact' or 'random', got {mode!r}")
    if mode == "exact" and basis.d > 20:
        raise CombinatorialOverflowError(
            "exact multiplier enumeration is capped at d = 20; use mode='random'"
        )
    tracker = Tracker()
    # gamma = 1 reproduces f, so the constant is always >= 1
    f0 = basis.vectors[0]
    tracker.update(1.0, {"f": f0.tolist(), "gamma": [1.0] * basis.d})
    if not _is_identity(basis):  # on the identity gamma = 1 already meets the bound 1
        # cheap scoring pass over the samples, then coordinate descent only on
        # the most promising survivors
        sampled = _sampled_vectors(basis, budget if mode == "random" else 0, seed)
        pool = _canonical_test_vectors(basis) + _sign_flip_pass(basis, sampled, tracker)
        # a repeated vector repeats a score, which cannot win, and a zero one has no ratio
        unique = {f.tobytes(): f for f in pool}.values()
        # the flip family's sums fl(total - 2 * sums) round at most 3 d + 1 times
        ceilings = row_ceilings(basis, 3 * basis.d + 1) if mode == "exact" else None
        for _, fs, nf in candidate_blocks(basis, unique, ambient=True):
            # one duals @ f per vector, as coefficient_transform rounds it: on a
            # dense basis the block product differs in the last bits
            coeffs = np.array([basis.duals @ f for f in fs])
            gammas, values = _descend_pool(basis, coeffs)
            tops = ratios(ceilings(coeffs), nf) if ceilings else np.full(len(fs), math.inf)
            for c, f, norm, gamma, val, top in zip(coeffs, fs, nf, gammas, values, tops):
                # per f: the exact families first, unless no ratio of theirs can
                # beat the running best, then the descent
                found = [(val, gamma)]
                if mode == "exact" and not top <= tracker.best:
                    found = _exact_family_best(basis, c) + found
                tracker.offer(ratios([value for value, _ in found], norm),
                              lambda k: {"f": f.tolist(), "gamma": found[k][1].tolist()})
    upper, note = _certified_ku_upper(basis)
    if mode == "exact" and not note:
        note = "exact over the {0,1}^d and {-1,1}^d multiplier families"
    return tracker.estimate(upper, heuristic=(mode == "random"), note=note)


# ---------------------------------------------------------------------------
# zoo and file I/O
# ---------------------------------------------------------------------------


def _difference_matrices(d: int) -> tuple[np.ndarray, np.ndarray]:
    v = np.eye(d)
    v[np.arange(1, d), np.arange(d - 1)] = -1.0
    u = np.triu(np.ones((d, d)))
    return v, u


def zoo(name: str, *, p: float | None = None, dim: int | None = None,
        blocks=None, seed: int = 0) -> Basis:
    """Construct one of the stock bases.

    unit            identity system in l_p         (p, dim)
    difference      x_n = e_n - e_{n-1}, x_1 = e_1 (p, dim)
    block_l2        identity coordinates in the block space (p, blocks)
    perturbed_unit  identity plus seeded Gaussian noise, duals by inversion

    :func:`load_basis` reads any other basis from a JSON file.
    """
    name = str(name).lower().replace("-", "_")
    if name in ("unit", "difference", "perturbed_unit") and (p is None or dim is None):
        raise ValueError(f"zoo({name!r}) needs p and dim")
    if name == "unit":
        eye = np.eye(int(dim))
        return Basis(Lp(p, int(dim)), eye, eye.copy())
    if name == "difference":
        v, u = _difference_matrices(int(dim))
        return Basis(Lp(p, int(dim)), v, u)
    if name == "block_l2":
        if p is None or blocks is None:
            raise ValueError("zoo('block_l2') needs p and blocks")
        space = BlockLpL2(p, tuple(int(b) for b in blocks))
        eye = np.eye(space.dim)
        return Basis(space, eye, eye.copy())
    if name == "perturbed_unit":
        d = int(dim)
        rng = substream(seed, PERTURBED_BASIS)
        v = np.eye(d) + (0.5 / d) * rng.standard_normal((d, d))
        try:
            u = np.linalg.inv(v).T
        except np.linalg.LinAlgError as exc:  # pragma: no cover - measure-zero event
            raise NotABasisError("perturbation produced a singular matrix") from exc
        return Basis(Lp(p, d), v, u)
    raise ValueError(f"unknown zoo basis {name!r}; choose from {ZOO_NAMES}")


def _space_from_dict(data: dict) -> AmbientSpace:
    if not isinstance(data, dict) or "kind" not in data:
        raise BasisFileError("'ambient' must be an object with a 'kind' field")
    kind = data["kind"]

    def field(name: str, convert):
        try:
            return convert(data[name])
        except KeyError as exc:
            raise BasisFileError(f"ambient kind {kind!r} is missing field {name!r}") from exc
        except (TypeError, ValueError) as exc:
            raise BasisFileError(f"ambient kind {kind!r} has a bad field {name!r}: {exc}") from exc

    if kind == "lp":
        return Lp(field("p", float), field("dim", int))
    if kind == "block_lp_l2":
        return BlockLpL2(field("p", float), field("blocks", lambda b: tuple(int(x) for x in b)))
    if kind == "lorentz":
        return LorentzSpace(field("q", float), field("weight", lambda w: np.asarray(w, float)))
    raise BasisFileError(f"unknown ambient kind {kind!r}")


def _space_to_dict(space: AmbientSpace) -> dict:
    if isinstance(space, Lp):
        return {"kind": "lp", "p": space.p, "dim": space.dim}
    if isinstance(space, BlockLpL2):
        return {"kind": "block_lp_l2", "p": space.p, "blocks": list(space.blocks)}
    return {"kind": "lorentz", "q": space.q, "weight": space.weight.tolist()}


def load_basis(path) -> Basis:
    """Parse a basis JSON file; duals are inverted from square vector matrices
    when omitted."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BasisFileError(f"cannot read basis file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise BasisFileError("basis file must contain a JSON object")
    unknown = set(data) - {"ambient", "vectors", "duals", "labels"}
    if unknown:
        raise BasisFileError(f"unknown fields in basis file: {sorted(unknown)}")
    if "ambient" not in data or "vectors" not in data:
        raise BasisFileError("basis file needs 'ambient' and 'vectors' fields")
    space = _space_from_dict(data["ambient"])
    try:
        vectors = np.asarray(data["vectors"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise BasisFileError(f"'vectors' is not a numeric matrix: {exc}") from exc
    if vectors.ndim != 2:
        raise BasisFileError("'vectors' must be a list of equal-length rows")
    if vectors.shape[1] != space.dim:
        raise BasisFileError(
            f"vector rows have length {vectors.shape[1]} but ambient dim is {space.dim}"
        )
    if "duals" in data and data["duals"] is not None:
        try:
            duals = np.asarray(data["duals"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise BasisFileError(f"'duals' is not a numeric matrix: {exc}") from exc
    else:
        if vectors.shape[0] != vectors.shape[1]:
            raise BasisFileError("duals required: vector matrix is not square")
        try:
            duals = np.linalg.inv(vectors).T
        except np.linalg.LinAlgError as exc:
            raise NotABasisError("singular vector matrix; not a basis") from exc
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise BasisFileError(f"'labels' must be a list of names, got {labels!r}")
    labels = tuple(str(x) for x in labels or ())
    return Basis(space, vectors, duals, labels)


def basis_to_dict(basis: Basis) -> dict:
    out = {
        "ambient": _space_to_dict(basis.space),
        "vectors": basis.vectors.tolist(),
        "duals": basis.duals.tolist(),
    }
    if basis.labels:
        out["labels"] = list(basis.labels)
    return out


def save_basis(basis: Basis, path) -> None:
    Path(path).write_text(json.dumps(basis_to_dict(basis), indent=2, sort_keys=True) + "\n")
