"""Certified bounds on computed gauges, for searches that skip candidates
without moving a bit.

A search may drop a candidate whose every computed value is provably no
better than its tracker's running best: a :class:`~qgreedy.estimates.Tracker`
replaces its best only by a strictly better value, so the winner and its
witness are the full search's.  The bounds here are on the *computed* values,
rounding included, so they compare with the running best directly:

- :func:`row_ceilings`, the ceiling of every sum sum_t g_t c_t x_t with
  multipliers |g_t| <= 1 (the greedy prefixes and truncations of the
  operator searches, and the exact multiplier families of the
  unconditionality constant);
- :func:`completion_bounds`, the ceiling and the floor of every completion of
  a partial subset sum in the exact democracy feed of :mod:`qgreedy.spaces`.

With u = 2^-53 and gamma_k = k u / (1 - k u) (Higham, *Accuracy and Stability
of Numerical Algorithms*, 2002), a sum of k + 1 floats added in any order is
within gamma_k times the sum of their moduli of the exact sum; a product is
within u of the exact one.

The kernel lemma.  Let n bound the rounding counts of a bound (given with
each one below), theta = gamma_N with N = max(n, dim) + 32 and rho = (1 +
theta) / (1 - theta).  Let y and h be vectors of one ambient whose nonzero
moduli lie in the normal range of :func:`_normal_range`, with |y| <= K |h|
entrywise for some K <= rho.  Then the computed gauges satisfy g(y) <= A g(h)
for the allowance A = exp(12 (1 + 1/p) theta) (:func:`allowance`).

Every ambient is solid: its exact gauge G depends on the moduli only and
grows with each of them (a Lorentz gauge reads the non-increasing
rearrangement, which grows entrywise with each modulus, against positive
weights), so G(y) <= K G(h).  The allowance covers the kernel's rounding,
counted once, since both sides run the same kernel with the same computed
exponent e = fl(1/p) (p the outer exponent, q for Lorentz).  theta bounds
each product's, sum's and square root's relative error and, by assumption,
each numpy float64 power's: within 16 ulps (a deliberately wide margin) for
normal arguments and results, and the same bits for the same input array.
At finite p the kernel forms terms, each within (1 +- theta)^k of its exact
value, sums them (one more factor) and returns fl(S^e):

- l_p: the terms a_j^p, k = 1;
- block: squares, a block's sum and its square root give block norms within
  (1 +- theta)^2; raised to p, k = 2p + 1;
- Lorentz d_q(w): fl(fl(fl(a_n^q) t_n) w_n) with a the non-increasing moduli
  and t = fl(s^(q-1)) the table the kernel computes from the stored
  primitive weight s, the same bits on both sides.  G is read with the
  positive weights t_n w_n, so it stays solid and the table's own error does
  not count; k = 3.

The computed sums then have S_y / S_h <= rho^(k+1) K^p, a bound of at least
1; and e <= (1 + u) / p.  So fl(S_y^e) <= rho (S_y / S_h)^e fl(S_h^e) <=
rho^(1 + (k+1)(1+u)/p) K^(1+u) fl(S_h^e).  With K <= rho the exponent of rho
is at most 2 + 2/p on l_p, 4 + 2/p on block and 2 + 4/q on Lorentz, up to
terms in u.  At p = inf there are no powers, and the computed gauges of y
are within K, rho^2 K and rho K times those of h (l_p takes the max modulus,
exactly; a block the max of its norms; Lorentz the max of fl(a_n s_n)).
Every case is within rho^(5 + 5/p), and ln rho <= 2 theta / (1 - theta), so
A exceeds it by more than the rounding of A and of one product or quotient
with it.  At 1/p = 100 (the tested extreme) A - 1 is below 1e-10 at d = dim
= 32.

These bounds take every intermediate value of the kernel to be a normal
double; a subnormal loses relative accuracy and an overflow trips the
gauge's rescaled path.  :func:`_normal_range` gives a sufficient condition
on the nonzero moduli, and each bound checks it for both sides before it
claims anything; outside it a bound is inf (a ceiling) or 0 (a floor), and
prunes nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .spaces import BlockLpL2, LorentzSpace, ambient_gauge_rows

__all__ = ["allowance", "row_ceilings", "completion_bounds"]

# log2 headroom: a double is normal from 2^-1022 up to below 2^1024, and the
# 22 bits to spare absorb the rounding factors and the bounds' own rounding
_LOG2_NORMAL = 1000.0
_U = 2.0**-53


def _gamma(n: int) -> float:
    return n * _U / (1 - n * _U)


def _log2_range(values: np.ndarray) -> tuple[float, float]:
    return math.log2(values.min()), math.log2(values.max())


def _normal_range(space) -> tuple[float, float]:
    """log2 bounds (lo, hi) such that every vector of ``space`` whose nonzero
    moduli lie in [2^lo, 2^hi] has its gauge computed on the plain path of
    :mod:`qgreedy.spaces` with every power, square, product, sum and root a
    normal double: it neither underflows nor overflows.  The range is empty
    (lo > hi) when a Lorentz weight, primitive weight or table s^(q-1) has
    an entry out of range itself."""
    n = math.log2(space.dim)
    lo, hi = -_LOG2_NORMAL, _LOG2_NORMAL - n
    if isinstance(space, LorentzSpace):
        q = space.q
        tables = [space.weight, space.primitive]
        if math.isfinite(q):
            tables.append(space.table)  # the kernel's own table
        logs = [_log2_range(t) for t in tables]
        if min(x for x, _ in logs) < -_LOG2_NORMAL or max(y for _, y in logs) > _LOG2_NORMAL:
            return math.inf, -math.inf
        (w_lo, w_hi), (s_lo, s_hi), *table = logs
        if not table:  # the products a_n s_n, then their max
            return max(lo, -_LOG2_NORMAL - s_lo), min(hi, _LOG2_NORMAL - s_hi)
        # the partial products a^q, a^q t_n and a^q t_n w_n, their sum and its 1/q power
        (t_lo, t_hi), = table
        g_lo, g_hi = min(0.0, t_lo, t_lo + w_lo), max(0.0, t_hi, t_hi + w_hi)
        return (max(lo, (-_LOG2_NORMAL - g_lo) / q, -_LOG2_NORMAL - g_lo / q),
                min(hi, (_LOG2_NORMAL - n - g_hi) / q, _LOG2_NORMAL - (g_hi + n) / q))
    shift = 0.0
    if isinstance(space, BlockLpL2):  # squares and their sums; a block norm is below 2^(hi + n/2)
        lo, hi, shift = -_LOG2_NORMAL / 2, (_LOG2_NORMAL - n) / 2, n / 2
    p = space.p
    if math.isfinite(p):
        lo = max(lo, -_LOG2_NORMAL / p)
        hi = min(hi, (_LOG2_NORMAL - n) / p - shift, _LOG2_NORMAL - n / p - shift)
    return lo, hi


def _theta(space, n: int) -> float:
    return _gamma(max(n, space.dim) + 32)


def allowance(space, n: int) -> float:
    """The kernel lemma's A = exp(12 (1 + 1/p) theta) for rounding counts up to ``n``."""
    p = space.q if isinstance(space, LorentzSpace) else space.p
    return math.exp(12 * (1 + 1 / p) * _theta(space, n))


def _vector_range(vectors: np.ndarray) -> tuple[float, float]:
    """The log2 range of the nonzero moduli of the basis ``vectors``."""
    moduli = np.abs(vectors)
    return _log2_range(moduli[moduli != 0])


def _largest_sums(values: np.ndarray, n: int) -> np.ndarray:
    """Row r of the (n + 1, columns) result is the sum of the r largest entries
    of each column of ``values``, added largest first; ``values`` is
    overwritten.  (A float sort would page in numpy's sort kernels, about
    0.25 MB of resident code, for a tail of at most d rows.)"""
    out = np.zeros((n + 1, values.shape[1]))
    columns = np.arange(values.shape[1])
    for r in range(n):
        at = np.argmax(values, axis=0)
        np.add(out[r], values[at, columns], out=out[r + 1])
        values[at, columns] = -math.inf
    return out


def row_ceilings(basis, n: int | None = None):
    """A function from a block of coefficient rows to each row's certified
    ceiling: no computed gauge of a sum sum_t g_t c_t x_t, with multipliers
    |g_t| <= 1 and at most ``n`` roundings (default d, see below) in each
    coordinate, exceeds it.  None when the basis vectors' entries leave the
    range where the argument below holds.

    The ceiling of a row c is ``A * g(h)``: h = |c| @ |V| is the computed
    modulus majorant (V the basis vectors, moduli entrywise), g the ambient's
    row kernel and A = :func:`allowance`.  It is inf for every row of a
    block that leaves that range.

    Why no such computed gauge exceeds it.  Let H = sum_t |c_t| |x_t|
    exactly.  In greedy order a G_m row is the prefix sum of the products c_t
    x_t; a U_m row is the prefix sum of the +-x_t times |c_(m)|, and |c_(m)|
    <= |c_t| for t <= m.  Each entry of a computed row is within gamma_d H_j
    of its exact value, so |y_j| <= (1 + gamma_n) H_j with n = d; the
    majorant, a sum of nonnegative products in any order (FMA included), has
    h_j >= (1 - gamma_d) H_j >= (1 - gamma_n) H_j.  So |y| <= K h entrywise
    with K = (1 + gamma_n) / (1 - gamma_n) <= rho, and the kernel lemma (see
    the module docstring) gives g(y) <= A g(h).  The unconditionality
    constant's sign family scores fl(T - 2 S) for computed sums T of all and
    S of some of the products; its exact value is at most H_j in modulus and
    its computed error at most (1 + u) 3 gamma_d H_j + u |exact|, so |y_j|
    <= (1 + gamma_n) H_j with n = 3 d + 1.
    Where the ambient is r-normed, G(H) <= (sum_t |c_t|^r ||x_t||^r)^(1/r)
    by the r-triangle inequality, so this ceiling is never looser than that
    product bound; and it needs no r.

    The range check: for the basis vectors (entries in [vmin, vmax]) and for
    both sides' computed entries, which are 0 or lie in [cmin vmin 2^-54, 2 d
    cmax vmax] (a nonzero sum of floats is a multiple of the smallest
    summand's ulp; cmin is the smallest nonzero |c_t|).  The check is made
    once per block, on all its rows together.

    On a diagonal system h = |f| entrywise (each entry is one rounded
    product on both sides), so the ceiling over the norm of f is A >= 1:
    pruning cannot stand in for a search's own certified ceiling, which ends
    a diagonal search outright.
    """
    v_lo, v_hi = _vector_range(basis.vectors)
    lo, hi = _normal_range(basis.space)
    if not lo <= v_lo <= v_hi <= hi:
        return None
    # the bounds on a block's cmin and cmax, as floats (0 or inf past the float range)
    x, y = lo - v_lo + 54, hi - v_hi - math.log2(2 * basis.d)
    c_lo = math.inf if x > 1023 else 2.0**x
    c_hi = 0.0 if y < -1074 else math.inf if y > 1023 else 2.0**y
    moduli = np.abs(basis.vectors)
    space = basis.space
    scale = allowance(space, basis.d if n is None else n)

    def ceilings(coeffs: np.ndarray) -> np.ndarray:
        c = np.abs(coeffs)
        if c.max() > c_hi or c[c < c_lo].any():
            return np.full(len(c), math.inf)
        return scale * ambient_gauge_rows(space, c @ moduli)

    return ceilings


def completion_bounds(vectors: np.ndarray, space, r_max: int):
    """(ceilings, floors) for the completions of partial subset sums of the
    rows of ``vectors`` in ``space``, or None when the vectors' entries leave
    the range where the argument below holds.

    A partial set is a computed sum S (the bits the feed of
    :mod:`qgreedy.spaces` holds for it), its last index l and r <= ``r_max``
    members still to take from the tail (l, d); its completions are computed
    as S plus the r tail members, added one at a time.  ``ceilings(sums,
    starts, r)`` and ``floors(sums, starts, r)`` take a block of such rows
    (tail starts l + 1) and give, per row, a value no completion's computed
    gauge exceeds, and one none falls below.

    The tables are per (tail start t, r) and coordinate j: the sum of the r
    largest moduli |x_tj|, and the signed sums of the r smallest and the r
    largest x_tj, each over the tail, computed as running sums, largest
    first (:func:`_largest_sums`).  Rounding counts: n = d + 2.

    The ceiling is A * g(c) with c = |S| + (the r largest moduli), computed.
    A completion's computed entry y_j is a sum of r + 1 floats, S_j and the
    members' x_tj, so |y_j| <= (1 + gamma_d) C_j with C_j = |S_j| + sum of
    the members' moduli, at most the exact |S_j| + R_j of the r largest;
    the computed c_j is a sum of r + 1 nonnegative floats, at least (1 -
    gamma_(d+1)) (|S_j| + R_j).  So |y| <= K c with K <= rho, and the kernel
    lemma gives g(y) <= A g(c).

    The floor is g(f) / A with f_j = fl(D_j - E_j), where D_j is the computed
    distance from 0 of the interval [S_j + (r smallest), S_j + (r largest)]
    and E_j = fl(4 theta c_j).  Without E cancellation breaks the bound: the
    exact completion z_j lies in that interval, so |z_j| >= its exact
    distance, but the computed y_j may be far from z_j relative to itself.
    Its error is at most gamma_d C_j, and the computed D_j is within gamma_(d+1)
    (|S_j| + R_j) of the exact distance (the max of three values moves by no
    more than they do), so |y_j| >= D_j - 2 gamma_(d+1) (|S_j| + R_j) >=
    D_j - E_j, since E_j >= (1 - u) 4 theta (1 - gamma_(d+1)) (|S_j| + R_j).
    Rounding the difference costs one factor 1 + u (a subnormal difference
    is exact), and an entry below 2^lo is set to 0, which keeps it a floor;
    so 0 <= f <= (1 + u) |y| entrywise, and the kernel lemma gives g(f) <= A
    g(y).

    The range check: the vectors' nonzero moduli lie in [vmin, vmax], and
    every computed y_j and c_j is 0 or lies in [vmin 2^-54, 2 d vmax]; f_j is
    0 or in [2^lo, c_j].  Each must lie in the normal range [2^lo, 2^hi], and
    E_j must be a normal product, so vmin 2^-54 4 theta >= 2^-1000.
    """
    v_lo, v_hi = _vector_range(vectors)
    lo, hi = _normal_range(space)
    d, dim = vectors.shape
    theta = _theta(space, d + 2)
    if not (lo <= v_lo - 54 and v_hi + math.log2(2 * d) <= hi
            and v_lo - 54 + math.log2(4 * theta) >= -_LOG2_NORMAL):
        return None
    scale, weight, least = allowance(space, d + 2), 4 * theta, 2.0**lo
    tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def table(t: int):
        """(largest moduli, smallest, largest) running sums over the tail from t."""
        if t not in tables:
            tail = vectors[t:]
            n = min(len(tail), r_max)
            tables[t] = np.stack([_largest_sums(np.abs(tail), n), -_largest_sums(-tail, n),
                                  _largest_sums(tail.copy(), n)])
        return tables[t]

    def gather(starts: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The three tables' rows (3, rows, dim) at each (start, r)."""
        out = np.empty((3, len(r), dim))
        for t in set(starts.tolist()):
            at = np.flatnonzero(starts == t)
            out[:, at] = table(t)[:, r[at]]
        return out

    def ceilings(sums: np.ndarray, starts: np.ndarray, r: np.ndarray) -> np.ndarray:
        c = np.abs(sums)
        c += gather(starts, r)[0]
        return scale * ambient_gauge_rows(space, c)

    def floors(sums: np.ndarray, starts: np.ndarray, r: np.ndarray) -> np.ndarray:
        top, low, high = gather(starts, r)
        c = np.abs(sums)
        c += top
        low += sums  # the interval's ends
        high += sums
        f = np.maximum(low, np.negative(high, out=high), out=low)
        np.maximum(f, 0.0, out=f)
        f -= np.multiply(c, weight, out=c)
        f[f < least] = 0.0
        return ambient_gauge_rows(space, f) / scale

    return ceilings, floors
