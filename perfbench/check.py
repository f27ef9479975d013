"""Output checks computed apart from the program.

Nothing here imports ``qgreedy``.  The checker has its own l_p, block and
Lorentz gauges, its own greedy-set rule and its own closed forms for the
certified upper bounds.  It replays every reported bound from its witness to
a relative 1e-9:

    set            phi_u / phi_l: gauge of sum_{n in A} x_n
    coeffs+m       quasi-greedy and truncation: ||G_m f|| / ||f||, ||U_m f|| / ||f||
    f+gamma        unconditional: ||sum gamma_n x_n*(f) x_n|| / ||f||
    coeffs+set     conditionality: ||S_A f|| / ||f||
    A+B+signs      nested-set sign constant
    A+theta+eps    same-set sign constant
    A+B+theta+eps  super-democracy constant

Each ``check_*`` function returns a list of error strings; empty means the
output is correct.
"""

from __future__ import annotations

import math

import numpy as np

REL = 1e-9
VERIFY_CHECKS = {"lemma32": 3, "lemma33": 1, "lemma34": 2, "bootstrap": 3,
                 "democracy-lp": 3, "succ": 3}
SUP_KINDS = ("unconditional", "quasi_greedy", "truncation", "succ", "sign_change",
             "super_democracy")


class CheckBasis:
    """Vectors (rows), duals (rows) and the ambient gauge, built by the checker."""

    def __init__(self, kind: str, vectors, duals, p: float = 0.5, blocks=(), weight=None):
        self.kind, self.p, self.blocks = kind, float(p), tuple(blocks)
        self.V = np.asarray(vectors, dtype=float)
        self.U = np.asarray(duals, dtype=float)
        self.weight = None if weight is None else np.asarray(weight, dtype=float)
        self.d = self.V.shape[0]
        if np.max(np.abs(self.U @ self.V.T - np.eye(self.d))) > REL:
            raise ValueError("checker basis is not biorthogonal")

    def gauge(self, x) -> np.ndarray | float:
        """Gauge along the last axis: l_p, block l_p(l_2) or Lorentz d_q(w)."""
        x = np.abs(np.asarray(x, dtype=float))
        if self.kind == "lorentz":
            # d_q(w) with q = self.p: (sum_n (a*_n)^q s_n^(q-1) w_n)^(1/q)
            a = -np.sort(-x, axis=-1)
            s = np.cumsum(self.weight)
            return np.sum(a**self.p * s ** (self.p - 1.0) * self.weight, axis=-1) ** (1.0 / self.p)
        if self.kind == "block":
            edges = np.cumsum((0,) + self.blocks)
            x = np.stack([np.sqrt(np.sum(x[..., lo:hi] ** 2, axis=-1))
                          for lo, hi in zip(edges[:-1], edges[1:])], axis=-1)
        return np.sum(x**self.p, axis=-1) ** (1.0 / self.p)

    def dual_gauge(self, u) -> float:
        """Dual gauge for p <= 1: sup norm of the coordinates (of block l_2 norms)."""
        u = np.abs(np.asarray(u, dtype=float))
        if self.kind == "block":
            edges = np.cumsum((0,) + self.blocks)
            return max(float(np.sqrt(np.sum(u[lo:hi] ** 2))) for lo, hi in zip(edges[:-1], edges[1:]))
        return float(u.max())

    @property
    def diagonal(self) -> bool:
        off = ~np.eye(self.d, dtype=bool)
        return self.V.shape == (self.d, self.d) and not (self.V[off].any() or self.U[off].any())

    @property
    def convexity(self) -> float | None:
        return None if self.kind == "lorentz" else min(self.p, 1.0)

    def products(self) -> np.ndarray:
        return np.array([float(self.gauge(v)) * self.dual_gauge(u) for v, u in zip(self.V, self.U)])


def difference_basis(d: int, p: float = 0.5, kind: str = "lp", weight=None) -> CheckBasis:
    """x_n = e_n - e_{n-1}; the dual x_n* sums the coordinates n..d-1."""
    vectors = np.eye(d) - np.eye(d, k=-1)
    duals = np.triu(np.ones((d, d)))
    return CheckBasis(kind, vectors, duals, p=p, weight=weight)


def block_identity(blocks, p: float = 0.5) -> CheckBasis:
    """Identity coordinates in the block space l_p(l_2)."""
    eye = np.eye(sum(blocks))
    return CheckBasis("block", eye, eye, p=p, blocks=blocks)


def lorentz_weight(d: int) -> list[float]:
    """w_n = n^2 - (n-1)^2 = 2n - 1: the weight whose primitive is n^2."""
    return [2.0 * n - 1.0 for n in range(1, d + 1)]


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL * max(abs(a), abs(b)) + 1e-300


def _indices(idx, d: int) -> np.ndarray:
    idx = [int(i) for i in idx]
    if len(set(idx)) != len(idx) or any(not 0 <= i < d for i in idx):
        raise ValueError(f"bad index set {idx}")
    return np.array(idx, dtype=int)


def greedy_set(coeffs: np.ndarray, m: int) -> np.ndarray:
    """m largest |coefficients|, ties broken toward the smaller index."""
    order = sorted(range(coeffs.size), key=lambda n: (-abs(coeffs[n]), n))
    return np.array(sorted(order[:m]), dtype=int)


def replay(kind: str, witness: dict, B: CheckBasis) -> float:
    """The ratio (or gauge) the witness certifies, recomputed from scratch."""
    g, V, d = B.gauge, B.V, B.d
    if kind in ("phi_u", "phi_l"):
        A = _indices(witness["set"], d)
        return float(g(V[A].sum(axis=0)))
    if kind in ("quasi_greedy", "truncation"):
        c = np.asarray(witness["coeffs"], dtype=float)
        m = int(witness["m"])
        if c.size != d or not 1 <= m <= d:
            raise ValueError("bad coeffs+m witness")
        lam = greedy_set(c, m)
        if kind == "quasi_greedy":
            out = c[lam] @ V[lam]
        else:
            level = float(np.min(np.abs(c[lam])))
            out = level * (np.where(c[lam] < 0, -1.0, 1.0) @ V[lam])
        return float(g(out)) / float(g(c @ V))
    if kind == "unconditional":
        f = np.asarray(witness["f"], dtype=float)
        gamma = np.asarray(witness["gamma"], dtype=float)
        if gamma.size != d or np.max(np.abs(gamma)) > 1.0:
            raise ValueError("bad f+gamma witness")
        return float(g((gamma * (B.U @ f)) @ V)) / float(g(f))
    if kind == "conditionality":
        c = np.asarray(witness["coeffs"], dtype=float)
        A = _indices(witness["set"], d)
        return float(g(c[A] @ V[A])) / float(g(c @ V))
    A = _indices(witness["A"], d)
    if kind == "succ":
        Bset = _indices(witness["B"], d)
        signs = np.asarray(witness["signs"], dtype=float)
        pos = {int(n): i for i, n in enumerate(Bset)}
        if not set(A.tolist()) <= set(pos):
            raise ValueError("succ witness: A is not a subset of B")
        num = signs[[pos[int(n)] for n in A]] @ V[A]
        return float(g(num)) / float(g(signs @ V[Bset]))
    theta = np.asarray(witness["theta"], dtype=float)
    eps = np.asarray(witness["eps"], dtype=float)
    Bset = A if kind == "sign_change" else _indices(witness["B"], d)
    if np.any(np.abs(theta) != 1) or np.any(np.abs(eps) != 1):
        raise ValueError("signs must be +/-1")
    return float(g(theta @ V[A])) / float(g(eps @ V[Bset]))


def certified_upper(kind: str, B: CheckBasis, m: int = 0) -> tuple[bool, float]:
    """Upper bounds the program may certify, from their closed forms."""
    r = B.convexity
    if kind == "phi_u":
        if r is None:
            return False, math.inf
        a = max(float(B.gauge(v)) for v in B.V)
        return True, a * m ** (1.0 / r)
    if kind in ("quasi_greedy", "truncation"):
        return (True, 1.0) if B.diagonal else (False, math.inf)
    if kind in ("unconditional", "conditionality"):
        if B.diagonal:
            return True, 1.0
        if r is None:
            return False, math.inf
        prods = np.sort(B.products())[::-1] ** r
        if kind == "conditionality":
            prods = prods[:m]
        return True, float(np.sum(prods)) ** (1.0 / r)
    return False, math.inf


def check_bound(name: str, kind: str, est: dict, B: CheckBasis, m: int = 0,
                exact: bool = False) -> list[str]:
    """Replay one BoundEstimate (sup-type, or phi_l) from its witness."""
    lower, upper, cert = float(est["lower"]), float(est["upper"]), bool(est["upper_certified"])
    try:
        val = replay(kind, est["witness"], B)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"{name}: witness does not replay ({exc})"]
    errs = []
    if kind == "phi_l":
        want_lower = val if exact else 0.0
        if not (_close(upper, val) and _close(lower, want_lower) and cert):
            errs.append(f"{name}: phi_l bounds ({lower}, {upper}) != replayed {val}")
        return errs
    if exact:
        want_cert, want_upper = True, val
    else:
        want_cert, want_upper = certified_upper(kind, B, m)
    if cert != want_cert or not _close(upper, want_upper):
        errs.append(f"{name}: upper {upper} (certified={cert}) != {want_upper} "
                    f"(certified={want_cert})")
    want_lower = min(val, upper) if cert else val
    if not _close(lower, want_lower):
        errs.append(f"{name}: lower {lower!r} != replayed {want_lower!r}")
    if cert and lower > upper * (1 + REL):
        errs.append(f"{name}: lower {lower} exceeds certified upper {upper}")
    return errs


def _slope(ms, ys) -> float:
    lx, ly = [math.log(m) for m in ms], [math.log(y) for y in ys]
    n = len(lx)
    mx, my = math.fsum(lx) / n, math.fsum(ly) / n
    return (math.fsum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / math.fsum((a - mx) ** 2 for a in lx))


def check_profile(profile: dict, B: CheckBasis, exact: bool) -> list[str]:
    """Rows, sign constants, the inner quasi-greedy bound, ratio and slopes."""
    errs = []
    rows = profile["rows"]
    if [r["m"] for r in rows] != list(range(1, len(rows) + 1)):
        errs.append("profile rows are not m = 1..m_max")
    for r in rows:
        errs += check_bound(f"phi_u({r['m']})", "phi_u", r["phi_u"], B, r["m"], exact)
        errs += check_bound(f"phi_l({r['m']})", "phi_l", r["phi_l"], B, r["m"], exact)
        if not exact:
            # a sampled set of size s is feasible for phi_u(m >= s), phi_l(m <= s)
            if len(r["phi_u"]["witness"]["set"]) > r["m"] or len(r["phi_l"]["witness"]["set"]) < r["m"]:
                errs.append(f"m={r['m']}: witness set has the wrong size")
    for kind in ("succ", "sign_change", "super_democracy", "quasi_greedy"):
        errs += check_bound(f"profile.{kind}", kind, profile[kind], B)
    u = [float(r["phi_u"]["lower"]) for r in rows]
    low = [float(r["phi_l"]["upper"]) for r in rows]
    if not _close(float(profile["ratio_max"]), max(a / b for a, b in zip(u, low) if b > 0)):
        errs.append("ratio_max does not match the rows")
    fit = [i for i, r in enumerate(rows) if max(2, len(rows) // 4) <= r["m"]]
    if len(fit) >= 2:
        ms = [rows[i]["m"] for i in fit]
        for key, ys in (("slope_u", u), ("slope_l", low)):
            want = _slope(ms, [ys[i] for i in fit])
            if abs(float(profile[key]) - want) > REL * (1 + abs(want)):
                errs.append(f"{key} {profile[key]} != {want}")
    return errs


def check_analyze(payload: dict, B: CheckBasis) -> list[str]:
    """A full ``analyze --format json`` report."""
    errs = check_profile(payload["profile"], B, exact=False)
    for kind in SUP_KINDS:
        errs += check_bound(f"constants.{kind}", kind, payload["constants"][kind], B)
    cond = payload["conditionality"]
    if (cond is not None) != (B.kind == "lp"):
        errs.append("conditionality profile present exactly for lp ambients")
    for row in cond or []:
        m = row["m"]
        cert, upper = certified_upper("conditionality", B, m)
        val = max(replay("conditionality", row["witness"], B), 1.0)
        want = min(val, upper) if cert else val
        if row["upper_certified"] != cert or not _close(float(row["upper"]), upper):
            errs.append(f"conditionality({m}): upper {row['upper']} != {upper}")
        if not _close(float(row["lower"]), want):
            errs.append(f"conditionality({m}): lower {row['lower']} != replayed {want}")
        if not _close(float(row["log_normalized"]), want / (1.0 + math.log(m)) ** (1.0 / B.p)):
            errs.append(f"conditionality({m}): log_normalized does not match")
    return errs


def check_difference_analyze(payload: dict, B: CheckBasis) -> list[str]:
    """Difference basis at p = 1/2: every entry of 1_A is 0 or +/-1, so
    phi_l(m) >= 1; at most 2|A| entries are nonzero, so phi_u(m) <= (2m)^2."""
    errs = check_analyze(payload, B)
    for r in payload["profile"]["rows"]:
        if float(r["phi_l"]["upper"]) < 1.0 - REL:
            errs.append(f"phi_l({r['m']}) below 1")
        if float(r["phi_u"]["lower"]) > (2 * r["m"]) ** 2 * (1 + REL):
            errs.append(f"phi_u({r['m']}) above (2m)^2")
    return errs


def check_block_analyze(payload: dict, B: CheckBasis) -> list[str]:
    """Identity coordinates in a block space: the gauge of 1_A depends only on
    the occupancies c_b, as (sum_b c_b^(p/2))^(1/p)."""
    errs = check_analyze(payload, B)
    grids = np.meshgrid(*[np.arange(b + 1) for b in B.blocks], indexing="ij")
    occ = np.stack([g.ravel() for g in grids], axis=1)
    size = occ.sum(axis=1)
    value = np.sum(occ ** (B.p / 2.0), axis=1) ** (1.0 / B.p)
    for r in payload["profile"]["rows"]:
        m = r["m"]
        hi = float(value[(size >= 1) & (size <= m)].max())
        lo = float(value[size >= m].min())
        if float(r["phi_u"]["lower"]) > hi * (1 + REL):
            errs.append(f"phi_u({m}) above the occupancy maximum {hi}")
        if float(r["phi_l"]["upper"]) < lo * (1 - REL):
            errs.append(f"phi_l({m}) below the occupancy minimum {lo}")
    return errs


def subset_extremes(B: CheckBasis) -> tuple[np.ndarray, np.ndarray]:
    """Brute force over all 2^d subsets: (max over |A| <= m, min over |A| >= m)."""
    d = B.d
    masks = ((np.arange(1, 1 << d)[:, None] >> np.arange(d)) & 1).astype(float)
    values = B.gauge(masks @ B.V)
    size = masks.sum(axis=1).astype(int)
    hi = np.array([values[size <= m].max() for m in range(1, d + 1)])
    lo = np.array([values[size >= m].min() for m in range(1, d + 1)])
    return hi, lo


def check_exact_profile(profile: dict, B: CheckBasis, closed_form: bool) -> list[str]:
    """Exact profile: the difference basis has phi_u(m) = (2m)^2 and phi_l = 1;
    otherwise compare with brute force over all subsets."""
    errs = check_profile(profile, B, exact=True)
    rows = profile["rows"]
    if closed_form:
        want_u = [(2.0 * r["m"]) ** 2 for r in rows]
        want_l = [1.0] * len(rows)
    else:
        hi, lo = subset_extremes(B)
        want_u, want_l = hi[: len(rows)], lo[: len(rows)]
    for r, wu, wl in zip(rows, want_u, want_l):
        if not (_close(float(r["phi_u"]["lower"]), float(wu))
                and _close(float(r["phi_l"]["upper"]), float(wl))):
            errs.append(f"m={r['m']}: exact ({r['phi_u']['lower']}, {r['phi_l']['upper']}) "
                        f"!= ({wu}, {wl})")
    return errs


def check_exact_unconditional(est: dict, B: CheckBasis) -> list[str]:
    """Exact mode covers {0,1}^d and {-1,1}^d for the inputs e_j, so its lower
    bound is at least the brute-force maximum over both families."""
    errs = check_bound("unconditional", "unconditional", est, B)
    d = B.d
    bits = ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1).astype(float)
    best = 0.0
    for j in range(B.V.shape[1]):
        e = np.zeros(B.V.shape[1])
        e[j] = 1.0
        scaled = (B.U @ e)[:, None] * B.V
        for gammas in (bits, 2.0 * bits - 1.0):
            best = max(best, float(np.max(B.gauge(gammas @ scaled))) / float(B.gauge(e)))
    if float(est["lower"]) < best * (1 - REL):
        errs.append(f"exact unconditional lower {est['lower']} below brute force {best}")
    return errs


def check_verify(suite: str, stdout: str) -> list[str]:
    """Every line [PASS], and the suite's number of checks (exit 0 is checked
    by the caller)."""
    lines = stdout.splitlines()
    errs = []
    if len(lines) != VERIFY_CHECKS[suite]:
        errs.append(f"verify {suite}: {len(lines)} checks, expected {VERIFY_CHECKS[suite]}")
    errs += [f"verify {suite}: {line}" for line in lines if not line.startswith("[PASS] ")]
    return errs
