"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np

from qgreedy.bases import coordinate_projection, zoo
from qgreedy.bootstrap import bootstrap_chain, harmonic
from qgreedy.cli import main as cli_main
from qgreedy.democracy import lower_democracy, upper_democracy
from qgreedy.greedy import conditionality_growth_profile
from qgreedy.spaces import ambient_gauge
from qgreedy.strongly_absolute import (
    counting_inequality_check,
    khintchine_square_function,
    random_pair_family,
    strongly_absolute_check,
)
from qgreedy.rng import VERIFY_VECTORS, substream


def report(number: int, name: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {number} ({name}): {detail}", flush=True)


def test_criterion_1_unit_basis_democracy():
    start = time.perf_counter()
    basis = zoo("unit", p=0.5, dim=12)
    worst = 0.0
    for m in range(1, 13):
        expect = float(m) ** 2
        worst = max(worst,
                    abs(upper_democracy(basis, m, mode="exact").lower - expect),
                    abs(lower_democracy(basis, m, mode="exact").lower - expect))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, "identity-system democracy at p=1/2, d=12",
           ok, f"max |phi - m^2| = {worst:.3e}, runtime {elapsed:.2f}s (< 5s)")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_difference_conditionality_witness():
    start = time.perf_counter()
    basis = zoo("difference", p=0.5, dim=16)
    worst = 0.0
    for m in range(1, 9):
        f = np.zeros(16)
        f[2 * m - 1] = 1.0  # the 2m-th ambient unit vector
        evens = np.arange(1, 2 * m, 2)  # the 2nd, 4th, ..., 2m-th coefficients
        ratio = (ambient_gauge(basis.space, coordinate_projection(basis, evens, f))
                 / ambient_gauge(basis.space, f))
        worst = max(worst, abs(ratio - (2.0 * m) ** 2))
    rows = conditionality_growth_profile(basis, max_m=8, budget=0, seed=0)
    profile_ok = all(row.lower >= (2.0 * row.m) ** 2 - 1e-12 for row in rows)
    elapsed = time.perf_counter() - start
    ok = worst == 0.0 and profile_ok and elapsed < 1.0
    report(2, "difference-system projection growth witness (d=16, m<=8)",
           ok, f"max witness deviation from (2m)^2 = {worst:.3e} (exact), "
               f"profile dominates witness: {profile_ok}, runtime {elapsed:.2f}s (< 1s)")
    assert worst == 0.0
    assert profile_ok
    assert elapsed < 1.0


def test_criterion_3_difference_non_democracy():
    # 1_A has coordinates [j in A] - [j+1 in A]: at most 2|A| entries, each of
    # modulus 1, so phi_u(m) <= (2m)^2 at p=1/2, attained by {1, 3, ..., 2m-1}
    start = time.perf_counter()
    basis = zoo("difference", p=0.5, dim=8)
    phi_l_worst = 0.0
    phi_u_worst = 0.0
    oracle_worst = 0.0
    for m in range(1, 5):
        phi_u = upper_democracy(basis, m, mode="exact").lower
        phi_l = lower_democracy(basis, m, mode="exact").lower
        phi_l_worst = max(phi_l_worst, abs(phi_l - 1.0))
        phi_u_worst = max(phi_u_worst, abs(phi_u - (2.0 * m) ** 2))
        # independent full-powerset oracle (<= 2^8 evaluations)
        best = 0.0
        for mask in range(1, 1 << 8):
            idx = [i for i in range(8) if (mask >> i) & 1]
            if len(idx) > m:
                continue
            best = max(best, ambient_gauge(basis.space, basis.vectors[idx].sum(axis=0)))
        oracle_worst = max(oracle_worst, abs(phi_u - best))
    elapsed = time.perf_counter() - start
    ok = phi_l_worst <= 1e-9 and oracle_worst <= 1e-9 and phi_u_worst <= 1e-9 \
        and elapsed < 5.0
    report(3, "difference-system non-democracy (d=8, m<=4)", ok,
           f"|phi_l - 1| = {phi_l_worst:.3e}; enumeration vs oracle = {oracle_worst:.3e}; "
           f"|phi_u - (2m)^2| = {phi_u_worst:.3e} (<= 1e-9); "
           f"runtime {elapsed:.2f}s (< 5s)")
    assert phi_l_worst <= 1e-9
    assert oracle_worst <= 1e-9
    assert elapsed < 5.0
    assert phi_u_worst <= 1e-9, (
        f"exact phi_u(m) deviates from (2m)^2 by {phi_u_worst:.3e}"
    )


def test_criterion_4_block_basis_slopes():
    start = time.perf_counter()
    basis = zoo("block_l2", p=4, blocks=list(range(1, 13)))
    worst = 0.0
    for m in range(1, 13):
        worst = max(
            worst,
            abs(upper_democracy(basis, m, mode="exact").lower - m**0.5),
            abs(lower_democracy(basis, m, mode="exact").lower - m**0.25),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 2.0
    report(4, "block-system occupancy extremes (blocks 1..12, p=4)",
           ok, f"max deviation from (m^(1/2), m^(1/4)) = {worst:.3e}, "
               f"runtime {elapsed:.2f}s (< 2s)")
    assert worst <= 1e-9
    assert elapsed < 2.0


def test_criterion_5_coefficient_domination_suite():
    start = time.perf_counter()
    trials = 10_000
    violations = 0
    for i in range(trials):
        rng = substream(0, VERIFY_VECTORS, i)
        f = rng.standard_normal(16) * 10.0 ** rng.integers(-3, 4)
        for p in (0.3, 0.5, 0.7):
            for eps in (0.1, 1.0, 10.0):
                if not strongly_absolute_check(f, p, eps).holds:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    report(5, "coefficient-sum domination suite (10^4 vectors x 3 p x 3 eps)",
           ok, f"{violations} violations, runtime {elapsed:.2f}s (< 10s)")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_6_counting_inequality_suite():
    start = time.perf_counter()
    trials = 1000
    violations = 0
    for i in range(trials):
        rng = substream(1, VERIFY_VECTORS, i)
        size = int(rng.integers(1, 9))
        family = random_pair_family(8, size, 0.5, seed=10_000 + i)
        if not counting_inequality_check(family, 2.0).holds:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    report(6, "family-size counting suite (10^3 families, d<=8, p=1/2, C=2)",
           ok, f"{violations} violations, runtime {elapsed:.2f}s (< 30s)")
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_7_sign_average_square_function():
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 13):
        cmp_exact = khintchine_square_function(np.eye(m), 0.5, mode="exact")
        worst = max(worst, abs(cmp_exact.lhs - m), abs(cmp_exact.rhs - m))
    rng = substream(2, VERIFY_VECTORS, 0)
    vectors = rng.standard_normal((12, 16))
    exact = khintchine_square_function(vectors, 0.5, mode="exact")
    mc = khintchine_square_function(vectors, 0.5, mode="mc", samples=100_000, seed=3)
    gap = abs(exact.lhs - mc.lhs)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and gap <= 3 * mc.stderr and elapsed < 60.0
    report(7, "sign-average square function (disjoint exactness + exact vs MC)",
           ok, f"disjoint deviation {worst:.3e}; |exact - mc| = {gap:.3e} vs "
               f"3*stderr = {3 * mc.stderr:.3e}; runtime {elapsed:.2f}s (< 60s)")
    assert worst <= 1e-12
    assert gap <= 3 * mc.stderr
    assert elapsed < 60.0


ZETA3 = 1.2020569031595942854  # Apery's constant zeta(3)
EULER_GAMMA = 0.5772156649015328606


def harmonic_square_tail(M: int) -> float:
    """R(M) = sum_{n>M} H_n/n^2 by Euler-Maclaurin, up to O(ln M / M^3)."""
    L = math.log(M) + EULER_GAMMA
    return (L + 1.0) / M - L / (2.0 * M * M) + 1.0 / (4.0 * M * M)


def test_criterion_8_bootstrap_chain():
    start = time.perf_counter()
    M = 1_000_000
    chain = bootstrap_chain(M, 3)
    m = np.arange(1, M + 1, dtype=float)

    err1 = float(np.max(np.abs(chain.stages[1].values / np.sqrt(m) - 1.0)))
    h = harmonic(M).values
    err2 = float(np.max(np.abs(chain.stages[2].values / (m / np.sqrt(h)) - 1.0)))
    # certify the accumulated harmonic numbers against exactly rounded sums
    h_check = max(
        abs(h[k - 1] - math.fsum(1.0 / n for n in range(1, k + 1)))
        for k in (1, 2, 10, 1000, 100_000)
    )

    ratio = chain.final_over_m
    bracket_ok = 0.635 <= ratio[-1] <= 0.655
    # ratio(M) = (sum_{n<=M} H_n/n^2)^(-1/2) and sum_n H_n/n^2 = 2 zeta(3) (Euler)
    checkpoints = (100_000, 1_000_000)
    predicted = {k: (2.0 * ZETA3 - harmonic_square_tail(k)) ** -0.5 for k in checkpoints}
    residual = {k: abs(ratio[k - 1] - predicted[k]) / ratio[k - 1] for k in checkpoints}
    limit_ok = all(r <= 1e-12 for r in residual.values())
    gap = float(ratio[100_000 - 1] - ratio[1_000_000 - 1])
    predicted_gap = predicted[100_000] - predicted[1_000_000]
    elapsed = time.perf_counter() - start

    ok = err1 <= 1e-12 and err2 <= 1e-12 and h_check <= 1e-12 and bracket_ok \
        and limit_ok and elapsed < 2.0
    report(8, "iterated-improvement chain closed forms and convergence", ok,
           f"stage1 rel err {err1:.2e}, stage2 rel err {err2:.2e} (<= 1e-12); "
           f"ratio(10^6) = {ratio[-1]:.6f} in [0.635, 0.655]: {bracket_ok}; "
           f"rel residual vs (2 zeta(3) - R(M))^(-1/2) = {residual[100_000]:.2e} at 10^5, "
           f"{residual[1_000_000]:.2e} at 10^6 (<= 1e-12); "
           f"ratio(10^5) - ratio(10^6) = {gap:.6e} observed, {predicted_gap:.6e} predicted; "
           f"runtime {elapsed:.2f}s (< 2s)")
    assert err1 <= 1e-12
    assert err2 <= 1e-12
    assert h_check <= 1e-12
    assert bracket_ok
    assert elapsed < 2.0
    assert limit_ok, (
        f"ratio deviates from (2 zeta(3) - R(M))^(-1/2) by relative "
        f"{residual[100_000]:.2e} at M = 10^5 and {residual[1_000_000]:.2e} at M = 10^6"
    )


def test_criterion_9_power_growth_guard():
    start = time.perf_counter()
    roster = [
        zoo("unit", p=0.3, dim=8),
        zoo("unit", p=0.5, dim=10),
        zoo("unit", p=0.7, dim=8),
        zoo("difference", p=0.3, dim=8),
        zoo("difference", p=0.5, dim=10),
        zoo("difference", p=0.7, dim=8),
        zoo("perturbed_unit", p=0.5, dim=8, seed=1),
        zoo("perturbed_unit", p=0.7, dim=8, seed=2),
    ]
    worst = -math.inf
    for basis in roster:
        p = basis.space.p
        a = basis.a
        for m in range(1, basis.d + 1):
            phi_u = upper_democracy(basis, m, mode="exact").lower
            worst = max(worst, phi_u - a * m ** (1.0 / p))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9
    report(9, "upper democracy growth guard phi_u(m) <= a m^(1/p)",
           ok, f"max excess over the bound = {worst:.3e} (<= 1e-9), "
               f"{len(roster)} stock bases, runtime {elapsed:.2f}s")
    assert worst <= 1e-9


def test_criterion_10_analyze_determinism(tmp_path):
    start = time.perf_counter()

    def run(tag):
        out_dir = tmp_path / tag
        code = cli_main([
            "analyze", "--zoo", "difference", "--p", "0.5", "--dim", "8",
            "--max-m", "4", "--mode", "random", "--budget", "200", "--seed", "11",
            "--format", "csv", "--out", str(out_dir)])
        assert code == 0
        return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}

    runs = [run(f"r{i}") for i in range(1, 5)]
    identical = all(r == runs[0] for r in runs[1:])
    has_csv = any(name.endswith(".csv") for name in runs[0])
    elapsed = time.perf_counter() - start
    ok = identical and has_csv
    report(10, "byte-identical analyze output across repeated runs",
           ok, f"4 runs compared, identical: {identical}, runtime {elapsed:.2f}s")
    assert identical
    assert has_csv
