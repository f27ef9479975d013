"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 perfbench/selftest.py [--seed N]

1. Corrupted outputs must fail the checker: every reported bound scaled by
   1 + 1e-8, one witness index changed, one [PASS] line dropped.
2. Two traced runs of every workload give identical per-layer counts.
3. The exact-kernels outputs are identical at threads = 1 and threads = 2.

Exits 1 and names the failures if any self-test fails.
"""

from __future__ import annotations

import argparse
import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import run


def _cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "qgreedy.cli", *args], env=run.ENV,
                          cwd=run.ROOT, capture_output=True, text=True)


def _bounds(payload: dict):
    """(container, key) for every finite nonzero reported bound."""
    profile = payload["profile"]
    ests = [row[k] for row in profile["rows"] for k in ("phi_u", "phi_l")]
    ests += [profile[k] for k in ("succ", "sign_change", "super_democracy", "quasi_greedy")]
    ests += list(payload["constants"].values())
    ests += payload["conditionality"] or []
    for est in ests:
        for key in ("lower", "upper", "log_normalized"):
            if isinstance(est.get(key), float) and est[key] != 0.0:
                yield est, key


def corrupted_outputs(seed: int) -> list[str]:
    failures = []
    basis = check.difference_basis(8)
    done = _cli(["analyze", "--zoo", "difference", "--p", "0.5", "--dim", "8",
                 "--format", "json", "--seed", str(seed)])
    payload = json.loads(done.stdout)
    if check.check_difference_analyze(payload, basis):
        return ["the unmodified analyze output fails the checker"]
    n_bounds = 0
    for i, _ in enumerate(_bounds(payload)):
        bad = copy.deepcopy(payload)
        est, key = list(_bounds(bad))[i]
        est[key] *= 1 + 1e-8
        n_bounds += 1
        if not check.check_difference_analyze(bad, basis):
            failures.append(f"a {key} scaled by 1 + 1e-8 passed ({est.get('witness')})")
    bad = copy.deepcopy(payload)
    wit = bad["profile"]["rows"][-1]["phi_u"]["witness"]["set"]
    wit[0] = min(set(range(8)) - set(wit))
    if not check.check_difference_analyze(bad, basis):
        failures.append("a changed witness index passed")
    suite = "lemma34"
    done = _cli(["verify", suite, "--seed", str(seed)])
    if done.returncode or check.check_verify(suite, done.stdout):
        failures.append("the unmodified verify output fails the checker")
    dropped = "".join(done.stdout.splitlines(keepends=True)[1:])
    if not check.check_verify(suite, dropped):
        failures.append("a dropped [PASS] line passed")
    print(f"corruptions: {n_bounds} scaled bounds, 1 witness index, 1 dropped line")
    return failures


def traced_counts_repeat(seed: int) -> list[str]:
    failures = []
    for workload in run.WORKLOADS:
        counts = []
        for _ in range(2):
            done = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                                  capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] == "count"})
        print(f"{workload}: traced counts {'repeat' if counts[0] == counts[1] else 'DIFFER'}")
        if counts[0] != counts[1]:
            failures.append(f"{workload}: traced counts differ: {counts}")
    return failures


def threads_agree(seed: int) -> list[str]:
    with tempfile.TemporaryDirectory(dir=run.HERE / "out") as tmp:
        dirs = []
        for threads in (1, 2):
            out = Path(tmp) / f"threads{threads}"
            out.mkdir()
            for name in run.EXACT_OPS:
                subprocess.run([sys.executable, str(run.HERE / "ops.py"), "exact", name, str(seed),
                                str(threads), str(out)], env=run.ENV, cwd=run.ROOT, check=True)
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        same = names == sorted(p.name for p in dirs[1].iterdir()) and all(
            (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names)
    print(f"exact-kernels outputs at threads 1 and 2: {'identical' if same else 'DIFFER'}")
    return [] if same else ["exact-kernels outputs depend on the thread count"]


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-tests")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    (run.HERE / "out").mkdir(exist_ok=True)
    failures = corrupted_outputs(args.seed) + threads_agree(args.seed) + traced_counts_repeat(args.seed)
    for failure in failures:
        print(f"FAILED: {failure}")
    print("self-tests passed" if not failures else f"{len(failures)} self-tests failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
