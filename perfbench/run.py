"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations against ``src/`` until another
round would end past S seconds (at least one round), checks every output with
``check.py``, and prints one JSON object as the last line of standard output.
With ``--trace 0`` it reports the end-to-end metrics (medians over the
rounds); with ``--trace 1`` it runs one round with the span tracer installed
in every program process and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from ops import ANALYZE_DIMS, BLOCKS, EXACT_PROFILES, EXACT_UNCONDITIONAL, LORENTZ_FILE  # noqa: E402

WORKLOADS = ("analyze-random", "exact-kernels", "verify-suites", "ambient-kinds")
VERIFY_SUITES = ("lemma32", "lemma33", "lemma34", "bootstrap", "democracy-lp", "succ")
EXACT_OPS = [spec[0] for spec in EXACT_PROFILES] + [EXACT_UNCONDITIONAL[0]]
SETUP_SAMPLES = 16  # fresh start-ups per round
THREADS = len(os.sched_getaffinity(0))
# the program's matrices are at most 32 wide; idle BLAS worker threads only
# add noise, so every program process gets one BLAS thread.  Byte-code is
# cached as for an installed package, whatever the caller's environment says.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
           PYTHONPATH=str(ROOT / "src"))
ENV.pop("PYTHONDONTWRITEBYTECODE", None)


class Unit:
    """One operation, run as its own program process: a CLI command or a
    library call.  ``checker(stdout)`` returns the output's errors."""

    def __init__(self, name: str, argv: list[str], checker):
        self.name, self.argv, self.checker = name, argv, checker


def _cli(name: str, args: list[str], checker, out: Path, trace: bool) -> Unit:
    prefix = ([sys.executable, str(HERE / "ops.py"), "cli", str(out / "trace" / name)] if trace
              else [sys.executable, "-m", "qgreedy.cli"])
    return Unit(name, prefix + args, checker)


def _analyze_checker(basis, check_report):
    return lambda stdout: check_report(json.loads(stdout), basis)


def build_units(workload: str, seed: int, out: Path, trace: bool) -> list[Unit]:
    s = str(seed)
    if workload == "analyze-random":
        return [_cli(f"analyze-{d}", ["analyze", "--zoo", "difference", "--p", "0.5", "--dim",
                                      str(d), "--format", "json", "--seed", s],
                     _analyze_checker(check.difference_basis(d), check.check_difference_analyze),
                     out, trace)
                for d in ANALYZE_DIMS]
    if workload == "verify-suites":
        return [_cli(f"verify-{suite}", ["verify", suite, "--seed", s],
                     lambda stdout, suite=suite: check.check_verify(suite, stdout),
                     out, trace)
                for suite in VERIFY_SUITES]
    if workload == "ambient-kinds":
        return [
            _cli("analyze-block", ["analyze", "--zoo", "block_l2", "--p", "0.5", "--blocks",
                                   *map(str, BLOCKS), "--format", "json", "--seed", s],
                 _analyze_checker(check.block_identity(BLOCKS), check.check_block_analyze), out, trace),
            _cli("analyze-lorentz", ["analyze", "--basis", str(out / LORENTZ_FILE),
                                     "--format", "json", "--seed", s],
                 _analyze_checker(lorentz_basis(), check.check_analyze), out, trace),
        ]
    units = []
    for name in EXACT_OPS:
        argv = [sys.executable, str(HERE / "ops.py"), "exact", name, s, str(THREADS), str(out)]
        if trace:
            argv.append(str(out / "trace" / name))
        units.append(Unit(name, argv, lambda stdout, name=name: check_exact(out, name)))
    return units


def lorentz_basis() -> check.CheckBasis:
    """Difference vectors in d_q(w), q = 1/2, w_n = 2n - 1 (primitive n^2), d = 16."""
    return check.difference_basis(16, p=0.5, kind="lorentz", weight=check.lorentz_weight(16))


def write_inputs(workload: str, out: Path) -> None:
    if workload == "ambient-kinds":
        basis = lorentz_basis()
        data = {"ambient": {"kind": "lorentz", "q": basis.p, "weight": basis.weight.tolist()},
                "vectors": basis.V.tolist(), "duals": basis.U.tolist()}
        (out / LORENTZ_FILE).write_text(json.dumps(data))


def check_exact(out: Path, name: str) -> list[str]:
    path = out / f"{name}.json"
    if not path.exists():
        return ["no output"]
    payload = json.loads(path.read_text())
    if name == EXACT_UNCONDITIONAL[0]:
        return check.check_exact_unconditional(payload["result"],
                                               check.difference_basis(EXACT_UNCONDITIONAL[2]))
    _, kind, d, _ = next(spec for spec in EXACT_PROFILES if spec[0] == name)
    if kind == "difference":
        basis = check.difference_basis(d)
    else:  # the seeded perturbation is an input: its dump must be a basis
        basis = check.CheckBasis("lp", payload["basis"]["vectors"], payload["basis"]["duals"])
    return check.check_exact_profile(payload["result"], basis, closed_form=kind == "difference")


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float, float]:
    """Run one program process; (exit code, wall s, user+system s, peak RSS MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_round(units: list[Unit], out: Path, probe) -> dict:
    """Every operation once; ``probe`` runs before each one (set-up samples)."""
    wall = cpu = rss = 0.0
    errors = {}
    for unit in units:
        probe()
        stdout, stderr = out / f"{unit.name}.out", out / f"{unit.name}.err"
        rc, w, c, r = spawn(unit.argv, stdout, stderr)
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        try:
            errors[unit.name] = [f"exit {rc}"] if rc else unit.checker(stdout.read_text())
        except Exception as exc:  # a malformed output fails its operation, not the run
            errors[unit.name] = [f"unreadable output: {exc!r}"]
    return {"wall": wall, "cpu": cpu, "rss": rss, "errors": errors}


def setup_time(workload: str, seed: int, out: Path) -> float:
    """Fresh interpreter to the first estimator call: qgreedy import + bases."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "ops.py"), "setup", workload, str(seed),
                           str(out)], env=ENV, cwd=ROOT, capture_output=True, text=True, check=True)
    return float(done.stdout.split()[-1]) - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qgreedy" / "__init__.py").is_file():
        print(f"no qgreedy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    (out / "trace").mkdir(parents=True)
    write_inputs(args.workload, out)
    units = build_units(args.workload, args.seed, out, bool(args.trace))

    # set-up samples are spread over the run, a few before every operation,
    # so that a short burst of load on the host does not set their median
    setups: list[float] = []
    per_op = 0 if args.trace else -(-SETUP_SAMPLES // len(units))

    def probe() -> None:
        setups.extend(setup_time(args.workload, args.seed, out) for _ in range(per_op))

    if not args.trace:
        setup_time(args.workload, args.seed, out)  # warm-up: byte-compiles the sources
    rounds, begin = [], time.perf_counter()
    while True:
        started = time.perf_counter()
        rounds.append(run_round(units, out, probe))
        took = time.perf_counter() - started
        if args.trace or time.perf_counter() - begin + took > args.seconds:
            break

    attempted = sum(len(r["errors"]) for r in rounds)
    bad = [(name, errs) for r in rounds for name, errs in r["errors"].items() if errs]
    for name, errs in bad:
        for err in errs[:5]:
            print(f"FAILED {name}: {err}", file=sys.stderr)
    if args.trace:
        import tracer

        metrics = tracer.layer_metrics(sorted({p.with_suffix("") for p in (out / "trace").iterdir()}))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss"] for r in rounds), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    print(f"rounds {len(rounds)} of {statistics.median(r['wall'] for r in rounds):.3f} s, "
          f"operations attempted {attempted}, failed {len(bad)}")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": len(bad),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
