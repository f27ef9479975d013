"""Child-process side of the benchmark: everything that imports ``qgreedy``.

    python3 perfbench/ops.py setup WORKLOAD SEED DIR
        import qgreedy, build or load the workload's bases, then print the
        monotonic clock (the parent subtracts its spawn time).
    python3 perfbench/ops.py exact NAME SEED THREADS DIR [TRACE]
        one exact-kernels library call; its output goes to DIR/NAME.json.
    python3 perfbench/ops.py cli TRACE ARGS...
        ``qgreedy`` CLI command ARGS with the span tracer installed.

With TRACE given, spans are written to TRACE.bin / TRACE.json at the end.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

ANALYZE_DIMS = (8, 16, 24, 32)
BLOCKS = (4, 4, 4, 4, 4, 4)
LORENTZ_FILE = "lorentz16.json"
# (name, zoo basis, d, m_max) for the exact democracy profiles
EXACT_PROFILES = (("profile-difference-16", "difference", 16, 8),
                  ("profile-perturbed-16", "perturbed_unit", 16, 8),
                  ("profile-difference-20", "difference", 20, 6))
EXACT_UNCONDITIONAL = ("unconditional-difference-12", "difference", 12)


def _tracer():
    import tracer

    return tracer.install()


def setup(workload: str, seed: int, out: Path) -> None:
    if workload == "exact-kernels":
        import qgreedy as q

        for _, name, d, _ in EXACT_PROFILES:
            q.zoo(name, p=0.5, dim=d, seed=seed)
        q.zoo(EXACT_UNCONDITIONAL[1], p=0.5, dim=EXACT_UNCONDITIONAL[2])
    else:
        import qgreedy.cli  # noqa: F401  (what the CLI imports)
        import qgreedy as q

        if workload == "analyze-random":
            for d in ANALYZE_DIMS:
                q.zoo("difference", p=0.5, dim=d, seed=seed)
        elif workload == "ambient-kinds":
            q.zoo("block_l2", p=0.5, blocks=BLOCKS, seed=seed)
            q.load_basis(out / LORENTZ_FILE)
        else:  # verify-suites: the bases the democracy-lp and succ suites build
            q.zoo("unit", p=0.5, dim=12)
            q.zoo("unit", p=0.5, dim=8)
            q.zoo("difference", p=0.5, dim=8)
    print(repr(time.perf_counter()))


def exact(name: str, seed: int, threads: int, out: Path, trace: str | None) -> None:
    """One exact-kernels library call; its result and basis go to OUT/NAME.json."""
    tracer = _tracer() if trace else None
    import qgreedy as q
    from qgreedy.bases import basis_to_dict
    from qgreedy.reports import json_text

    if name == EXACT_UNCONDITIONAL[0]:
        basis = q.zoo(EXACT_UNCONDITIONAL[1], p=0.5, dim=EXACT_UNCONDITIONAL[2])
        result = q.unconditional_constant(basis, mode="exact", seed=seed)
    else:
        _, kind, d, m = next(spec for spec in EXACT_PROFILES if spec[0] == name)
        basis = q.zoo(kind, p=0.5, dim=d, seed=seed)
        result = q.democracy_profile(basis, m_max=m, mode="exact", seed=seed, threads=threads)
    (out / f"{name}.json").write_text(json_text({"basis": basis_to_dict(basis), "result": result}))
    if tracer is not None:
        tracer.write(Path(trace))


def cli(trace: str, argv: list[str]) -> int:
    tracer = _tracer()
    from qgreedy.cli import main

    try:
        return main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(Path(trace))


if __name__ == "__main__":
    cmd, rest = sys.argv[1], sys.argv[2:]
    if cmd == "setup":
        setup(rest[0], int(rest[1]), Path(rest[2]))
    elif cmd == "exact":
        exact(rest[0], int(rest[1]), int(rest[2]), Path(rest[3]), rest[4] if len(rest) > 4 else None)
    elif cmd == "cli":
        sys.exit(cli(rest[0], rest[1:]))
    else:
        sys.exit(f"unknown command {cmd!r}")
