"""Regenerate the golden outputs that ``tests/test_golden.py`` compares against.

    python tests/golden/regen.py           # rewrite the four files
    python tests/golden/regen.py --diff    # print what moved; write nothing

``--diff`` exits 1 when any field moved and 0 when none did, so it can gate
a change that must not move an output.

The files pin, for seeds 0-2:

- ``verify_stdout.json``: the standard output of the six ``qgreedy verify``
  suites at CLI defaults.  ``bootstrap`` takes no seed and ``democracy-lp``
  prints only exact-mode values, so those two are pinned once (the script
  checks that their output is the same at every seed).
- ``sign_constants.json``: ``as_dict()`` of ``succ_constant``,
  ``sign_change_constant`` and ``super_democracy_constant`` at budget 500 on
  ``difference`` and ``perturbed_unit`` at d = 16 (sets of more than 12
  members take the sampled-sign path) and on ``block_l2`` with blocks
  4 x 4.
- ``analyze_json.json``: the standard output of ``qgreedy analyze --format
  json`` on ``difference`` at d = 8 (default budget) and d = 16 in random
  mode, on ``difference`` at d = 12 in exact mode, on ``block_l2`` with
  blocks 4 x 4, and on difference vectors in the Lorentz space d_q(w) with
  q = 1/2, w_n = 2n - 1 at d = 16.  All but the first run at budget 1000.
- ``embeddings.json``: both embedding reports (the constant's ``as_dict()``
  and the companion table) at the default budget with w_n = 2n - 1 and, from
  d_q(w), q = 1/2, on ``difference`` at d = 8 (exact companion tables) and
  ``perturbed_unit`` at d = 14 (random ones).

Each file records the Python and numpy versions it was made with.  Run this
script only for a change that is meant to move an output, and list every
moved field in CHANGES.md (``--diff`` prints them: each moved JSON path or
stdout line with its pinned value, its new value and, for numbers, the
relative change); the test never regenerates on a failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from qgreedy.bases import Basis, _difference_matrices, save_basis, zoo  # noqa: E402
from qgreedy.cli import main  # noqa: E402
from qgreedy.democracy import (  # noqa: E402
    sign_change_constant,
    succ_constant,
    super_democracy_constant,
)
from qgreedy.embeddings import embed_lorentz_into_space, embed_space_into_weak_lorentz  # noqa: E402
from qgreedy.reports import json_text  # noqa: E402
from qgreedy.spaces import LorentzSpace  # noqa: E402

SEEDS = (0, 1, 2)
SUITES = ("lemma32", "lemma33", "lemma34", "bootstrap", "democracy-lp", "succ")
SEEDLESS = ("bootstrap", "democracy-lp")
SIGN_BUDGET = 500
SIGN_BASES = {
    "difference-16": dict(name="difference", p=0.5, dim=16),
    "perturbed_unit-16": dict(name="perturbed_unit", p=0.5, dim=16),
    "block_l2-4x4": dict(name="block_l2", p=0.5, blocks=(4,) * 4),
}
SIGN_CONSTANTS = {
    "succ": succ_constant,
    "sign_change": sign_change_constant,
    "super_democracy": super_democracy_constant,
}
ANALYZE_BUDGET = ["--budget", "1000"]
ANALYZE_ARGS = {
    "difference-8": ["--zoo", "difference", "--p", "0.5", "--dim", "8"],
    "difference-16": ["--zoo", "difference", "--p", "0.5", "--dim", "16", *ANALYZE_BUDGET],
    "difference-12-exact": ["--zoo", "difference", "--p", "0.5", "--dim", "12",
                            "--mode", "exact", *ANALYZE_BUDGET],
    "block_l2-4x4": ["--zoo", "block_l2", "--p", "0.5", "--blocks", "4", "4", "4", "4",
                     *ANALYZE_BUDGET],
    "lorentz-16": [*ANALYZE_BUDGET],  # the basis file is added by analyze_stdout
}
LORENTZ_DIM = 16
EMBED_BASES = {
    "difference-8": dict(name="difference", p=0.5, dim=8),
    "perturbed_unit-14": dict(name="perturbed_unit", p=0.5, dim=14),
}
VERIFY_FILE = HERE / "verify_stdout.json"
SIGN_FILE = HERE / "sign_constants.json"
ANALYZE_FILE = HERE / "analyze_json.json"
EMBED_FILE = HERE / "embeddings.json"


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def verify_stdout(suite: str, seed: int) -> str:
    """Standard output of ``qgreedy verify SUITE --seed SEED``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        main(["verify", suite, "--seed", str(seed)])
    return buf.getvalue()


def verify_key(suite: str, seed: int) -> str:
    return suite if suite in SEEDLESS else f"{suite}/seed{seed}"


def verify_cases() -> list[tuple[str, int]]:
    """(suite, seed) pairs the golden file pins, one per key."""
    return [(s, seed) for s in SUITES for seed in (SEEDS[:1] if s in SEEDLESS else SEEDS)]


def sign_constants(base: str, seed: int) -> dict:
    spec = dict(SIGN_BASES[base])
    basis = zoo(spec.pop("name"), seed=seed, **spec)
    return {name: fn(basis, budget=SIGN_BUDGET, seed=seed).as_dict()
            for name, fn in SIGN_CONSTANTS.items()}


def sign_key(base: str, seed: int) -> str:
    return f"{base}/seed{seed}"


def sign_cases() -> list[tuple[str, int]]:
    return [(base, seed) for base in SIGN_BASES for seed in SEEDS]


def lorentz_basis(d: int = LORENTZ_DIM) -> Basis:
    """x_n = e_n - e_{n-1} in d_q(w), q = 1/2, w_n = 2n - 1 (primitive n^2)."""
    vectors, duals = _difference_matrices(d)
    return Basis(LorentzSpace(0.5, 2.0 * np.arange(1, d + 1) - 1.0), vectors, duals)


def analyze_stdout(case: str, seed: int) -> str:
    """Standard output of ``qgreedy analyze ... --format json --seed SEED``."""
    argv = ["analyze", *ANALYZE_ARGS[case], "--format", "json", "--seed", str(seed)]
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if case.startswith("lorentz"):
            path = Path(tmp) / "lorentz.json"
            save_basis(lorentz_basis(), path)
            argv += ["--basis", str(path)]
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    return buf.getvalue()


def analyze_key(case: str, seed: int) -> str:
    return f"{case}/seed{seed}"


def analyze_cases() -> list[tuple[str, int]]:
    return [(case, seed) for case in ANALYZE_ARGS for seed in SEEDS]


def embeddings(base: str, seed: int) -> dict:
    """Both embedding reports with w_n = 2n - 1 (and q = 1/2 from d_q(w))."""
    spec = dict(EMBED_BASES[base])
    basis = zoo(spec.pop("name"), seed=seed, **spec)
    w = 2.0 * np.arange(1, basis.d + 1) - 1.0
    return {"space_into_weak_lorentz": embed_space_into_weak_lorentz(basis, w, seed=seed),
            "lorentz_into_space": embed_lorentz_into_space(basis, 0.5, w, seed=seed)}


def embed_key(base: str, seed: int) -> str:
    return f"{base}/seed{seed}"


def embed_cases() -> list[tuple[str, int]]:
    return [(base, seed) for base in EMBED_BASES for seed in SEEDS]


def verify_payload() -> dict:
    stdout = {}
    for suite, seed in verify_cases():
        stdout[verify_key(suite, seed)] = verify_stdout(suite, seed)
        if suite in SEEDLESS:
            for other in SEEDS[1:]:
                if verify_stdout(suite, other) != stdout[suite]:
                    raise SystemExit(f"verify {suite} output depends on the seed")
    return {**versions(), "stdout": stdout}


def sign_payload() -> dict:
    results = {sign_key(b, s): sign_constants(b, s) for b, s in sign_cases()}
    # through json_text, as the file stores them
    return json.loads(json_text({**versions(), "budget": SIGN_BUDGET, "results": results}))


def analyze_payload() -> dict:
    results = {}
    for case, seed in analyze_cases():
        text = analyze_stdout(case, seed)
        results[analyze_key(case, seed)] = json.loads(text)
        if json_text(results[analyze_key(case, seed)]) != text:
            raise SystemExit(f"analyze {case} output does not round-trip through json_text")
    return {**versions(), "stdout": results}


def embed_payload() -> dict:
    results = {embed_key(b, s): embeddings(b, s) for b, s in embed_cases()}
    return json.loads(json_text({**versions(), "results": results}))


PAYLOADS = {VERIFY_FILE: verify_payload, SIGN_FILE: sign_payload, ANALYZE_FILE: analyze_payload,
            EMBED_FILE: embed_payload}


def regenerate() -> None:
    for path, payload in PAYLOADS.items():
        path.write_text(json_text(payload()))
    print(f"wrote {', '.join(path.name for path in PAYLOADS)}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def moved(old, new, path: str = "$") -> Iterator[tuple[str, object, object]]:
    """(path, pinned value, new value) for every place where ``new`` differs
    from ``old``.  A list of numbers (a witness) is one value; a stdout text
    is compared line by line."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            yield from moved(old.get(key, "(absent)"), new.get(key, "(absent)"), f"{path}.{key}")
    elif isinstance(old, str) and isinstance(new, str) and "\n" in old + new:
        old_lines, new_lines = old.split("\n"), new.split("\n")
        for n in range(max(len(old_lines), len(new_lines))):
            a = old_lines[n] if n < len(old_lines) else "(absent)"
            b = new_lines[n] if n < len(new_lines) else "(absent)"
            if a != b:
                yield f"{path} line {n + 1}", a, b
    elif (isinstance(old, list) and isinstance(new, list) and len(old) == len(new)
          and not all(_is_number(x) for x in old + new)):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from moved(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def describe(path: str, old, new) -> str:
    line = f"{path}: {json.dumps(old)} -> {json.dumps(new)}"
    if _is_number(old) and _is_number(new) and old != 0:
        line += f" ({(new - old) / abs(old):+.3e})"
    return line


def diff() -> int:
    """Print every moved path of the golden files; return how many moved."""
    count = 0
    for path, payload in PAYLOADS.items():
        pinned = json.loads(path.read_text())
        for where, old, new in moved(pinned, payload()):
            print(f"{path.name} {describe(where, old, new)}")
            count += 1
    print(f"{count} moved")
    return count


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden outputs.")
    parser.add_argument("--diff", action="store_true",
                        help="print what moved against the files and write nothing")
    if parser.parse_args().diff:
        sys.exit(1 if diff() else 0)
    regenerate()
