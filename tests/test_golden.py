"""Outputs pinned in tests/golden/: the stdout of the verify suites, the sign
constants, ``analyze --format json`` on seven cases and the two embedding
reports on two bases, for seeds 0-2.

On the Python and numpy versions a golden file records, outputs must match
byte for byte.  On other versions numbers are compared to a relative 1e-12
and witnesses exactly.  A mismatch names the first differing line or JSON
path.  ``python tests/golden/regen.py`` rewrites the files; no test calls it.

The pinned and fresh ``analyze`` reports and sign constants, and fresh exact
unconditionality constants, are also replayed by ``perfbench/check.py``,
which imports no ``qgreedy``.
"""

import json
import math
import platform
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import check, load_module
from qgreedy.bases import unconditional_constant, zoo
from qgreedy.reports import json_text

GOLDEN = Path(__file__).resolve().parent / "golden"
regen = load_module("golden_regen", GOLDEN / "regen.py")

VERIFY = json.loads(regen.VERIFY_FILE.read_text())
SIGNS = json.loads(regen.SIGN_FILE.read_text())
ANALYZE = json.loads(regen.ANALYZE_FILE.read_text())
EMBED = json.loads(regen.EMBED_FILE.read_text())
REL = 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def exact_versions(pinned: dict) -> bool:
    """Whether this interpreter and numpy are the ones the file was made with;
    warns about the looser comparison otherwise."""
    same = pinned["python"] == platform.python_version() and pinned["numpy"] == np.__version__
    if not same:
        warnings.warn(f"golden outputs were made with Python {pinned['python']} and numpy "
                      f"{pinned['numpy']}; comparing numbers to relative {REL} and witnesses "
                      "exactly")
    return same


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL * max(abs(a), abs(b))


def line_mismatch(got: str, want: str, exact: bool) -> str | None:
    """The first line where ``got`` differs from ``want``, or None."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for n, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g == w:
            continue
        g_nums, w_nums = NUMBER.findall(g), NUMBER.findall(w)
        if (exact or NUMBER.sub("#", g) != NUMBER.sub("#", w) or len(g_nums) != len(w_nums)
                or not all(close(float(a), float(b)) for a, b in zip(g_nums, w_nums))):
            return f"line {n}: got {g!r}, pinned {w!r}"
    if len(got_lines) != len(want_lines):
        return f"got {len(got_lines)} lines, pinned {len(want_lines)}"
    return None


def json_mismatch(got, want, exact: bool, path: str = "$") -> str | None:
    """The first JSON path where ``got`` differs from ``want``, or None.
    Numbers inside a witness always compare exactly."""
    exact = exact or path.endswith(".witness")
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            keys = sorted(got) if isinstance(got, dict) else got
            return f"{path}: got keys {keys!r}, pinned {sorted(want)}"
        for key in sorted(want):
            found = json_mismatch(got[key], want[key], exact, f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: got {got!r}, pinned {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = json_mismatch(g, w, exact, f"{path}[{i}]")
            if found:
                return found
        return None
    if (isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool)
            and not exact and math.isfinite(want)):
        return None if close(float(got), want) else f"{path}: got {got!r}, pinned {want!r}"
    if type(got) is not type(want) or got != want:
        return f"{path}: got {got!r}, pinned {want!r}"
    return None


@pytest.mark.parametrize("suite,seed", regen.verify_cases(),
                         ids=[regen.verify_key(*case) for case in regen.verify_cases()])
def test_verify_stdout_is_pinned(suite, seed):
    want = VERIFY["stdout"][regen.verify_key(suite, seed)]
    got = regen.verify_stdout(suite, seed)
    exact = exact_versions(VERIFY)
    if exact and got == want:
        return
    found = line_mismatch(got, want, exact)
    assert found is None, f"verify {suite} --seed {seed}: {found}"


@pytest.mark.parametrize("base,seed", regen.sign_cases(),
                         ids=[regen.sign_key(*case) for case in regen.sign_cases()])
def test_sign_constants_are_pinned(base, seed):
    assert SIGNS["budget"] == regen.SIGN_BUDGET
    want = SIGNS["results"][regen.sign_key(base, seed)]
    got_text = json_text(regen.sign_constants(base, seed))
    # the fresh constants replay independently, also on numpy versions other than the pinned one
    assert sign_errors(base, seed, json.loads(got_text)) == []
    exact = exact_versions(SIGNS)
    if exact and got_text == json_text(want):
        return
    found = json_mismatch(json.loads(got_text), want, exact)
    assert found is None, f"{regen.sign_key(base, seed)}: {found}"


def sign_errors(base: str, seed: int, results: dict) -> list[str]:
    """The independent checker's findings on the three sign constants of one
    case, and any witness whose shape does not fit its constant's ratio."""
    spec = regen.SIGN_BASES[base]
    if spec["name"] == "difference":
        basis = check.difference_basis(spec["dim"], p=spec["p"])
    elif spec["name"] == "block_l2":
        basis = check.block_identity(spec["blocks"], p=spec["p"])
    else:  # the checker cannot draw the seeded perturbation, so it takes the rows
        made = zoo(spec["name"], p=spec["p"], dim=spec["dim"], seed=seed)
        basis = check.CheckBasis("lp", made.vectors, made.duals, p=spec["p"])
    errs = []
    for kind, est in sorted(results.items()):
        name = f"{regen.sign_key(base, seed)}.{kind}"
        errs += check.check_bound(name, kind, est, basis)
        w = est["witness"]
        if kind == "succ":
            fits = set(w["A"]) <= set(w["B"]) and len(w["signs"]) == len(w["B"])
        elif kind == "sign_change":
            fits = len(w["theta"]) == len(w["eps"]) == len(w["A"])
        else:
            fits = len(w["A"]) == len(w["B"]) == len(w["theta"]) == len(w["eps"])
        if not fits:
            errs.append(f"{name}: witness shape {w}")
    return errs


@pytest.mark.parametrize("base,seed", regen.sign_cases(),
                         ids=[regen.sign_key(*case) for case in regen.sign_cases()])
def test_pinned_sign_constants_replay_independently(base, seed):
    results = SIGNS["results"][regen.sign_key(base, seed)]
    assert sorted(results) == sorted(regen.SIGN_CONSTANTS)
    assert sign_errors(base, seed, results) == []


@pytest.mark.parametrize("case,seed", regen.analyze_cases(),
                         ids=[regen.analyze_key(*case) for case in regen.analyze_cases()])
def test_analyze_json_is_pinned(case, seed):
    want = ANALYZE["stdout"][regen.analyze_key(case, seed)]
    got_text = regen.analyze_stdout(case, seed)
    got = json.loads(got_text)
    # the fresh report replays independently, also on numpy versions other than the pinned one
    assert analyze_errors(case, seed, got) == []
    exact = exact_versions(ANALYZE)
    if exact and got_text == json_text(want):
        return
    found = json_mismatch(got, want, exact)
    assert found is None, f"analyze {regen.analyze_key(case, seed)}: {found}"


def analyze_errors(case: str, seed: int, payload: dict) -> list[str]:
    """The independent checker's findings on one ``analyze`` report."""
    if case.startswith("block_l2"):
        return check.check_block_analyze(payload, check.block_identity((4,) * 4))
    d = regen.case_dim(case)
    if case.startswith("lorentz"):
        basis = check.difference_basis(d, kind="lorentz", weight=check.lorentz_weight(d))
    elif case.startswith("perturbed_unit"):
        perturbed = zoo("perturbed_unit", p=0.5, dim=d, seed=seed)
        basis = check.CheckBasis("lp", perturbed.vectors, perturbed.duals)
    else:
        basis = check.difference_basis(d)
    if not case.endswith("-exact"):
        if case.startswith("lorentz"):
            return check.check_analyze(payload, basis)
        return check.check_difference_analyze(payload, basis)
    # check_analyze reads profile bounds as random-mode ones, so an exact
    # profile is replayed against brute force over all subsets, and the
    # constants one by one
    return check.check_exact_profile(payload["profile"], basis, closed_form=False) + [
        err for kind in check.SUP_KINDS
        for err in check.check_bound(f"constants.{kind}", kind, payload["constants"][kind], basis)]


@pytest.mark.parametrize("case,seed", regen.analyze_cases(),
                         ids=[regen.analyze_key(*case) for case in regen.analyze_cases()])
def test_pinned_analyze_replays_independently(case, seed):
    assert analyze_errors(case, seed, ANALYZE["stdout"][regen.analyze_key(case, seed)]) == []


@pytest.mark.parametrize("case,seed", regen.analyze_cases(),
                         ids=[regen.analyze_key(*case) for case in regen.analyze_cases()])
def test_pinned_profiles_flag_almost_greedy(case, seed):
    """A pinned profile is almost greedy exactly when it is democratic and its
    quasi-greedy constant has a certified upper bound."""
    profile = ANALYZE["stdout"][regen.analyze_key(case, seed)]["profile"]
    assert profile["almost_greedy"] == (profile["democratic"]
                                        and profile["quasi_greedy"]["upper_certified"])


@pytest.mark.parametrize("name", ["difference", "perturbed_unit"])
def test_exact_unconditional_replays_independently(name):
    basis = zoo(name, p=0.5, dim=8)
    est = unconditional_constant(basis, mode="exact")
    assert check.check_exact_unconditional(
        est.as_dict(), check.CheckBasis("lp", basis.vectors, basis.duals)) == []


@pytest.mark.parametrize("base,seed", regen.embed_cases(),
                         ids=[regen.embed_key(*case) for case in regen.embed_cases()])
def test_embeddings_are_pinned(base, seed):
    want = EMBED["results"][regen.embed_key(base, seed)]
    got_text = json_text(regen.embeddings(base, seed))
    exact = exact_versions(EMBED)
    if exact and got_text == json_text(want):
        return
    found = json_mismatch(json.loads(got_text), want, exact)
    assert found is None, f"{regen.embed_key(base, seed)}: {found}"


def test_golden_files_are_canonical():
    """The files are exactly what regen.py writes, so byte comparison holds."""
    assert regen.VERIFY_FILE.read_text() == json_text(VERIFY)
    assert regen.SIGN_FILE.read_text() == json_text(SIGNS)
    assert regen.ANALYZE_FILE.read_text() == json_text(ANALYZE)
    assert regen.EMBED_FILE.read_text() == json_text(EMBED)
    assert sorted(VERIFY["stdout"]) == sorted(regen.verify_key(*c) for c in regen.verify_cases())
    assert sorted(SIGNS["results"]) == sorted(regen.sign_key(*c) for c in regen.sign_cases())
    assert sorted(ANALYZE["stdout"]) == \
        sorted(regen.analyze_key(*c) for c in regen.analyze_cases())
    assert sorted(EMBED["results"]) == sorted(regen.embed_key(*c) for c in regen.embed_cases())


def test_mismatch_reports_name_the_place():
    assert line_mismatch("a 1.0\nb 2.0\n", "a 1.0\nb 2.5\n", exact=True) == \
        "line 2: got 'b 2.0', pinned 'b 2.5'"
    assert line_mismatch("a 1.0000000000000002\n", "a 1.0\n", exact=False) is None
    assert line_mismatch("a 1.0000000000000002\n", "a 1.0\n", exact=True) is not None
    want = {"s": {"lower": 2.0, "witness": {"A": [0, 1], "signs": [1.0, -1.0]}}}
    got = {"s": {"lower": 2.0 * (1 + 1e-15), "witness": {"A": [0, 1], "signs": [1.0, 1.0]}}}
    assert json_mismatch(got, want, exact=False) == "$.s.witness.signs[1]: got 1.0, pinned -1.0"
    got["s"]["witness"]["signs"][1] = -1.0
    assert json_mismatch(got, want, exact=False) is None
    assert json_mismatch(got, want, exact=True) == \
        f"$.s.lower: got {2.0 * (1 + 1e-15)!r}, pinned 2.0"
