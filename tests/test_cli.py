import inspect
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgreedy
import qgreedy.strongly_absolute as strongly_absolute_module
from qgreedy.bases import zoo
from qgreedy.cli import VERIFY_FLAG_TYPES, main
from qgreedy.democracy import democracy_profile
from qgreedy.reports import json_text
from qgreedy.verify import SUITES, CheckResult


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZooCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(["zoo", "list"], capsys)
        assert code == 0
        assert out.splitlines() == ["unit", "difference", "block_l2", "perturbed_unit"]

    def test_emit_and_reload(self, tmp_path, capsys):
        target = tmp_path / "basis.json"
        code, _, err = run_cli(["zoo", "emit", "--zoo", "difference", "--p", "0.5",
                                "--dim", "4", "--out", str(target)], capsys)
        assert code == 0
        data = json.loads(target.read_text())
        assert data["ambient"] == {"kind": "lp", "p": 0.5, "dim": 4}
        assert len(data["vectors"]) == 4


class TestBootstrapCommand:
    def test_stage_one_values(self, capsys):
        code, out, _ = run_cli(["bootstrap", "--max-m", "4", "--iters", "1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,stage0,stage1,stage1_over_m"
        stage1 = [float(line.split(",")[2]) for line in lines[1:]]
        assert stage1 == pytest.approx([1.0, 2**0.5, 3**0.5, 2.0])

    def test_iters_zero(self, capsys):
        code, out, _ = run_cli(["bootstrap", "--max-m", "3", "--iters", "0"], capsys)
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) == 1.0

    def test_second_stage_value(self, capsys):
        code, out, _ = run_cli(["bootstrap", "--max-m", "2", "--iters", "2"], capsys)
        assert code == 0
        last = out.strip().split("\n")[-1].split(",")
        assert float(last[3]) == pytest.approx(2 / 1.5**0.5)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["bootstrap", "--max-m", "3", "--iters", "1", "--format", "json"],
                               capsys)
        assert code == 0
        stages = json.loads(out)["stages"]
        assert stages[1]["values"] == pytest.approx([1.0, 2**0.5, 3**0.5])


class TestAnalyzeCommand:
    def test_unit_exact_table(self, capsys):
        code, out, err = run_cli([
            "analyze", "--zoo", "unit", "--p", "0.5", "--dim", "6", "--max-m", "5",
            "--mode", "exact", "--budget", "50", "--seed", "1"], capsys)
        assert code == 0
        assert "phi_u=25" in out
        assert "democratic" in out

    def test_difference_verdict_and_conditionality(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        code, _, err = run_cli([
            "analyze", "--zoo", "difference", "--p", "0.5", "--dim", "8",
            "--max-m", "4", "--mode", "exact", "--budget", "50", "--seed", "0",
            "--out", str(out_dir)], capsys)
        assert code == 0
        assert "not democratic" in err
        profile = (out_dir / "democracy_profile.csv").read_text()
        assert profile.startswith("m,phi_u_lo")
        cond = (out_dir / "conditionality.csv").read_text().strip().split("\n")
        # lower bounds dominate (2m)^(1/p)
        for line in cond[1:]:
            parts = line.split(",")
            m, lower = int(parts[0]), float(parts[1])
            assert lower >= (2 * m) ** 2 - 1e-9

    @pytest.mark.parametrize("basis", [["--zoo", "unit", "--dim", "1"],
                                       ["--zoo", "block_l2", "--blocks", "1"]])
    def test_one_vector_basis(self, basis, capsys):
        # no nested pair (A, B) with A a proper subset exists, and no slope can be fitted
        code, out, err = run_cli(["analyze", *basis, "--budget", "50"], capsys)
        assert code == 0
        assert "verdict: not democratic: no slope could be fitted" in out + err

    def test_bad_duals_exit_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        duals = np.eye(3)
        duals[2, 0] = 5e-3
        bad.write_text(json.dumps({
            "ambient": {"kind": "lp", "p": 0.5, "dim": 3},
            "vectors": np.eye(3).tolist(),
            "duals": duals.tolist(),
        }))
        code, _, err = run_cli(["analyze", "--basis", str(bad)], capsys)
        assert code == 3
        assert "(n=2, k=0)" in err

    def test_missing_basis_exit_two(self, capsys):
        code, _, err = run_cli(["analyze", "--p", "0.5"], capsys)
        assert code == 2
        assert "configuration error" in err

    def test_unknown_flag_exit_two(self, capsys):
        assert main(["analyze", "--nope"]) == 2

    @pytest.mark.parametrize("argv", [
        ["analyze", "--zoo", "difference", "--max-m", "0"],
        ["analyze", "--zoo", "difference", "--max-m", "-3"],
        ["verify", "democracy-lp", "--max-m", "0"],
    ])
    def test_nonpositive_max_m_exit_two(self, capsys, argv):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "argument --max-m: must be >= " in err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--zoo", "difference", "--budget", "-5"],
        ["verify", "succ", "--budget", "-1"],
    ])
    def test_negative_budget_exit_two(self, capsys, argv):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "argument --budget: must be >= 0, got " in err

    def test_occupancy_past_float_range_exit_zero(self, capsys):
        code, out, _ = run_cli(["analyze", "--zoo", "block_l2", "--p", "0.001", "--blocks", "4",
                                "4", "4", "--mode", "exact", "--budget", "50", "--format",
                                "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert "leave the float range" in payload["verdict"]
        assert payload["profile"]["rows"][-1]["phi_u"]["upper"] == "inf"

    def test_json_format(self, capsys):
        code, out, _ = run_cli([
            "analyze", "--zoo", "unit", "--p", "0.5", "--dim", "4", "--max-m", "3",
            "--mode", "exact", "--budget", "20", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"].startswith("democratic")
        assert len(payload["profile"]["rows"]) == 3

    @pytest.mark.parametrize("fmt,names", [
        ("table", ["analysis.txt", "conditionality.csv", "constants.csv",
                   "democracy_profile.csv"]),
        ("csv", ["conditionality.csv", "constants.csv", "democracy_profile.csv"]),
        ("json", ["analysis.json"]),
    ])
    def test_out_file_set(self, capsys, tmp_path, fmt, names):
        code, out, _ = run_cli(["analyze", "--zoo", "difference", "--dim", "5", "--budget", "30",
                                "--format", fmt, "--out", str(tmp_path / "report")], capsys)
        assert code == 0
        assert out == ""
        assert sorted(p.name for p in (tmp_path / "report").iterdir()) == names

    @pytest.mark.parametrize("zoo_name", ["difference", "unit"])
    def test_overflowing_exponent_reports(self, capsys, zoo_name):
        # at p = 0.001 the r-convexity bound m^(1/p) and (1 + log m)^(1/p) leave the
        # float range; the bound reports as uncertified and the run still succeeds
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        for budget in ("0", "10"):
            code, out, _ = run_cli(["analyze", "--zoo", zoo_name, "--p", "0.001", "--dim", "4",
                                    "--budget", budget, "--format", "json"], capsys)
            assert code == 0
            report = json.loads(out, parse_constant=reject)
            for row in report["profile"]["rows"][2:]:  # 3^1000 overflows
                assert row["phi_u"]["upper"] == "inf" and not row["phi_u"]["upper_certified"]
            for row in report["conditionality"]:
                assert row["upper_certified"] == (row["upper"] != "inf")
            # the flat vector's gauges overflow, yet every constant keeps a witness of >= 1
            for est in report["constants"].values():
                assert est["lower"] == "inf" or est["lower"] >= 1.0
                assert est["witness"] is not None
            assert "m^nan" not in report["verdict"]

    @pytest.mark.parametrize("zoo_name", ["difference", "unit"])
    def test_overflowing_exponent_warns_nothing(self, zoo_name):
        # the overflows are reported in the output, so standard error has the verdict alone
        proc = subprocess.run([sys.executable, "-m", "qgreedy.cli", "analyze", "--zoo", zoo_name,
                               "--p", "0.001", "--dim", "4", "--budget", "10"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        verdict = next(line for line in proc.stdout.splitlines() if line.startswith("verdict: "))
        assert proc.stderr == verdict + "\n"

    def test_json_without_a_slope_is_strict(self, capsys):
        # a one-vector basis fits no slope; its NaN slopes and residuals are null
        code, out, _ = run_cli(["analyze", "--zoo", "unit", "--dim", "1", "--format", "json"],
                               capsys)
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        profile = json.loads(out, parse_constant=reject)["profile"]
        for key in ("slope_u", "slope_l", "slope_residual_u", "slope_residual_l"):
            assert profile[key] is None


class TestDeterminism:
    def _run(self, tmp_path, tag):
        out_dir = tmp_path / tag
        code = main([
            "analyze", "--zoo", "difference", "--p", "0.5", "--dim", "8",
            "--max-m", "4", "--mode", "random", "--budget", "120", "--seed", "7",
            "--format", "csv", "--out", str(out_dir)])
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        first = self._run(tmp_path, "a")
        second = self._run(tmp_path, "b")
        third = self._run(tmp_path, "c")
        assert first == second == third
        assert "democracy_profile.csv" in first

    def test_exact_mode_byte_identical_across_runs(self, tmp_path, capsys):
        outputs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"exact-{tag}"
            code = main([
                "analyze", "--zoo", "perturbed_unit", "--p", "0.5", "--dim", "12",
                "--mode", "exact", "--budget", "60", "--seed", "3",
                "--format", "csv", "--out", str(out_dir)])
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert outputs[0] == outputs[1]
        assert outputs[0]["democracy_profile.csv"].count(b"\n") >= 12

    @pytest.mark.parametrize("mode", ["exact", "random"])
    def test_profile_threads_argument_changes_nothing(self, mode):
        basis = zoo("perturbed_unit", p=0.5, dim=8, seed=2)
        one, four = (json_text(democracy_profile(basis, m_max=4, mode=mode, budget=80, seed=5,
                                                 threads=threads)) for threads in (1, 4))
        assert one == four


class TestVerifyCommand:
    @pytest.mark.parametrize("args", [
        ["verify", "lemma32", "--p", "0.5", "--trials", "150", "--seed", "7"],
        ["verify", "lemma33", "--trials", "40", "--seed", "3"],
        ["verify", "lemma34", "--trials", "4000", "--max-m", "6", "--seed", "1"],
        ["verify", "bootstrap", "--max-m", "5000", "--seed", "1"],
        ["verify", "democracy-lp", "--p", "0.5", "--dim", "8"],
        ["verify", "succ", "--p", "0.5", "--dim", "6", "--budget", "60"],
    ])
    def test_suites_pass(self, capsys, args):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_lemma33_without_pairings_exits_two(self, monkeypatch, capsys):
        """Acceptable functionals grow rare with the dimension; when a family's
        rejection rounds run out, the command names --dim and exits 2."""
        monkeypatch.setattr(strongly_absolute_module, "_PAIRING_ROUNDS", 3)
        code, out, err = run_cli(["verify", "lemma33", "--dim", "400", "--trials", "2"], capsys)
        assert code == 2
        assert out == ""
        assert "--dim" in err and "in 3 rounds at dimension 400" in err

    def test_bootstrap_one_term_passes(self, capsys):
        # a one-term ratio has no increment, so it is non-increasing
        code, out, _ = run_cli(["verify", "bootstrap", "--max-m", "1"], capsys)
        assert code == 0
        assert out.count("[PASS]") == 3
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("suite,default_text,capped_text", [
        ("lemma34", "(m <= 12)", "(m <= 3)"),
        ("democracy-lp", "for m <= 12", "for m <= 3"),
    ])
    def test_max_m_reaches_suite(self, capsys, suite, default_text, capped_text):
        args = ["verify", suite, "--seed", "1"]
        if suite == "lemma34":
            args += ["--trials", "500"]
        code, default_out, _ = run_cli(args, capsys)
        assert code == 0 and default_text in default_out
        code, capped_out, _ = run_cli(args + ["--max-m", "3"], capsys)
        assert code == 0 and capped_text in capped_out
        assert default_text not in capped_out

    @pytest.mark.parametrize("flag,budget", [([], 300), (["--budget", "57"], 57)])
    def test_budget_reaches_suite_only_when_given(self, capsys, monkeypatch, flag, budget):
        """Without --budget a suite keeps its own default (succ: 300), not
        analyze's 10000.  The suite reads succ_constant from its module when it runs."""
        import qgreedy.democracy as democracy_module

        budgets = []
        real = democracy_module.succ_constant

        def recording(basis, budget, seed):
            budgets.append(budget)
            return real(basis, budget=budget, seed=seed)

        monkeypatch.setattr(democracy_module, "succ_constant", recording)
        code, _, _ = run_cli(["verify", "succ", *flag], capsys)
        assert code == 0
        assert budgets == [budget, budget]

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_every_suite_parameter_is_a_flag(self, capsys, monkeypatch, suite):
        """Each parameter of a suite is filled by its own flag and by nothing
        else, so the flags and the suite signatures cannot drift apart."""
        import qgreedy.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "run_suite",
                            lambda name, **kwargs: calls.append((name, kwargs)) or [])
        params = list(inspect.signature(SUITES[suite]).parameters)
        for param in params:
            assert main(["verify", suite, "--" + param.replace("_", "-"), "3"]) == 0
        assert calls == [(suite, {param: 3}) for param in params]

    def test_every_verify_flag_is_a_suite_parameter(self):
        declared = {param for suite in SUITES.values()
                    for param in inspect.signature(suite).parameters}
        assert declared == set(VERIFY_FLAG_TYPES)

    @pytest.mark.parametrize("argv,flag", [
        (["verify", "lemma32", "--trials", "-5"], "--trials"),
        (["verify", "lemma33", "--trials", "0"], "--trials"),
        (["verify", "succ", "--max-m", "0"], "--max-m"),
        (["verify", "lemma34", "--max-m", "0"], "--max-m"),
        (["verify", "lemma34", "--max-m", "-1"], "--max-m"),
        (["verify", "lemma32", "--dim", "0"], "--dim"),
        (["verify", "bootstrap", "--p", "0.3"], "--p"),
        (["verify", "democracy-lp", "--trials", "3"], "--trials"),
        (["verify", "lemma32", "--format", "json"], "--format"),
        (["bootstrap", "--seed", "3"], "--seed"),
        (["bootstrap", "--budget", "5"], "--budget"),
        (["bootstrap", "--format", "table"], "--format"),
        (["analyze", "--zoo", "difference", "--blocks", "4", "4"], "--blocks"),
        (["analyze", "--zoo", "difference", "--basis", "f.json"], "--basis"),
        (["verify", "bootstrap", "--iters", "3"], "--iters"),
        (["analyze", "--basis", "f.json", "--p", "0.9"], "--p"),
        (["analyze", "--basis", "f.json", "--dim", "4"], "--dim"),
        (["zoo", "emit", "--basis", "f.json", "--p", "0.9", "--out", "g.json"], "--p"),
        (["zoo", "emit", "--basis", "f.json", "--dim", "4", "--out", "g.json"], "--dim"),
        (["analyze", "--zoo", "block_l2", "--blocks", "4", "4", "--dim", "8"], "--dim"),
        (["zoo", "emit", "--zoo", "block_l2", "--blocks", "4", "--dim", "8", "--out", "g.json"],
         "--dim"),
        (["analyze", "--zoo", "custom_file"], "custom_file"),
        (["zoo", "emit", "--zoo", "custom_file", "--out", "g.json"], "custom_file"),
        (["verify", "lemma33", "--C", "nan"], "C must be finite and exceed 1, got nan"),
        (["verify", "lemma33", "--C", "inf"], "C must be finite and exceed 1, got inf"),
        (["verify", "succ", "--dim", "1"], "argument --dim: must be >= 2, got 1"),
        (["verify", "democracy-lp", "--dim", "1"], "argument --dim: must be >= 3, got 1"),
        (["verify", "democracy-lp", "--dim", "2"], "argument --dim: must be >= 3, got 2"),
        (["verify", "democracy-lp", "--max-m", "1"], "argument --max-m: must be >= 3, got 1"),
        (["verify", "democracy-lp", "--max-m", "2"], "argument --max-m: must be >= 3, got 2"),
        (["analyze", "--zoo", "unit", "--threads", "2"], "--threads"),
        (["verify", "lemma32", "--threads", "2"], "--threads"),
        (["bootstrap", "--threads", "2"], "--threads"),
        (["verify", "democracy-lp", "--budget", "500"], "--budget"),
        (["bootstrap", "--max-m", "0"], "argument --max-m: must be >= 1, got 0"),
        (["bootstrap", "--iters", "-1"], "argument --iters: must be >= 0, got -1"),
        (["analyze", "--zoo", "block_l2"],
         "configuration error: --blocks is required for the block_l2 basis"),
        (["zoo", "emit", "--zoo", "block_l2", "--out", "g.json"],
         "configuration error: --blocks is required for the block_l2 basis"),
    ])
    def test_unread_or_invalid_flag_exit_two(self, capsys, argv, flag):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert flag in err
        assert out == ""

    @pytest.mark.parametrize("suite", ["lemma32", "lemma33"])
    def test_domination_constant_overflow_exit_two(self, capsys, suite):
        # A(eps) = eps^(-p/(1-p)) exceeds the float range at eps < 1 as p -> 1
        code, out, err = run_cli(["verify", suite, "--p", "0.99999", "--trials", "5"], capsys)
        assert code == 2
        assert "exceeds the float range at p = 0.99999" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "succ", "--dim", "2", "--budget", "40"],
        ["verify", "democracy-lp", "--dim", "3", "--max-m", "3"],
    ])
    def test_smallest_checkable_configuration_passes(self, capsys, argv):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("seed", range(5))
    def test_lemma34_one_vector_passes(self, capsys, seed):
        # one vector has one gauge for every sign, so only rounding separates
        # the Monte Carlo mean from the exact one
        code, out, _ = run_cli(["verify", "lemma34", "--max-m", "1", "--seed", str(seed)], capsys)
        assert code == 0
        assert out.count("[PASS]") == 2

    def test_unknown_suite_exit_two(self, capsys):
        assert main(["verify", "nonsense"]) == 2

    def test_failing_check_sets_exit_one(self, capsys, monkeypatch):
        import qgreedy.cli as cli_mod

        def fake_suite(name, **kwargs):
            return [CheckResult(name="forced failure", passed=False, detail="x",
                                witness={"reason": "forced"})]

        monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
        code, out, err = run_cli(["verify", "bootstrap"], capsys)
        assert code == 1
        assert "[FAIL]" in out
        assert "witness" in err


def _env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(qgreedy.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def _python(*args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_env(), capture_output=True, **kwargs)


# the two ways a process runs the CLI: ``python -m`` (as perfbench/run.py
# launches it) and the function the ``qgreedy`` console script calls
ENTRIES = [pytest.param(["-m", "qgreedy.cli"], id="module"),
           pytest.param(["-c", "import sys; from qgreedy.cli import entry; sys.exit(entry())"],
                        id="script")]


class TestConsoleScript:
    def test_module_entrypoint(self):
        for entry in (["-m", "qgreedy.cli"],  # the form perfbench/run.py launches
                      ["-c", "import sys; from qgreedy.cli import main; sys.exit(main(sys.argv[1:]))"]):
            proc = subprocess.run([sys.executable, *entry, "zoo", "list"],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, entry
            assert "difference" in proc.stdout

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_exit_codes(self, entry, tmp_path):
        bad = tmp_path / "bad.json"  # the basis of test_bad_duals_exit_three
        duals = np.eye(3)
        duals[2, 0] = 5e-3
        bad.write_text(json.dumps({"ambient": {"kind": "lp", "p": 0.5, "dim": 3},
                                   "vectors": np.eye(3).tolist(), "duals": duals.tolist()}))
        for code, argv in ((0, ["zoo", "list"]),
                           # phi(m) = m^1000 overflows, so the closed form cannot be matched
                           (1, ["verify", "democracy-lp", "--p", "0.001"]),
                           (2, ["verify", "nonsense"]),
                           (3, ["analyze", "--basis", str(bad)])):
            assert _python(*entry, *argv).returncode == code, argv

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_piped_output_matches_in_process_main(self, entry, capsys):
        proc = _python(*entry, "bootstrap", "--max-m", "100000")
        assert proc.returncode == 0
        assert main(["bootstrap", "--max-m", "100000"]) == 0
        assert proc.stdout == capsys.readouterr().out.encode("utf-8")

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_closed_pipe_ends_the_process_quietly(self):
        """A reader that stops early (``qgreedy bootstrap | head -1``) ends the
        command by SIGPIPE, not with a configuration error."""
        proc = subprocess.Popen([sys.executable, "-m", "qgreedy.cli", "bootstrap",
                                 "--max-m", "200000"], env=_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"m,stage0,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == -signal.SIGPIPE
        assert b"configuration error" not in err


class TestLazyImports:
    """Each command loads only its own modules; the package loads none."""

    def _loaded(self, *argv: str) -> set[str]:
        code = """
import json, sys
from qgreedy.cli import main
argv = sys.argv[1:]
if argv:
    main(argv)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("qgreedy."))))
"""
        proc = _python("-c", code, *argv, text=True, check=True)
        return {name.split(".", 1)[1] for name in json.loads(proc.stdout.splitlines()[-1])}

    def test_import_qgreedy_loads_no_submodule(self):
        code = "import json, sys, qgreedy; print(json.dumps([m for m in sys.modules if m.startswith('qgreedy.')]))"
        assert json.loads(_python("-c", code, text=True, check=True).stdout) == []

    @pytest.mark.parametrize("argv,present,absent", [
        *(pytest.param(["verify", suite, *flags], "strongly_absolute",
                       {"democracy", "greedy", "tasks", "bootstrap"}, id=suite)
          for suite, flags in (("lemma32", ["--trials", "10"]), ("lemma33", ["--trials", "10"]),
                               ("lemma34", ["--trials", "10", "--max-m", "3"]))),
        pytest.param(["verify", "bootstrap", "--max-m", "1000"], "bootstrap",
                     {"democracy", "strongly_absolute", "greedy"}, id="bootstrap"),
        pytest.param(["analyze", "--zoo", "difference", "--dim", "6", "--budget", "50"],
                     "democracy", {"strongly_absolute", "bootstrap", "embeddings"}, id="analyze"),
    ])
    def test_command_loads_only_its_modules(self, argv, present, absent):
        loaded = self._loaded(*argv)
        assert present in loaded
        assert not loaded & absent, sorted(loaded & absent)

    def test_every_public_name_resolves(self):
        namespace: dict = {}
        exec("from qgreedy import *", namespace)
        for name in qgreedy.__all__:
            assert namespace[name] is getattr(qgreedy, name), name
        assert set(qgreedy.__all__) <= set(dir(qgreedy))
        with pytest.raises(AttributeError):
            qgreedy.no_such_name
