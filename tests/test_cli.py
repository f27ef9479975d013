import json
import subprocess
import sys

import numpy as np
import pytest

from qgreedy.cli import main
from qgreedy.verify import CheckResult, run_suite


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZooCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(["zoo", "list"], capsys)
        assert code == 0
        assert out.splitlines() == ["unit", "difference", "block_l2",
                                    "perturbed_unit", "custom_file"]

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
        assert "m_max must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--zoo", "difference", "--budget", "-5"],
        ["verify", "succ", "--budget", "-1"],
    ])
    def test_negative_budget_exit_two(self, capsys, argv):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "configuration error: --budget must be >= 0" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli([
            "analyze", "--zoo", "unit", "--p", "0.5", "--dim", "4", "--max-m", "3",
            "--mode", "exact", "--budget", "20", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"].startswith("democratic")
        assert len(payload["profile"]["rows"]) == 3


class TestDeterminism:
    def _run(self, tmp_path, tag, threads):
        out_dir = tmp_path / tag
        code = main([
            "analyze", "--zoo", "difference", "--p", "0.5", "--dim", "8",
            "--max-m", "4", "--mode", "random", "--budget", "120", "--seed", "7",
            "--threads", str(threads), "--format", "csv", "--out", str(out_dir)])
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def test_byte_identical_across_runs_and_threads(self, tmp_path, capsys):
        first = self._run(tmp_path, "a", threads=1)
        second = self._run(tmp_path, "b", threads=1)
        third = self._run(tmp_path, "c", threads=4)
        assert first == second == third
        assert "democracy_profile.csv" in first

    def test_exact_mode_byte_identical_across_threads(self, tmp_path, capsys):
        outputs = []
        for threads in (1, 4):
            out_dir = tmp_path / f"exact-{threads}"
            code = main([
                "analyze", "--zoo", "perturbed_unit", "--p", "0.5", "--dim", "12",
                "--mode", "exact", "--budget", "60", "--seed", "3",
                "--threads", str(threads), "--format", "csv", "--out", str(out_dir)])
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert outputs[0] == outputs[1]
        assert outputs[0]["democracy_profile.csv"].count(b"\n") >= 12


class TestVerifyCommand:
    @pytest.mark.parametrize("args", [
        ["verify", "lemma32", "--p", "0.5", "--trials", "150", "--seed", "7"],
        ["verify", "lemma33", "--trials", "40", "--seed", "3"],
        ["verify", "lemma34", "--trials", "4000", "--max-m", "6", "--seed", "1"],
        ["verify", "bootstrap", "--max-m", "5000", "--iters", "3"],
        ["verify", "democracy-lp", "--p", "0.5", "--dim", "8"],
        ["verify", "succ", "--p", "0.5", "--dim", "6", "--budget", "60"],
    ])
    def test_suites_pass(self, capsys, args):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("suite,default_text,capped_text", [
        ("lemma34", "(m <= 12)", "(m <= 3)"),
        ("democracy-lp", "for m <= 12", "for m <= 3"),
    ])
    def test_max_m_reaches_suite(self, capsys, suite, default_text, capped_text):
        args = ["verify", suite, "--trials", "500", "--seed", "1"]
        code, default_out, _ = run_cli(args, capsys)
        assert code == 0 and default_text in default_out
        code, capped_out, _ = run_cli(args + ["--max-m", "3"], capsys)
        assert code == 0 and capped_text in capped_out
        assert default_text not in capped_out

    @pytest.mark.parametrize("flag,budget", [([], 300), (["--budget", "57"], 57)])
    def test_budget_reaches_suite_only_when_given(self, capsys, monkeypatch, flag, budget):
        """Without --budget a suite keeps its own default (succ: 300), not
        analyze's 10000."""
        import qgreedy.verify as verify_module

        budgets = []
        real = verify_module.succ_constant

        def recording(basis, budget, seed):
            budgets.append(budget)
            return real(basis, budget=budget, seed=seed)

        monkeypatch.setattr(verify_module, "succ_constant", recording)
        code, _, _ = run_cli(["verify", "succ", *flag], capsys)
        assert code == 0
        assert budgets == [budget, budget]

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


class TestConsoleScript:
    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qgreedy.cli", "zoo", "list"]
            if False else [sys.executable, "-c",
                           "import sys; from qgreedy.cli import main; sys.exit(main(['zoo', 'list']))"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "difference" in proc.stdout
