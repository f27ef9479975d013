"""The task runner: forked and inline runs agree byte for byte, errors keep
their type, message and exit code, and no worker outlives a call."""

import os
import signal

import numpy as np
import pytest

import qgreedy.tasks as tasks_module
from qgreedy.bases import Basis, _difference_matrices, save_basis
from qgreedy.cli import main
from qgreedy.errors import CombinatorialOverflowError
from qgreedy.spaces import LorentzSpace
from qgreedy.tasks import run_tasks


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(tasks_module, "_usable_cpus", lambda: n)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def handoff(worker_action):
    """Two tasks for a run with one worker.  Run by the caller, a task waits
    until the worker has taken the other one; run by the worker, it signals
    that and then calls ``worker_action``.  So each process takes one task."""
    caller = os.getpid()
    taken_r, taken_w = os.pipe()

    def task():
        if os.getpid() == caller:
            os.read(taken_r, 1)
            return "caller"
        os.write(taken_w, b"x")
        return worker_action()

    return {"first": task, "second": task}, (taken_r, taken_w)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, and a 60 s limit on the test: a blocked read or wait
    fails it (the runner then kills and reaps its worker) instead of hanging."""
    use_cpus(monkeypatch, 2)
    if tasks_module._inline(1):
        pytest.skip("tasks run inline here (no os.fork, or other threads alive)")

    def expire(signum, frame):
        raise TimeoutError("the task runner did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def lorentz_file(tmp_path):
    vectors, duals = _difference_matrices(8)
    path = tmp_path / "lorentz.json"
    save_basis(Basis(LorentzSpace(0.5, 2.0 * np.arange(1, 9) - 1.0), vectors, duals), path)
    return path


ANALYZE_CASES = {
    "difference-random": ["--zoo", "difference", "--p", "0.5", "--dim", "12"],
    "difference-exact": ["--zoo", "difference", "--p", "0.5", "--dim", "10", "--mode", "exact"],
    "block_l2": ["--zoo", "block_l2", "--p", "0.5", "--blocks", "4", "3", "4"],
    "lorentz": ["--basis", None],
}


def analyze(monkeypatch, capsys, cpus, argv):
    use_cpus(monkeypatch, cpus)
    code = main(["analyze", *argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", sorted(ANALYZE_CASES))
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_forked_analyze_is_byte_identical_to_inline(case, seed, fmt, monkeypatch, capsys,
                                                    lorentz_file):
    argv = [str(lorentz_file) if a is None else a for a in ANALYZE_CASES[case]]
    argv += ["--budget", "1000", "--format", fmt, "--seed", str(seed)]
    inline = analyze(monkeypatch, capsys, 1, argv)
    forked = analyze(monkeypatch, capsys, 2, argv)
    assert inline[0] == 0
    assert forked == inline
    assert_no_children()


def test_worker_error_reaches_the_cli_unchanged(monkeypatch, capsys):
    # exact mode above the subset limit: the profile's row task raises
    argv = ["--zoo", "difference", "--dim", "24", "--mode", "exact"]
    inline = analyze(monkeypatch, capsys, 1, argv)
    forked = analyze(monkeypatch, capsys, 2, argv)
    assert forked == inline
    assert inline[0] == 2
    assert inline[2].startswith("configuration error: exact enumeration over sets of size")
    assert_no_children()


def test_results_come_back_in_mapping_order(two_cpus):
    tasks, fds = handoff(lambda: "worker")
    try:
        got = run_tasks({"a": lambda: 1, **tasks, "z": lambda: np.arange(3)}, order=["z"])
    finally:
        for fd in fds:
            os.close(fd)
    assert list(got) == ["a", "first", "second", "z"]
    assert sorted([got["first"], got["second"]]) == ["caller", "worker"]
    assert got["a"] == 1 and np.array_equal(got["z"], np.arange(3))
    assert_no_children()


def test_a_worker_exception_keeps_its_type_and_message(two_cpus):
    def fail():
        raise CombinatorialOverflowError("too many subsets")

    tasks, fds = handoff(fail)
    try:
        with pytest.raises(CombinatorialOverflowError, match="^too many subsets$"):
            run_tasks(tasks)
    finally:
        for fd in fds:
            os.close(fd)
    assert_no_children()


def test_the_first_failure_in_mapping_order_wins(two_cpus):
    def fail(message):
        def task():
            raise ValueError(message)
        return task

    # dispatched last, listed first: its error is the one a sequential run raises
    tasks = {"early": fail("early"), "ok": lambda: 1, "late": fail("late")}
    with pytest.raises(ValueError, match="^early$"):
        run_tasks(tasks, order=["late", "ok", "early"])
    assert_no_children()


def test_an_exception_that_cannot_travel_arrives_as_its_message(two_cpus):
    class Local(Exception):  # a local class does not pickle
        pass

    def fail():
        raise Local("no way home")

    tasks, fds = handoff(fail)
    try:
        with pytest.raises(RuntimeError, match="^Local: no way home$"):
            run_tasks(tasks)
    finally:
        for fd in fds:
            os.close(fd)
    assert_no_children()


def test_a_killed_worker_raises_and_does_not_hang(two_cpus):
    tasks, fds = handoff(lambda: os.kill(os.getpid(), signal.SIGKILL))
    try:
        with pytest.raises(RuntimeError, match=f"killed by signal {int(signal.SIGKILL)}"):
            run_tasks(tasks)
    finally:
        for fd in fds:
            os.close(fd)
    assert_no_children()


def test_an_interrupted_call_kills_and_reaps_its_worker(two_cpus):
    # the worker sleeps on its task while the caller's task raises past the runner
    def task():
        if tasks_module._in_worker:
            signal.pause()
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_tasks({"a": task, "b": task})
    assert_no_children()


def test_nested_runs_inside_a_worker_are_inline(two_cpus):
    def nested():
        return run_tasks({"x": os.getpid, "y": os.getpid})

    tasks, fds = handoff(nested)
    try:
        got = run_tasks(tasks)
    finally:
        for fd in fds:
            os.close(fd)
    inner = next(v for v in got.values() if v != "caller")
    assert inner["x"] == inner["y"] != os.getpid()
    assert_no_children()


def test_one_cpu_runs_inline_in_order(monkeypatch):
    use_cpus(monkeypatch, 1)
    ran = []
    got = run_tasks({name: lambda name=name: ran.append(name) or os.getpid() for name in "abc"},
                    order=["c"])
    assert ran == ["a", "b", "c"]
    assert set(got.values()) == {os.getpid()}
