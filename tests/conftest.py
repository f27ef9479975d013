"""Shared test helpers: a loader for the scripts that are not part of the
package, and the read-only output checker ``perfbench/check.py``, which
imports no ``qgreedy`` and so replays witnesses apart from the program."""

import importlib.util
from pathlib import Path

import pytest

import qgreedy.tasks as tasks_module

ROOT = Path(__file__).resolve().parents[1]


def load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = load_module("perfbench_check", ROOT / "perfbench" / "check.py")


@pytest.fixture
def inline_tasks(monkeypatch):
    """Make :func:`qgreedy.tasks.run_tasks` see one usable CPU, so every task
    runs in the test's own process, where patched functions can record
    their calls."""
    monkeypatch.setattr(tasks_module, "_usable_cpus", lambda: 1)
