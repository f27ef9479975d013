"""Run independent tasks on the usable CPUs: the caller and forked workers.

:func:`run_tasks` takes named zero-argument callables whose results depend
on nothing but their own arguments (every estimator draws from keyed
substreams), so where a task runs cannot change what it returns.  Each
process takes the next task from one shared pipe, in the given order, until
the pipe is empty; a worker sends its results back pickled in one piece and
ends with ``os._exit``.  A pickled float keeps its bits, so a report is the
same bytes whichever process computed each part.

Workers are forked, not spawned: a fork starts with the caller's imported
modules and built bases, where a spawned interpreter would import numpy and
the package again (about as long as the tasks themselves on small bases).
So the tasks run inline, in their order, when one CPU is usable, when the
platform has no ``os.fork``, inside a worker (``_in_worker`` is set only in
a forked child), and while other Python threads are alive, since a forked
child holds only the forking thread and a lock another thread held stays
locked in it.
"""

from __future__ import annotations

import gc
import os
import pickle
import threading
from collections.abc import Callable, Iterable, Mapping
from typing import Any

_in_worker = False
_INDEX = 4  # bytes per task index in the queue pipe


def _usable_cpus() -> int:
    """The CPUs this process may run on (a seam: tests set it to force a path)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _inline(workers: int) -> bool:
    """Whether the tasks run in this process, in their order."""
    return (workers < 1 or _in_worker or not hasattr(os, "fork")
            or threading.active_count() > 1)


def run_tasks(tasks: Mapping[str, Callable[[], Any]],
              order: Iterable[str] = ()) -> dict[str, Any]:
    """Every task's result, by name in the order of ``tasks``.

    The processes take the tasks named in ``order`` first, in that order,
    then the rest in mapping order.  When tasks fail, the exception of the
    first failing one in mapping order is raised, as a sequential run in that
    order would raise it; a worker that ends without sending its results
    raises :class:`RuntimeError`.  Every worker is reaped before this
    returns or raises, and killed first when the call ends early.
    """
    names = list(tasks)
    workers = min(len(names), _usable_cpus()) - 1
    if _inline(workers):
        return {name: task() for name, task in tasks.items()}
    import mmap  # the forked path's modules load only when it runs
    import signal

    import numpy.random  # noqa: F401  (every task draws from it: load it once, before the fork)
    first = [names.index(name) for name in order if name in tasks]
    queue = first + [i for i in range(len(names)) if i not in first]
    calls = [tasks[name] for name in names]
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:  # whole before any fork, so every read takes one index
        fh.write(b"".join(i.to_bytes(_INDEX, "little") for i in queue))
    failed = mmap.mmap(-1, len(names))  # shared: byte i is set once task i has failed
    results: dict[int, Any] = {}  # worker pid -> read end of its result pipe
    payloads: dict[int, bytes] = {}
    statuses: dict[int, int] = {}
    gc.freeze()  # the workers' collections leave the inherited objects (and their pages) alone
    try:
        for _ in range(workers):
            result_read, result_write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(calls, read_end, failed, result_write)
            os.close(result_write)
            results[pid] = os.fdopen(result_read, "rb")
        outcomes = _take(calls, read_end, failed)
        payloads = {pid: fh.read() for pid, fh in results.items()}
    finally:
        os.close(read_end)
        for pid, fh in results.items():
            fh.close()
            if pid not in payloads:  # the call ends early: stop the worker before reaping it
                os.kill(pid, signal.SIGKILL)
            statuses[pid] = os.waitpid(pid, 0)[1]
        gc.unfreeze()
        failed.close()
    for pid, payload in payloads.items():
        outcomes.update(_outcomes(pid, payload, statuses[pid]))
    for i in range(len(names)):  # a task is skipped only after an earlier one failed
        ok, value = outcomes[i]
        if not ok:
            raise value
    return {name: outcomes[i][1] for i, name in enumerate(names)}


def _take(calls: list, queue: int, failed) -> dict[int, tuple[bool, Any]]:
    """Run the tasks this process takes from the queue: (True, result) or
    (False, exception) by index.  A task after a failed one in list order is
    skipped, since the failure decides the outcome."""
    outcomes: dict[int, tuple[bool, Any]] = {}
    while index := os.read(queue, _INDEX):
        i = int.from_bytes(index, "little")
        if failed.find(b"\x01", 0, i) >= 0:
            continue
        try:
            outcomes[i] = (True, calls[i]())
        except Exception as exc:
            failed[i] = 1
            outcomes[i] = (False, exc)
    return outcomes


def _work(calls: list, queue: int, failed, result_write: int) -> None:
    """A worker's whole life: take tasks, send the outcomes, exit."""
    global _in_worker
    _in_worker = True
    code = 1
    try:
        outcomes = _take(calls, queue, failed)
        # an exception that would not survive the trip travels as its type and message
        payload = pickle.dumps({i: (ok, value if ok or _portable(value) else RuntimeError(
            f"{type(value).__name__}: {value}")) for i, (ok, value) in outcomes.items()})
        with os.fdopen(result_write, "wb") as fh:
            fh.write(payload)
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
        raise  # os._exit below ends the worker all the same
    finally:
        os._exit(code)


def _portable(exc: Exception) -> bool:
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return False
    return True


def _outcomes(pid: int, payload: bytes, status: int) -> dict[int, tuple[bool, Any]]:
    """A reaped worker's outcomes, from what it sent and its wait status."""
    if status == 0 and payload:
        return pickle.loads(payload)
    if os.WIFSIGNALED(status):
        end = f"was killed by signal {os.WTERMSIG(status)}"
    else:
        end = f"exited with status {os.waitstatus_to_exitcode(status)}"
    raise RuntimeError(f"a task worker (pid {pid}) {end} before sending its results")
