"""Span tracer for the benchmark's traced runs.

``install`` wraps every public function of the ``qgreedy`` modules (and the
``Basis`` constructor) wherever a module binds it, so calls made through
``qgreedy.democracy.ambient_gauge`` and ``qgreedy.spaces.ambient_gauge`` are
both recorded.  Each call leaves one span: id, parent id, function, start,
end and, for the row kernels, the number of rows.  Spans stay in memory and
``Tracer.write`` dumps them at the end.  ``layer_metrics`` turns span files
into the per-layer metrics; a span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import threading
import time
from array import array
from pathlib import Path

# position of the ``mat`` argument of the row kernels, whose rows are counted
ROW_ARG = {"spaces.ambient_gauge_rows": 1, "spaces.lp_gauge_rows": 0}
FIELDS = 6  # span id, parent id, function id, start, end, rows


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("d")
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def _parent(self, tid: int, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # a worker thread's outermost span belongs to the span open in the
        # main thread, which submitted its work and waits for it
        if tid != self._main:
            top = self._stacks.get(self._main, [])[-1:]  # one read: main may pop meanwhile
            if top:
                return top[0]
        return 0

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        row_arg = ROW_ARG.get(name)
        spans, ids, stacks = self.spans, self._ids, self._stacks
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            sid = next(ids)
            parent = self._parent(tid, stack)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows = 0 if row_arg is None else len(
                    args[row_arg] if len(args) > row_arg else kwargs["mat"])
                spans.extend((sid, parent, fid, start, end, rows))

        return traced

    def write(self, path: Path) -> None:
        with open(path.with_suffix(".bin"), "wb") as fh:
            self.spans.tofile(fh)
        path.with_suffix(".json").write_text(json.dumps(self.names))


def install() -> Tracer:
    """Wrap the public functions of every qgreedy module; return the tracer."""
    tracer = Tracer()
    package = importlib.import_module("qgreedy")
    modules = [importlib.import_module(f"qgreedy.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)]
    wrapped: dict[int, object] = {}
    for mod in modules:
        short = mod.__name__.split(".", 1)[1]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = tracer.wrap(f"{short}.{name}", obj)
    for mod in [package, *modules]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
            elif isinstance(obj, dict):  # dispatch tables such as verify.SUITES
                for key, val in list(obj.items()):
                    if id(val) in wrapped:
                        obj[key] = wrapped[id(val)]
    basis = importlib.import_module("qgreedy.bases").Basis
    basis.__post_init__ = tracer.wrap("bases.Basis", basis.__post_init__)
    return tracer


# per-layer metrics: name -> (unit, function names, statistic).  "calls" and
# "self" sum over every span; "outer_*" count only spans whose parent is not
# in the same group, so nested calls inside the group are not counted twice.
GAUGES = ("spaces.ambient_gauge", "spaces.lp_gauge", "spaces.ambient_gauge_rows",
          "spaces.lp_gauge_rows")
SCALAR_GAUGES = GAUGES[:2]
BUILD = ("bases.zoo", "bases.load_basis", "bases.Basis")
LAYER_METRICS = {
    "spaces.gauge_calls": ("count", GAUGES, "outer_scalar_calls"),
    "spaces.gauge_evals": ("count", GAUGES, "outer_evals"),
    "spaces.gauge_s": ("s", GAUGES, "self"),
    "spaces.validate_calls": ("count", ("spaces.as_vector",), "calls"),
    "spaces.validate_s": ("s", ("spaces.as_vector",), "self"),
    "lorentz.gauge_calls": ("count", ("lorentz.lorentz_gauge",), "calls"),
    "lorentz.primitive_weight_calls": ("count", ("lorentz.primitive_weight",), "calls"),
    "lorentz.s": ("s", "lorentz.", "self"),
    "numerics.cumsum_calls": ("count", ("numerics.compensated_cumsum",), "calls"),
    "numerics.s": ("s", "numerics.", "self"),
    "rng.substreams": ("count", ("rng.substream",), "calls"),
    "rng.substream_s": ("s", ("rng.substream",), "self"),
    "sampling.draws": ("count", "sampling.", "calls"),
    "sampling.s": ("s", "sampling.", "self"),
    "bases.build_s": ("s", BUILD, "outer_total"),
    "bases.transform_calls": ("count", ("bases.coefficient_transform", "bases.synthesize"), "calls"),
    "bases.unconditional_s": ("s", ("bases.unconditional_constant",), "self"),
    "greedy.quasi_greedy_calls": ("count", ("greedy.quasi_greedy_constant",), "calls"),
    "greedy.operator_s": ("s", ("greedy.quasi_greedy_constant", "greedy.truncation_constant"), "self"),
    "greedy.conditionality_s": ("s", ("greedy.conditionality_growth_profile",), "self"),
    "democracy.exact_calls": ("count", ("democracy.upper_democracy", "democracy.lower_democracy"), "calls"),
    "democracy.exact_s": ("s", ("democracy.upper_democracy", "democracy.lower_democracy"), "self"),
    "democracy.profile_s": ("s", ("democracy.democracy_profile",), "self"),
    "democracy.sign_s": ("s", ("democracy.succ_constant", "democracy.sign_change_constant",
                               "democracy.super_democracy_constant"), "self"),
    "democracy.indicator_calls": ("count", ("democracy.indicator_gauge",), "calls"),
    "strongly_absolute.check_calls": ("count", ("strongly_absolute.strongly_absolute_check",), "calls"),
    "strongly_absolute.s": ("s", "strongly_absolute.", "self"),
    "bootstrap.s": ("s", "bootstrap.", "self"),
    "reports.s": ("s", "reports.", "self"),
    "verify.s": ("s", "verify.", "self"),
    "cli.s": ("s", "cli.", "self"),
}


def _self_times(spans, parent_pos):
    """Duration minus the union of the child intervals inside it."""
    import numpy as np

    start, end = spans[:, 3], spans[:, 4]
    dur = end - start
    has = parent_pos >= 0
    covered = np.bincount(parent_pos[has], weights=dur[has], minlength=len(spans))
    # children of one parent overlap only when worker threads ran them; for
    # those parents replace the plain sum by the length of the union
    kids = np.flatnonzero(has)
    kids = kids[np.lexsort((start[kids], parent_pos[kids]))]
    same = parent_pos[kids[1:]] == parent_pos[kids[:-1]]
    overlap = same & (start[kids[1:]] < end[kids[:-1]])
    for parent in np.unique(parent_pos[kids[1:][overlap]]):
        union, reach = 0.0, -np.inf
        for k in kids[parent_pos[kids] == parent]:
            lo = max(start[k], reach)
            if end[k] > lo:
                union += end[k] - lo
            reach = max(reach, end[k])
        covered[parent] = union
    return dur - covered


def layer_metrics(trace_files) -> dict[str, dict]:
    """Per-layer metrics summed over span files (paths without suffix)."""
    import numpy as np

    totals = dict.fromkeys(LAYER_METRICS, 0.0)
    for path in trace_files:
        names = json.loads(Path(path).with_suffix(".json").read_text())
        spans = np.fromfile(Path(path).with_suffix(".bin")).reshape(-1, FIELDS)
        sid = spans[:, 0].astype(np.int64)
        parent = spans[:, 1].astype(np.int64)
        fid = spans[:, 2].astype(np.int64)
        pos = np.full(int(sid.max()) + 1 if len(sid) else 1, -1, dtype=np.int64)
        pos[sid] = np.arange(len(sid))
        parent_pos = np.where(parent > 0, pos[parent], -1)
        self_time = _self_times(spans, parent_pos)
        total = spans[:, 4] - spans[:, 3]
        parent_fid = np.where(parent_pos >= 0, fid[parent_pos], -1)
        for metric, (_, group, stat) in LAYER_METRICS.items():
            if isinstance(group, str):  # a whole module, by name prefix
                ids = [i for i, n in enumerate(names) if n.startswith(group)]
            else:
                ids = [i for i, n in enumerate(names) if n in group]
            mask = np.isin(fid, ids)
            outer = mask & ~np.isin(parent_fid, ids)
            scalar = np.isin(fid, [i for i in ids if names[i] in SCALAR_GAUGES])
            if stat == "calls":
                totals[metric] += int(mask.sum())
            elif stat == "self":
                totals[metric] += float(self_time[mask].sum())
            elif stat == "outer_total":
                totals[metric] += float(total[outer].sum())
            elif stat == "outer_scalar_calls":
                totals[metric] += int((outer & scalar).sum())
            else:  # outer_evals: one per scalar call, one per row of a row call
                totals[metric] += int((outer & scalar).sum() + spans[outer & ~scalar, 5].sum())
    return {name: {"value": int(v) if LAYER_METRICS[name][0] == "count" else v,
                   "unit": LAYER_METRICS[name][0]} for name, v in totals.items()}
