"""Deterministic report emission: CSV and JSON with stable formatting.

CSV uses '.' decimals, ',' separators, LF line endings, and always carries a
header row.  Floats are rendered with shortest round-trip repr so identical
runs produce byte-identical files.  The improvement chain's CSV and JSON
come as streams of pieces of ``_CSV_ROWS`` rows (values, in the JSON), so
that no stage is held whole.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from typing import Any, Iterator

import numpy as np

from .bootstrap import _stage_blocks
from .democracy import DemocracyProfile
from .embeddings import EmbeddingReport
from .greedy import ConditionalityRow

__all__ = [
    "fmt",
    "csv_text",
    "profile_csv",
    "conditionality_csv",
    "chain_csv",
    "chain_json",
    "companion_csv",
    "to_jsonable",
    "json_text",
]

_CSV_ROWS = 1 << 12  # rows per chain CSV piece: their Python floats and strings take ~1.6 MB


def fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    if isinstance(value, (np.floating,)):
        return fmt(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def _csv_lines(rows) -> str:
    return "".join(",".join(fmt(x) for x in row) + "\n" for row in rows)


def csv_text(header: list[str], rows: list[list]) -> str:
    return ",".join(header) + "\n" + _csv_lines(rows)


def _witness_set(witness: dict | None) -> str:
    if not witness or "set" not in witness:
        return ""
    return ";".join(str(int(i)) for i in witness["set"])


def profile_csv(profile: DemocracyProfile) -> str:
    header = ["m", "phi_u_lo", "phi_u_hi", "phi_l_lo", "phi_l_hi", "witness_u", "witness_l"]
    rows = []
    for row in profile.rows:
        rows.append([
            row.m,
            row.phi_u.lower, row.phi_u.upper,
            row.phi_l.lower, row.phi_l.upper,
            _witness_set(row.phi_u.witness), _witness_set(row.phi_l.witness),
        ])
    return csv_text(header, rows)


def conditionality_csv(rows: list[ConditionalityRow]) -> str:
    header = ["m", "km_lower", "km_upper", "km_lower_over_logpow", "witness_set"]
    return csv_text(header, [[row.m, row.lower, row.upper, row.log_normalized,
                              _witness_set(row.witness)] for row in rows])


def _chain_pieces(blocks) -> Iterator[str]:
    for m, stages in blocks:
        columns = [m.astype(np.int64), *stages, stages[-1] / m]
        for lo in range(0, m.size, _CSV_ROWS):
            yield _csv_lines(zip(*(c[lo : lo + _CSV_ROWS].tolist() for c in columns)))


def chain_csv(max_m: int, iterations: int) -> Iterator[str]:
    """The CSV of ``bootstrap_chain(max_m, iterations)`` as pieces: the header,
    then ``_CSV_ROWS`` rows at a time, read from the chain's blocks."""
    header = ["m"] + [f"stage{i}" for i in range(iterations + 1)] + [f"stage{iterations}_over_m"]
    return itertools.chain([",".join(header) + "\n"],
                           _chain_pieces(_stage_blocks(max_m, iterations)))


def chain_json(max_m: int, iterations: int) -> Iterator[str]:
    """The text of ``json_text(bootstrap_chain(max_m, iterations))`` as
    pieces.  The JSON is stage-major, so each stage takes one pass of the
    chain's blocks up to that stage (the same bits as the whole chain's),
    written ``_CSV_ROWS`` values at a time; the arguments are checked at the call."""
    _stage_blocks(max_m, iterations)
    return _json_pieces(max_m, iterations)


def _json_pieces(max_m: int, iterations: int) -> Iterator[str]:
    yield '{\n  "stages": [\n'
    for k in range(iterations + 1):
        yield f'    {{\n      "label": "stage{k}",\n      "values": [\n'
        sep = "        "
        for _, stages in _stage_blocks(max_m, k):
            for lo in range(0, stages[k].size, _CSV_ROWS):
                yield sep + ",\n        ".join(map(repr, stages[k][lo : lo + _CSV_ROWS].tolist()))
                sep = ",\n        "
        yield "\n      ]\n    }" + (",\n" if k < iterations else "\n")
    yield "  ]\n}\n"


def companion_csv(report: EmbeddingReport) -> str:
    header = ["m", "s_m", report.phi_label, "ratio"]
    rows = [[r.m, r.s_m, r.phi, r.ratio] for r in report.table]
    return csv_text(header, rows)


def to_jsonable(obj) -> Any:
    """Recursively convert report objects to JSON-serializable data: NaN
    becomes null and an infinity the string "inf" or "-inf", so the text is
    strict JSON."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        if math.isnan(obj):
            return None
        return ("inf" if obj > 0 else "-inf") if math.isinf(obj) else obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    return obj


def json_text(obj) -> str:
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"
