"""Deterministic report emission: CSV and JSON with stable formatting.

CSV uses '.' decimals, ',' separators, LF line endings, and always carries a
header row.  Floats are rendered with shortest round-trip repr so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from .bootstrap import BootstrapChain
from .democracy import DemocracyProfile
from .embeddings import EmbeddingReport
from .estimates import BoundEstimate
from .greedy import ConditionalityRow

__all__ = [
    "fmt",
    "csv_text",
    "profile_csv",
    "conditionality_csv",
    "chain_csv",
    "companion_csv",
    "to_jsonable",
    "json_text",
]


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


def csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _witness_set(est: BoundEstimate) -> str:
    if not est.witness or "set" not in est.witness:
        return ""
    return ";".join(str(int(i)) for i in est.witness["set"])


def profile_csv(profile: DemocracyProfile) -> str:
    header = ["m", "phi_u_lo", "phi_u_hi", "phi_l_lo", "phi_l_hi", "witness_u", "witness_l"]
    rows = []
    for row in profile.rows:
        rows.append([
            row.m,
            row.phi_u.lower, row.phi_u.upper,
            row.phi_l.lower, row.phi_l.upper,
            _witness_set(row.phi_u), _witness_set(row.phi_l),
        ])
    return csv_text(header, rows)


def conditionality_csv(rows: list[ConditionalityRow]) -> str:
    header = ["m", "km_lower", "km_upper", "km_lower_over_logpow", "witness_set"]
    out = []
    for row in rows:
        wit = ""
        if row.witness and "set" in row.witness:
            wit = ";".join(str(int(i)) for i in row.witness["set"])
        out.append([row.m, row.lower, row.upper, row.log_normalized, wit])
    return csv_text(header, out)


def chain_csv(chain: BootstrapChain) -> str:
    k = chain.iterations
    header = ["m"] + [f"stage{i}" for i in range(k + 1)] + [f"stage{k}_over_m"]
    final_ratio = chain.final_over_m
    rows = []
    for i in range(chain.length):
        row = [i + 1] + [float(stage.values[i]) for stage in chain.stages]
        row.append(float(final_ratio[i]))
        rows.append(row)
    return csv_text(header, rows)


def companion_csv(report: EmbeddingReport) -> str:
    header = ["m", "s_m", report.phi_label, "ratio"]
    rows = [[r.m, r.s_m, r.phi, r.ratio] for r in report.table]
    return csv_text(header, rows)


def to_jsonable(obj) -> Any:
    """Recursively convert report objects to JSON-serializable data: NaN
    becomes null and an infinity the string "inf" or "-inf", so the text is
    strict JSON."""
    if isinstance(obj, BoundEstimate):
        return to_jsonable(obj.as_dict())
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
