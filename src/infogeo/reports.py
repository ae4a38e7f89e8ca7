"""Report serialization: deterministic JSON and CSV rendering.

Every CLI invocation emits exactly one document of the shape

    {"schema_version": 1, "kind": ..., "generated_at": ...,
     "config": {...}, "result": {...}}

with the fully resolved configuration embedded, so any report can be
reproduced from its own header.  JSON output is deterministic (sorted keys,
fixed separators); ``generated_at`` is the only field expected to differ
between identical runs.  Exact rationals are rendered as "p/q" strings with
a decimal convenience twin, because JSON numbers cannot carry exactness.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "jsonable",
    "wrap_report",
    "dump_json",
    "strip_timestamp",
    "kv_csv",
    "table_csv",
]


def jsonable(obj):
    """Recursively convert a result object into plain JSON-ready data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return {"rational": str(obj), "decimal": float(obj)}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def wrap_report(kind: str, config: dict, result) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": jsonable(config),
        "result": jsonable(result),
    }


def dump_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def strip_timestamp(text: str) -> str:
    """Remove the generated_at line so two reports can be byte-compared."""
    return "\n".join(
        line for line in text.splitlines() if '"generated_at"' not in line
    ) + "\n"


def kv_csv(report: dict) -> str:
    """Flatten a report into key,value CSV rows (depth-first, dotted keys)."""
    rows = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            rows.append((prefix, value))

    walk("", report)
    buf = io.StringIO()
    buf.write("key,value\n")
    for key, value in rows:
        buf.write(f"{key},{value}\n")
    return buf.getvalue()


def table_csv(columns: list[str], rows, comment: str | None = None) -> str:
    """Render a column table as CSV with an optional leading comment line."""
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(str(c) for c in row) + "\n")
    return buf.getvalue()
