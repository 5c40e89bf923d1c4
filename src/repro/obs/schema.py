"""Schemas and a small validator for trace lines and JSON reports.

The repo ships no third-party dependencies beyond numpy, so this module
implements the slice of JSON Schema the observability layer actually
needs — ``type``, ``required``, ``properties``, ``items``, ``enum`` and
``const`` — rather than pulling in ``jsonschema``.  Validation returns
a list of error strings (empty = valid) so CI can print every problem
at once instead of failing on the first.

Two schema families are defined:

* trace lines (``repro.trace/v1``) — one schema per ``type``
  discriminator (manifest / event / snapshot / summary);
* report envelopes (``repro.report/v2``) — the wrapper every
  experiment's ``to_json()`` and ``repro compare --json`` emit:
  ``{"schema": ..., "kind": ..., "payload": {...}}``.  v2 run
  summaries may carry a ``horizon_stats`` block (the batched engine's
  horizon histogram; null on the reference engine);
* audit reports (``repro.audit/v1``) — what ``repro audit`` emits:
  per-seed differential verdicts, metamorphic relation outcomes and
  shrunken failure repros (:mod:`repro.audit.report`).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Union

from repro.obs.manifest import TRACE_SCHEMA

__all__ = [
    "AUDIT_SCHEMA",
    "AUDIT_REPORT_SCHEMA",
    "REPORT_SCHEMA",
    "REPORT_ENVELOPE_SCHEMA",
    "TRACE_LINE_SCHEMAS",
    "validate",
    "validate_audit_report",
    "validate_report",
    "validate_trace_file",
]

#: Schema identifier stamped on every JSON report envelope.  Bumped to
#: v2 when run summaries grew the optional ``horizon_stats`` block; v1
#: envelopes (no such block was ever emitted) fail validation so stale
#: artifacts are regenerated rather than silently mixed.
REPORT_SCHEMA = "repro.report/v2"

#: Schema identifier stamped on every ``repro audit`` report.
AUDIT_SCHEMA = "repro.audit/v1"

_NUMBER = {"type": "number"}
_STRING = {"type": "string"}
_INT = {"type": "integer"}

#: One schema per trace-line ``type`` discriminator.
TRACE_LINE_SCHEMAS: Dict[str, Dict[str, Any]] = {
    "manifest": {
        "type": "object",
        "required": [
            "type",
            "schema",
            "policy",
            "scenario",
            "seed",
            "engine",
            "config_hash",
            "config",
            "faults",
            "package_version",
        ],
        "properties": {
            "type": {"const": "manifest"},
            "schema": {"const": TRACE_SCHEMA},
            "policy": _STRING,
            "scenario": _STRING,
            "seed": _INT,
            "engine": {"enum": ["batched", "reference"]},
            "config_hash": _STRING,
            "config": {"type": "object"},
            "faults": {"type": ["object", "null"]},
            "package_version": _STRING,
        },
    },
    "event": {
        "type": "object",
        "required": ["type", "t", "kind", "data"],
        "properties": {
            "type": {"const": "event"},
            "t": _NUMBER,
            "kind": _STRING,
            "data": {"type": "object"},
        },
    },
    "snapshot": {
        "type": "object",
        "required": [
            "type",
            "t",
            "accesses",
            "instructions",
            "intensive_per_node",
            "migrations",
            "overhead_s",
        ],
        "properties": {
            "type": {"const": "snapshot"},
            "t": _NUMBER,
            "accesses": {"type": "object"},
            "instructions": {"type": "object"},
            "intensive_per_node": {"type": "array", "items": _INT},
            "migrations": {"type": "array", "items": _INT},
            "overhead_s": _NUMBER,
        },
    },
    "summary": {
        "type": "object",
        "required": ["type", "policy", "machine_stats", "domains"],
        "properties": {
            "type": {"const": "summary"},
            "policy": _STRING,
            "machine_stats": {"type": "object"},
            "domains": {"type": "object"},
        },
    },
}

#: The wrapper for every machine-readable report.
REPORT_ENVELOPE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["schema", "kind", "payload"],
    "properties": {
        "schema": {"const": REPORT_SCHEMA},
        "kind": _STRING,
        "payload": {"type": "object"},
    },
}

#: The ``repro audit`` report: envelope plus the payload fields CI and
#: the regression harness read.  Per-scenario details stay loosely
#: typed objects — their exact shape belongs to :mod:`repro.audit`.
AUDIT_REPORT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["schema", "kind", "payload"],
    "properties": {
        "schema": {"const": AUDIT_SCHEMA},
        "kind": {"const": "audit"},
        "payload": {
            "type": "object",
            "required": [
                "ok",
                "seeds",
                "engines",
                "checks_run",
                "engine_comparisons",
                "elapsed_s",
                "results",
                "metamorphic",
                "failures",
            ],
            "properties": {
                "ok": {"type": "boolean"},
                "seeds": {"type": "array", "items": _INT},
                "engines": {"type": "array", "items": _STRING},
                "checks_run": _INT,
                "engine_comparisons": _INT,
                "elapsed_s": _NUMBER,
                "results": {"type": "array", "items": {"type": "object"}},
                "metamorphic": {"type": "array", "items": {"type": "object"}},
                "failures": {"type": "array", "items": {"type": "object"}},
            },
        },
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass in Python; JSON Schema says it is not a number.
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(instance: Any, schema: Dict[str, Any], path: str = "$") -> List[str]:
    """Check ``instance`` against ``schema``; returns error strings."""
    errors: List[str] = []

    if "const" in schema and instance != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {instance!r}")
        return errors
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']!r}")
        return errors

    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](instance) for t in allowed):
            errors.append(
                f"{path}: expected type {'/'.join(allowed)}, "
                f"got {type(instance).__name__}"
            )
            return errors

    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in instance:
                errors.extend(validate(instance[key], subschema, f"{path}.{key}"))
    elif isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]"))

    return errors


def validate_report(obj: Any) -> List[str]:
    """Validate one report envelope (``to_json()`` / ``--json`` output)."""
    return validate(obj, REPORT_ENVELOPE_SCHEMA)


def validate_audit_report(obj: Any) -> List[str]:
    """Validate one ``repro audit`` report (``repro.audit/v1``)."""
    return validate(obj, AUDIT_REPORT_SCHEMA)


def validate_trace_file(path: Union[str, pathlib.Path]) -> List[str]:
    """Validate every line of a JSONL trace file.

    Checks JSON well-formedness, the per-type line schemas, and the
    file's gross structure (manifest first, exactly one summary last
    when present).
    """
    errors: List[str] = []
    lines: List[Dict[str, Any]] = []
    with pathlib.Path(path).open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON: {exc}")
                continue
            kind = line.get("type") if isinstance(line, dict) else None
            schema = TRACE_LINE_SCHEMAS.get(kind)
            if schema is None:
                errors.append(f"line {lineno}: unknown line type {kind!r}")
                continue
            errors.extend(validate(line, schema, path=f"line {lineno}"))
            lines.append(line)

    if not lines:
        errors.append("trace is empty")
        return errors
    if lines[0].get("type") != "manifest":
        errors.append("first line must be the manifest")
    n_summaries = sum(1 for l in lines if l.get("type") == "summary")
    if n_summaries > 1:
        errors.append(f"expected at most one summary line, found {n_summaries}")
    if n_summaries == 1 and lines[-1].get("type") != "summary":
        errors.append("summary line must be last")
    return errors
