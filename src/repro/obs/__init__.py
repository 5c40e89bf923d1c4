"""Observability layer: run manifests, JSONL traces, JSON schemas.

:mod:`repro.obs.manifest`, :mod:`repro.obs.trace` and
:mod:`repro.obs.schema` sit *above* the simulator and metrics layers.
Every name is re-exported lazily (PEP 562), so importing ``repro.obs``
stays cheap and never pulls the trace/metrics stack into a
partially-initialized import of the simulator.
"""

from __future__ import annotations

__all__ = [
    "RunManifest",
    "build_manifest",
    "canonical_dumps",
    "config_hash",
    "fault_fingerprint",
    "TraceFile",
    "trace_lines",
    "write_trace",
    "read_trace",
    "diff_traces",
    "REPORT_SCHEMA",
    "validate_report",
    "validate_trace_file",
]

_LAZY = {
    "RunManifest": "repro.obs.manifest",
    "build_manifest": "repro.obs.manifest",
    "canonical_dumps": "repro.obs.manifest",
    "config_hash": "repro.obs.manifest",
    "fault_fingerprint": "repro.obs.manifest",
    "TraceFile": "repro.obs.trace",
    "trace_lines": "repro.obs.trace",
    "write_trace": "repro.obs.trace",
    "read_trace": "repro.obs.trace",
    "diff_traces": "repro.obs.trace",
    "REPORT_SCHEMA": "repro.obs.schema",
    "validate_report": "repro.obs.schema",
    "validate_trace_file": "repro.obs.schema",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
