"""Round-trip a :class:`~repro.metrics.collectors.RunSummary` through JSON.

The cache stores the *exact* canonical-JSON form that
``RunSummary.to_dict(include_profile=True)`` produces — the same
serialization the JSONL traces and JSON reports use — so a cache hit
reconstructs a summary that is equal field-for-field to the fresh run
(floats survive JSON bit-exactly via ``repr`` round-tripping) and a
report rendered from cached summaries is byte-identical to one
rendered from fresh runs.

Deserialization is strict: every field the dataclasses require must be
present with a sane shape, and any :class:`KeyError` / ``TypeError``
escaping :func:`summary_from_payload` makes the store treat the entry
as corrupt (a miss), never as a partial result.  Derived keys that
``to_dict`` adds for human consumers (``total_accesses``,
``remote_ratio``, ``total_events``, ...) are properties on
the dataclasses and are deliberately ignored on the way back in.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.faults.injector import FaultStats
from repro.metrics.collectors import DomainStats, MachineStats, RunSummary

__all__ = ["summary_to_payload", "summary_from_payload"]

_DOMAIN_FIELDS = (
    "name",
    "num_vcpus",
    "mean_finish_time_s",
    "instructions",
    "llc_refs",
    "llc_misses",
    "local_accesses",
    "remote_accesses",
    "migrations",
    "cross_node_migrations",
)

_MACHINE_FIELDS = (
    "sim_time_s",
    "busy_time_s",
    "context_switches",
    "migrations",
    "cross_node_migrations",
    "steals_local",
    "steals_remote",
)

_FAULT_FIELDS = (
    "samples_dropped",
    "samples_noisy",
    "windows_saturated",
    "stalls_injected",
    "domain_crashes",
)


def summary_to_payload(summary: RunSummary) -> Dict[str, Any]:
    """The cacheable JSON form (horizon stats included: hits must replay them)."""
    return summary.to_dict(include_profile=True)


def _domain_from(payload: Dict[str, Any]) -> DomainStats:
    return DomainStats(**{f: payload[f] for f in _DOMAIN_FIELDS})


def _machine_from(payload: Dict[str, Any]) -> MachineStats:
    kwargs = {f: payload[f] for f in _MACHINE_FIELDS}
    return MachineStats(overhead_s=dict(payload["overhead_s"]), **kwargs)


def _faults_from(payload: Optional[Dict[str, Any]]) -> Optional[FaultStats]:
    if payload is None:
        return None
    return FaultStats(**{f: payload[f] for f in _FAULT_FIELDS})


def summary_from_payload(payload: Dict[str, Any]) -> RunSummary:
    """Rebuild a :class:`RunSummary` from its ``to_dict`` form.

    Raises :class:`KeyError`/``TypeError`` on any structural mismatch;
    the store maps those to a cache miss.
    """
    return RunSummary(
        policy=payload["policy"],
        machine_stats=_machine_from(payload["machine_stats"]),
        domains={
            name: _domain_from(d) for name, d in payload["domains"].items()
        },
        fault_stats=_faults_from(payload["fault_stats"]),
        horizon_stats=payload.get("horizon_stats"),
    )
