"""Run manifests: enough metadata to replay or diff a trace.

A trace file without provenance is a puzzle; the manifest is the first
line of every JSONL trace and answers *what produced this* — policy,
scenario label, seed, engine, fault plan, package version — plus a
``config_hash`` over the result-defining simulation parameters so two
traces can be declared comparable (same hash) or not before diffing a
single event.

The hash deliberately **excludes** fields that cannot change simulated
results: ``engine`` (both engines are bitwise-identical by contract),
``log_events`` (an observation toggle), and ``label`` (cosmetic).  Two runs that differ only in those fields hash the same —
which is exactly the property the engine-parity trace test leans on.

No wall-clock timestamps appear anywhere: a manifest is a pure function
of the run's inputs, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from repro.faults.plan import DomainCrash, FaultPlan
from repro.hardware.memory import LatencySpec
from repro.xen.simulator import Machine, SimConfig

__all__ = [
    "TRACE_SCHEMA",
    "RunManifest",
    "build_manifest",
    "canonical_dumps",
    "config_dict",
    "config_hash",
    "fault_fingerprint",
    "fault_plan_dict",
]

#: Schema identifier stamped on every trace line (bump on breaking change).
TRACE_SCHEMA = "repro.trace/v1"

#: SimConfig fields that cannot affect simulated results, excluded from
#: the hash: engine parity is a tested invariant, the event log is pure
#: observation, label is cosmetic.
_NON_RESULT_FIELDS = frozenset({"engine", "log_events", "label"})


def canonical_dumps(obj: Any) -> str:
    """Serialize to canonical JSON: sorted keys, no whitespace, no NaN.

    Every byte of a trace file goes through this, so equal payloads
    always serialize to equal bytes regardless of dict insertion order.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def fault_plan_dict(plan: FaultPlan) -> Dict[str, Any]:
    """JSON form of a fault plan (crashes become nested dicts)."""
    out: Dict[str, Any] = {
        f.name: getattr(plan, f.name) for f in fields(plan) if f.name != "crashes"
    }
    out["crashes"] = [
        {f.name: getattr(crash, f.name) for f in fields(DomainCrash)}
        for crash in plan.crashes
    ]
    return out


def config_dict(config: SimConfig) -> Dict[str, Any]:
    """JSON form of a :class:`SimConfig` (nested specs expanded)."""
    out: Dict[str, Any] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, LatencySpec):
            value = {lf.name: getattr(value, lf.name) for lf in fields(LatencySpec)}
        elif isinstance(value, FaultPlan):
            value = fault_plan_dict(value)
        out[f.name] = value
    return out


def config_hash(config: SimConfig) -> str:
    """SHA-256 over the result-defining subset of the config."""
    payload = {
        k: v for k, v in config_dict(config).items() if k not in _NON_RESULT_FIELDS
    }
    digest = hashlib.sha256(canonical_dumps(payload).encode("utf-8"))
    return digest.hexdigest()


def fault_fingerprint(plan: Optional[FaultPlan]) -> str:
    """SHA-256 over a fault plan's canonical JSON (``"none"`` if fault-free).

    ``config_hash`` already folds the plan in; this standalone form
    exists for callers that key on the plan alone — the result cache
    stores it so ``repro cache stats`` can group entries by fault plan
    without re-deriving configs.
    """
    if plan is None:
        return "none"
    digest = hashlib.sha256(canonical_dumps(fault_plan_dict(plan)).encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True, slots=True)
class RunManifest:
    """Provenance header of one trace file."""

    policy: str
    scenario: str
    seed: int
    engine: str
    config_hash: str
    config: Dict[str, Any]
    faults: Optional[Dict[str, Any]]
    package_version: str
    schema: str = TRACE_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        """The manifest trace line (``type`` discriminator included)."""
        return {
            "type": "manifest",
            "schema": self.schema,
            "policy": self.policy,
            "scenario": self.scenario,
            "seed": self.seed,
            "engine": self.engine,
            "config_hash": self.config_hash,
            "config": self.config,
            "faults": self.faults,
            "package_version": self.package_version,
        }


def build_manifest(machine: Machine, scenario: str = "") -> RunManifest:
    """Construct the manifest for a machine's run.

    ``scenario`` defaults to the config's ``label`` when not given.
    """
    from repro import __version__

    config = machine.config
    return RunManifest(
        policy=machine.policy.name,
        scenario=scenario or config.label,
        seed=config.seed,
        engine=config.engine,
        config_hash=config_hash(config),
        config=config_dict(config),
        faults=fault_plan_dict(config.faults) if config.faults is not None else None,
        package_version=__version__,
    )
