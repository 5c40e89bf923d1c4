"""Aggregate a finished simulation into the paper's metrics.

For each domain: mean execution time of its finite VCPUs (the paper's
"average runtime of applications in VM1"), instructions retired, LLC
references/misses, and the two headline counters of §V-A(3) — **total
memory accesses** (memory controller + LLC contention indicator) and
**remote memory accesses** (remote latency + interconnect contention
indicator).  Machine-wide: migrations, steals, context switches and
the per-source overhead budget behind Table III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.faults.injector import FaultStats
from repro.xen.domain import Domain
from repro.xen.simulator import Machine

__all__ = ["DomainStats", "MachineStats", "RunSummary", "summarize"]


@dataclass(frozen=True, slots=True)
class DomainStats:
    """Per-domain aggregates at the end of a run."""

    name: str
    num_vcpus: int
    mean_finish_time_s: Optional[float]
    instructions: float
    llc_refs: float
    llc_misses: float
    local_accesses: float
    remote_accesses: float
    migrations: int
    cross_node_migrations: int

    @property
    def total_accesses(self) -> float:
        """Total DRAM accesses (the Fig. 4b/5b/6b/7b metric)."""
        return self.local_accesses + self.remote_accesses

    @property
    def remote_ratio(self) -> float:
        """Remote share of DRAM accesses (the Fig. 1 metric)."""
        total = self.total_accesses
        return self.remote_accesses / total if total > 0 else 0.0

    @property
    def llc_miss_rate(self) -> float:
        """Misses over references (the Fig. 3a metric)."""
        return self.llc_misses / self.llc_refs if self.llc_refs > 0 else 0.0

    @property
    def rpti(self) -> float:
        """LLC references per kilo-instruction (the Fig. 3b metric)."""
        if self.instructions <= 0:
            return 0.0
        return self.llc_refs / self.instructions * 1000.0

    def throughput_ops(self, instr_per_op: float) -> float:
        """Operations per second for request-driven services."""
        if self.mean_finish_time_s is None or self.mean_finish_time_s <= 0:
            return 0.0
        ops = self.instructions / instr_per_op
        return ops / self.mean_finish_time_s

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (derived metrics included)."""
        return {
            "name": self.name,
            "num_vcpus": self.num_vcpus,
            "mean_finish_time_s": self.mean_finish_time_s,
            "instructions": self.instructions,
            "llc_refs": self.llc_refs,
            "llc_misses": self.llc_misses,
            "local_accesses": self.local_accesses,
            "remote_accesses": self.remote_accesses,
            "migrations": self.migrations,
            "cross_node_migrations": self.cross_node_migrations,
            "total_accesses": self.total_accesses,
            "remote_ratio": self.remote_ratio,
            "llc_miss_rate": self.llc_miss_rate,
            "rpti": self.rpti,
        }


@dataclass(frozen=True, slots=True)
class MachineStats:
    """Machine-wide aggregates at the end of a run."""

    sim_time_s: float
    busy_time_s: float
    context_switches: int
    migrations: int
    cross_node_migrations: int
    steals_local: int
    steals_remote: int
    overhead_s: Dict[str, float] = field(default_factory=dict)

    @property
    def total_overhead_s(self) -> float:
        """Hypervisor overhead across all sources (left to right)."""
        total = 0  # like ``sum``: a run without overhead reports int 0
        for seconds in self.overhead_s.values():
            total += seconds
        return total

    @property
    def overhead_fraction(self) -> float:
        """Overhead over busy time: the Table III "overhead time" %."""
        if self.busy_time_s <= 0:
            return 0.0
        return self.total_overhead_s / self.busy_time_s

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (derived overhead totals included)."""
        return {
            "sim_time_s": self.sim_time_s,
            "busy_time_s": self.busy_time_s,
            "context_switches": self.context_switches,
            "migrations": self.migrations,
            "cross_node_migrations": self.cross_node_migrations,
            "steals_local": self.steals_local,
            "steals_remote": self.steals_remote,
            "overhead_s": dict(self.overhead_s),
            "total_overhead_s": self.total_overhead_s,
            "overhead_fraction": self.overhead_fraction,
        }


@dataclass(frozen=True, slots=True)
class RunSummary:
    """Everything an experiment needs from one run.

    ``fault_stats`` is None for fault-free runs and a
    :class:`~repro.faults.injector.FaultStats` snapshot when the run
    carried a fault plan, so experiments can report injected fault
    pressure next to the metrics it perturbed.

    ``horizon_stats`` carries the batched engine's horizon-length
    distribution (:meth:`~repro.xen.engine.BatchedEngine.horizon_stats`);
    it is None on the reference engine and therefore also excluded
    from equality — it describes how the run was *executed*, not what
    it computed.
    """

    policy: str
    machine_stats: MachineStats
    domains: Dict[str, DomainStats]
    fault_stats: Optional[FaultStats] = None
    horizon_stats: Optional[Dict[str, Any]] = field(default=None, compare=False)

    def domain(self, name: str) -> DomainStats:
        """Stats for one domain, by name."""
        return self.domains[name]

    def to_dict(self, include_profile: bool = True) -> Dict[str, Any]:
        """JSON-serializable form.

        ``include_profile=False`` omits ``horizon_stats``, the batched
        engine's execution-side statistics, which the reference engine
        does not produce — required wherever output must be identical
        across engines (the JSONL trace writer uses it).
        """
        out: Dict[str, Any] = {
            "policy": self.policy,
            "machine_stats": self.machine_stats.to_dict(),
            "domains": {name: d.to_dict() for name, d in self.domains.items()},
            "fault_stats": (
                self.fault_stats.to_dict() if self.fault_stats is not None else None
            ),
        }
        if include_profile:
            out["horizon_stats"] = self.horizon_stats
        return out


def collect_domain(machine: Machine, domain: Domain) -> DomainStats:
    """Aggregate one domain's VCPU counters."""
    instructions = llc_refs = llc_misses = 0.0
    local = remote = 0.0
    migrations = cross = 0
    for vcpu in domain.vcpus:
        totals = machine.pmu.totals(vcpu.key)
        instructions += totals.instructions
        llc_refs += totals.llc_refs
        llc_misses += totals.llc_misses
        local += totals.local_accesses
        remote += totals.remote_accesses
        migrations += vcpu.migrations
        cross += vcpu.cross_node_migrations
    return DomainStats(
        name=domain.name,
        num_vcpus=domain.num_vcpus,
        mean_finish_time_s=domain.mean_finish_time(),
        instructions=instructions,
        llc_refs=llc_refs,
        llc_misses=llc_misses,
        local_accesses=local,
        remote_accesses=remote,
        migrations=migrations,
        cross_node_migrations=cross,
    )


def summarize(machine: Machine) -> RunSummary:
    """Collect the full summary of a finished run."""
    return RunSummary(
        policy=machine.policy.name,
        machine_stats=MachineStats(
            sim_time_s=machine.time,
            busy_time_s=machine.busy_time_s,
            context_switches=machine.context_switches,
            migrations=machine.migrations,
            cross_node_migrations=machine.cross_node_migrations,
            steals_local=machine.steals_local,
            steals_remote=machine.steals_remote,
            overhead_s=dict(machine.overhead_s),
        ),
        domains={d.name: collect_domain(machine, d) for d in machine.domains},
        fault_stats=machine.faults.stats() if machine.faults is not None else None,
        horizon_stats=_horizon_stats(machine),
    )


def _horizon_stats(machine: Machine) -> Optional[Dict[str, Any]]:
    """The batched engine's horizon histogram; None on the reference engine."""
    engine = machine._engine
    return engine.horizon_stats() if engine is not None else None
