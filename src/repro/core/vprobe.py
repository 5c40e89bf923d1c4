"""The assembled vProbe scheduler and its ablation variants.

vProbe = Credit scheduler + PMU data analyzer + VCPU periodical
partitioning + NUMA-aware load balance (§III-A, Fig. 2).  The paper's
evaluation additionally runs each mechanism alone:

* **VCPU-P** — partitioning only; load balancing stays NUMA-blind, so
  the balance the partitioner builds erodes between sampling periods;
* **LB** — NUMA-aware load balance only; no partitioning, so LLC-heavy
  VCPUs can still pile onto one socket.

Overhead is charged faithfully (it is the subject of Table III): PMU
save/restore around context switches and 10 ms refreshes, plus the
partitioning pass itself, all consume hypervisor time on the PCPUs
where they run.

A **hardened** variant (``vprobe-h``, :func:`vprobe_hardened`) degrades
gracefully when telemetry lies: classification switches require
``hysteresis_windows`` consecutive agreeing samples, and each VCPU
carries a confidence score that decays while its PMU windows are
dropped or empty.  Below ``min_confidence`` the scheduler stops making
NUMA decisions *for that VCPU* — no partition migrations, Credit wake
placement, zero pressure in steal ranking — so with telemetry fully
dead vProbe-h converges to stock Credit behaviour instead of thrashing
on garbage.  The defaults (windows=1, min_confidence=0) reproduce the
paper's trusting scheduler bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.analyzer import PmuAnalyzer
from repro.core.balance import numa_aware_steal
from repro.core.bounds import DynamicBounds
from repro.core.classify import Bounds
from repro.core.partition import periodical_partition
from repro.xen.credit import CreditParams, CreditScheduler
from repro.xen.pcpu import Pcpu
from repro.xen.vcpu import Vcpu
from repro.util.validation import check_non_negative

__all__ = [
    "VProbeParams",
    "VProbeScheduler",
    "vprobe",
    "vprobe_hardened",
    "vcpu_partition_only",
    "load_balance_only",
]


@dataclass(frozen=True, slots=True)
class VProbeParams:
    """vProbe tuning knobs beyond the Credit parameters.

    Attributes
    ----------
    bounds:
        Eq. 3 classification bounds (low=3, high=20 per §IV-A).
    enable_partition:
        Run Algorithm 1 each sampling period.
    enable_numa_lb:
        Use Algorithm 2 for idle stealing.
    partition_cost_per_vcpu_s:
        Hypervisor time per VCPU examined by the partitioner.
    dynamic_bounds:
        Enable the §VI future-work extension: adapt ``bounds`` to the
        observed pressure distribution each period.
    page_migration:
        Enable the §VI combined-strategy extension: when Algorithm 1 is
        forced to place a VCPU away from its affinity node (the even
        spread outranks locality), migrate a fraction of its hot pages
        to the assigned node instead of leaving them remote.  Copying
        costs hypervisor time (``page_copy_bandwidth``), which is why
        the paper calls page migration "expensive" relative to VCPU
        migration — the cost is charged and shows up in the overhead
        accounting.
    page_migration_fraction:
        Fraction of the hot slice copied per period for a forced-remote
        VCPU.
    page_copy_bandwidth:
        Effective page-copy bandwidth in bytes/second.
    page_migration_patience:
        Consecutive periods a VCPU must stay forced-remote *on the same
        node* before its pages follow.  Without this hysteresis the
        pages chase Algorithm 1's marginal assignments (which can flip
        node every period) and end up spread across both sockets —
        worse than not migrating at all, and a concrete form of the
        cost the paper's §VI warns about.
    hysteresis_windows:
        Consecutive sampling windows a VCPU must spend in a new Eq. 3
        class before its committed type switches.  1 = the paper's
        immediate reclassification.
    min_confidence:
        Telemetry-confidence threshold in [0, 1] below which the
        scheduler falls back to stock Credit behaviour for a VCPU.
        0 disables the gate (every reading is trusted, as the paper
        assumes).
    confidence_decay:
        EMA weight of the analyzer's confidence score, in (0, 1).
    reject_implausible:
        Discard PMU windows whose counters are physically impossible
        (more instructions than the clock allows, absurd Eq. 2
        pressure) as if they had been dropped.  Inert on healthy
        telemetry; see :class:`~repro.core.analyzer.PmuAnalyzer`.
    """

    bounds: Bounds = Bounds()
    enable_partition: bool = True
    enable_numa_lb: bool = True
    partition_cost_per_vcpu_s: float = 3.0e-6
    dynamic_bounds: bool = False
    page_migration: bool = False
    page_migration_fraction: float = 0.25
    page_copy_bandwidth: float = 2.0e9
    page_migration_patience: int = 2
    hysteresis_windows: int = 1
    min_confidence: float = 0.0
    confidence_decay: float = 0.5
    reject_implausible: bool = False

    def __post_init__(self) -> None:
        check_non_negative(self.partition_cost_per_vcpu_s, "partition_cost_per_vcpu_s")
        check_non_negative(self.page_migration_fraction, "page_migration_fraction")
        if self.page_migration_fraction > 1:
            raise ValueError("page_migration_fraction must be <= 1")
        if self.page_copy_bandwidth <= 0:
            raise ValueError("page_copy_bandwidth must be > 0")
        if self.page_migration_patience < 1:
            raise ValueError("page_migration_patience must be >= 1")
        if self.hysteresis_windows < 1:
            raise ValueError("hysteresis_windows must be >= 1")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValueError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )
        if not 0.0 < self.confidence_decay < 1.0:
            raise ValueError(
                f"confidence_decay must be in (0, 1), got {self.confidence_decay}"
            )

    @property
    def hardened(self) -> bool:
        """True when any graceful-degradation defence is active."""
        return (
            self.hysteresis_windows > 1
            or self.min_confidence > 0.0
            or self.reject_implausible
        )


class VProbeScheduler(CreditScheduler):
    """NUMA-aware VCPU scheduler (the paper's contribution)."""

    name = "vprobe"
    collects_pmu = True

    def __init__(
        self,
        params: CreditParams | None = None,
        vparams: VProbeParams | None = None,
    ) -> None:
        super().__init__(params)
        self.vparams = vparams or VProbeParams()
        self.analyzer = PmuAnalyzer(
            self.vparams.bounds,
            hysteresis_windows=self.vparams.hysteresis_windows,
            confidence_decay=self.vparams.confidence_decay,
            reject_implausible=self.vparams.reject_implausible,
        )
        self._dynamic = DynamicBounds(self.vparams.bounds) if self.vparams.dynamic_bounds else None
        #: per-VCPU (node, consecutive forced-remote periods) for the
        #: page-migration hysteresis
        self._remote_streak: dict[int, tuple[int, int]] = {}
        # Ablation variants advertise their own name.
        if not self.vparams.enable_partition and self.vparams.enable_numa_lb:
            self.name = "lb"
        elif self.vparams.enable_partition and not self.vparams.enable_numa_lb:
            self.name = "vcpu-p"
        elif self.vparams.hardened:
            self.name = "vprobe-h"

    # ------------------------------------------------------------------
    # Telemetry trust
    # ------------------------------------------------------------------
    def trusted(self, vcpu: Vcpu) -> bool:
        """Whether this VCPU's telemetry clears the confidence gate.

        Always True when the gate is disabled (``min_confidence=0``) —
        the paper's trusting behaviour.
        """
        if self.vparams.min_confidence <= 0.0:
            return True
        return self.analyzer.confidence(vcpu.key) >= self.vparams.min_confidence

    # ------------------------------------------------------------------
    # Sampling period: analyze, (re)classify, partition
    # ------------------------------------------------------------------
    def on_sample_period(self, now: float) -> None:
        machine = self.machine
        assert machine is not None

        samples = self.analyzer.analyze(machine)

        if self._dynamic is not None:
            pressures = [s.llc_pressure for s in samples if s.instructions > 0]
            self.analyzer.bounds = self._dynamic.update(pressures)

        if self.vparams.enable_partition:
            eligible = None
            if self.vparams.min_confidence > 0.0:
                eligible = self.trusted
                # A VCPU whose telemetry went stale must not keep an old
                # partition assignment pinning it to a node the evidence
                # for which has expired — release it back to Credit.
                for vcpu in machine.vcpus:
                    if vcpu.assigned_node is not None and not self.trusted(vcpu):
                        vcpu.assigned_node = None
            decisions = periodical_partition(machine, now, eligible=eligible)
            cost = self.vparams.partition_cost_per_vcpu_s * len(decisions)
            # The partitioning pass runs on one PCPU (dom0's), eating
            # its guest time — the Table III "overhead time".
            machine.charge_overhead("partition", machine.pcpus[0], cost)

            if self.vparams.page_migration:
                self._migrate_pages(machine, now, decisions)

    def _migrate_pages(self, machine, now: float, decisions) -> None:
        """§VI combined strategy: pull forced-remote VCPUs' pages local.

        For each VCPU Algorithm 1 had to place off its affinity node,
        copy a fraction of its hot slice to the assigned node and
        charge the copy time.
        """
        for decision in decisions:
            if decision.local:
                self._remote_streak.pop(decision.vcpu_key, None)
                continue
            node, streak = self._remote_streak.get(decision.vcpu_key, (decision.node, 0))
            streak = streak + 1 if node == decision.node else 1
            self._remote_streak[decision.vcpu_key] = (decision.node, streak)
            if streak < self.vparams.page_migration_patience:
                continue
            vcpu = machine.vcpus[decision.vcpu_key]
            workload = vcpu.workload
            moved = vcpu.domain.placement.migrate_slice(
                workload.slice_id,
                decision.node,
                self.vparams.page_migration_fraction,
                vcpu.domain.slice_bytes,
            )
            if moved <= 0:
                continue
            cost = moved / self.vparams.page_copy_bandwidth
            machine.charge_overhead("page_migration", machine.pcpus[0], cost)
            machine.log.emit(
                now,
                "page_migration",
                vcpu=vcpu.name,
                to_node=decision.node,
                bytes=moved,
            )

    # ------------------------------------------------------------------
    # Idle stealing: Algorithm 2
    # ------------------------------------------------------------------
    def steal(self, pcpu: Pcpu, now: float, under_only: bool = False) -> Optional[Vcpu]:
        # ``under_only`` stays in the policy interface (the machine's
        # call sites pass it, and Credit's balancer honours it) but
        # Algorithm 2 ranks by pressure, not credit priority.
        machine = self.machine
        assert machine is not None
        if self.vparams.enable_numa_lb:
            pressure_of = None
            if self.vparams.min_confidence > 0.0:
                pressure_of = self._gated_pressure
            return numa_aware_steal(machine, pcpu, now, pressure_of=pressure_of)
        return super().steal(pcpu, now, under_only=under_only)

    def idle_steals(self, n: int) -> None:
        # Algorithm 2 draws no RNG; without it this is Credit's scan.
        if not self.vparams.enable_numa_lb:
            super().idle_steals(n)

    def _gated_pressure(self, vcpu: Vcpu) -> float:
        """Steal-ranking pressure: 0 when the reading can't be trusted.

        An untrusted VCPU ranks as cache-light, so Algorithm 2 prefers
        moving it — exactly Credit's indifference — rather than letting
        a stale high pressure protect it from migration.
        """
        return vcpu.llc_pressure if self.trusted(vcpu) else 0.0

    # ------------------------------------------------------------------
    # Wake placement: the NUMA-aware balancer also serves wake pulls
    # ------------------------------------------------------------------
    def on_vcpu_wake(self, vcpu: Vcpu, now: float) -> int:
        """Keep a waking VCPU on its node (assigned node if partitioned).

        In Xen, the idler that reacts to a wake tickle pulls the VCPU
        through the same load-balance path Algorithm 2 replaces, so
        with the NUMA-aware balancer enabled a wake lands on the least
        loaded PCPU of the VCPU's current (or partition-assigned) node
        instead of bouncing NUMA-blind.
        """
        machine = self.machine
        assert machine is not None
        if not self.vparams.enable_numa_lb:
            return super().on_vcpu_wake(vcpu, now)
        if self.vparams.min_confidence > 0.0 and not self.trusted(vcpu):
            # No believable affinity data: place the wake exactly the
            # way stock Credit would.
            return super().on_vcpu_wake(vcpu, now)
        if self.vparams.enable_partition and vcpu.assigned_node is not None:
            node = vcpu.assigned_node
        elif vcpu.pcpu is not None:
            node = machine.topology.node_of_pcpu(vcpu.pcpu)
        else:
            node = 0
        return machine.least_loaded_pcpu(node).pcpu_id

    # ------------------------------------------------------------------
    # Context switches: Perfctr-Xen counter save/restore cost
    # ------------------------------------------------------------------
    def on_context_switch(self, pcpu: Pcpu, prev: Optional[Vcpu], nxt: Optional[Vcpu]) -> None:
        machine = self.machine
        assert machine is not None
        machine.charge_overhead("pmu", pcpu, machine.pmu.record_collection())


def vprobe(
    params: CreditParams | None = None,
    bounds: Bounds | None = None,
    dynamic_bounds: bool = False,
    page_migration: bool = False,
) -> VProbeScheduler:
    """Full vProbe: analyzer + partitioning + NUMA-aware load balance.

    ``page_migration`` additionally enables the §VI combined strategy.
    """
    return VProbeScheduler(
        params,
        VProbeParams(
            bounds=bounds or Bounds(),
            dynamic_bounds=dynamic_bounds,
            page_migration=page_migration,
        ),
    )


def vprobe_hardened(
    params: CreditParams | None = None,
    bounds: Bounds | None = None,
    hysteresis_windows: int = 2,
    min_confidence: float = 0.02,
    confidence_decay: float = 0.9,
    reject_implausible: bool = False,
) -> VProbeScheduler:
    """vProbe with graceful telemetry degradation (``vprobe-h``).

    Identical to :func:`vprobe` while the PMU behaves; under sample
    dropout, counter noise or saturation it debounces type flips and
    falls back per-VCPU to stock Credit decisions once confidence in
    that VCPU's telemetry decays below ``min_confidence``.  The low
    threshold plus slow decay make the gate a *sustained-outage*
    detector: flaky-but-live telemetry keeps vProbe's mechanisms
    active, only a PMU that has been silent for dozens of consecutive
    periods revokes trust.

    ``reject_implausible`` additionally discards physically impossible
    counter windows.  It is off by default: measurements show it helps
    when corruption is occasional (most windows clean, the filter
    removes the wild outliers) but hurts when corruption dominates —
    the gaps it creates starve classification more than the surviving
    garbage would have cost.
    """
    return VProbeScheduler(
        params,
        VProbeParams(
            bounds=bounds or Bounds(),
            hysteresis_windows=hysteresis_windows,
            min_confidence=min_confidence,
            confidence_decay=confidence_decay,
            reject_implausible=reject_implausible,
        ),
    )


def vcpu_partition_only(
    params: CreditParams | None = None, bounds: Bounds | None = None
) -> VProbeScheduler:
    """The paper's VCPU-P ablation: partitioning, NUMA-blind balancing."""
    return VProbeScheduler(
        params,
        VProbeParams(bounds=bounds or Bounds(), enable_numa_lb=False),
    )


def load_balance_only(
    params: CreditParams | None = None, bounds: Bounds | None = None
) -> VProbeScheduler:
    """The paper's LB ablation: NUMA-aware balancing, no partitioning."""
    return VProbeScheduler(
        params,
        VProbeParams(bounds=bounds or Bounds(), enable_partition=False),
    )
