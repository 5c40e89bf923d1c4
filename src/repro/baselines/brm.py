"""Bias Random vCPU Migration (BRM) baseline.

Re-implements, at the level our substrate models, the NUMA-aware VCPU
scheduler of Rao et al. (HPCA 2013) that the paper compares against
(§V-A): each VCPU carries an *uncore penalty* summarising how much the
uncore memory subsystem (LLC misses, remote accesses) is hurting it,
and the scheduler periodically performs biased random migrations that
move VCPUs toward the node minimising the system-wide penalty.

Two properties the paper highlights are reproduced deliberately:

* **all performance-degrading factors are weighted equally** in the
  penalty (the paper's criticism: "it cannot give precise optimization
  for each factor") — the penalty is the unweighted mean of the
  normalised LLC-miss and remote-access components;
* **every penalty update takes a system-wide lock**, so with more than
  ~8 active VCPUs the update path serialises and the lock wait grows
  linearly — BRM then loses to plain Credit despite reducing both total
  and remote memory accesses (§V-B5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.baselines.lock import GlobalLockModel
from repro.hardware.pmu import VcpuCounters
from repro.xen.credit import CreditParams, CreditScheduler
from repro.xen.pcpu import Pcpu
from repro.xen.vcpu import Vcpu, VcpuState
from repro.util.validation import check_fraction, check_positive

__all__ = ["BRMParams", "BRMScheduler"]


@dataclass(frozen=True, slots=True)
class BRMParams:
    """BRM tuning knobs.

    Attributes
    ----------
    migrate_period_ticks:
        Scheduler ticks between migration rounds (30 ms default).
    migrations_per_round:
        Candidate VCPUs considered per round.
    bias:
        Probability a candidate moves to its estimated best node; with
        probability ``1 - bias`` it moves to a uniformly random node
        (the "random" in bias random migration, which provides the
        exploration of Rao et al.'s design).
    miss_pressure_norm:
        LLC misses per kilo-instruction treated as "maximal" when
        normalising the miss component of the penalty.
    """

    migrate_period_ticks: int = 3
    migrations_per_round: int = 2
    bias: float = 0.7
    miss_pressure_norm: float = 25.0

    def __post_init__(self) -> None:
        if self.migrate_period_ticks <= 0:
            raise ValueError("migrate_period_ticks must be > 0")
        if self.migrations_per_round <= 0:
            raise ValueError("migrations_per_round must be > 0")
        check_fraction(self.bias, "bias")
        check_positive(self.miss_pressure_norm, "miss_pressure_norm")


class BRMScheduler(CreditScheduler):
    """Credit scheduler + uncore-penalty-driven bias random migration."""

    name = "brm"
    collects_pmu = True

    def __init__(
        self,
        params: CreditParams | None = None,
        brm_params: BRMParams | None = None,
        lock: GlobalLockModel | None = None,
    ) -> None:
        super().__init__(params)
        self.bparams = brm_params or BRMParams()
        self.lock = lock or GlobalLockModel()
        self._snapshots: Dict[int, VcpuCounters] = {}

    # ------------------------------------------------------------------
    # Penalty maintenance (lock-protected on every update)
    # ------------------------------------------------------------------
    def on_tick(self, now: float, tick_index: int) -> None:
        super().on_tick(now, tick_index)
        machine = self.machine
        assert machine is not None

        contenders = sum(1 for v in machine.vcpus if v.runnable)
        for pcpu in machine.pcpus:
            vcpu = pcpu.current
            if vcpu is None:
                continue
            self._update_penalty(vcpu)
            machine.charge_overhead(
                "brm_lock", pcpu, self.lock.acquire_cost(contenders)
            )

        if tick_index % self.bparams.migrate_period_ticks == 0 and tick_index > 0:
            self._migration_round(now)

    def _update_penalty(self, vcpu: Vcpu) -> None:
        """Refresh a VCPU's uncore penalty from its counter delta."""
        machine = self.machine
        assert machine is not None
        totals = machine.pmu.totals(vcpu.key)
        base = self._snapshots.get(vcpu.key)
        window = totals if base is None else totals.delta(base)
        self._snapshots[vcpu.key] = totals

        if window.instructions <= 0:
            return
        # Equal-weight combination of the two uncore factors — the
        # imprecision the paper criticises.
        miss_pkI = window.llc_misses / window.instructions * 1000.0
        miss_component = min(1.0, miss_pkI / self.bparams.miss_pressure_norm)
        remote_component = window.remote_ratio()
        vcpu.uncore_penalty = 0.5 * miss_component + 0.5 * remote_component

    # ------------------------------------------------------------------
    # Bias random migration
    # ------------------------------------------------------------------
    def _migration_round(self, now: float) -> None:
        machine = self.machine
        assert machine is not None
        rng = machine.rng.get("brm.migrate")
        candidates = [
            v
            for v in machine.vcpus
            if v.state in (VcpuState.RUNNABLE, VcpuState.RUNNING)
            and v.uncore_penalty > 0
        ]
        if not candidates:
            return
        # Bias candidate choice toward the worst penalties.
        weights = np.array([v.uncore_penalty for v in candidates])
        probs = weights / weights.sum()
        count = min(self.bparams.migrations_per_round, len(candidates))
        chosen = rng.choice(len(candidates), size=count, replace=False, p=probs)
        for idx in chosen:
            vcpu = candidates[int(idx)]
            target_node = self._pick_node(vcpu, rng)
            current_node = (
                machine.topology.node_of_pcpu(vcpu.pcpu)
                if vcpu.pcpu is not None
                else None
            )
            if target_node == current_node:
                continue
            target = machine.least_loaded_pcpu(target_node)
            machine.migrate_vcpu(vcpu, target.pcpu_id, now, reason="brm")

    def _pick_node(self, vcpu: Vcpu, rng: np.random.Generator) -> int:
        """Best node by observed accesses, with (1-bias) exploration."""
        machine = self.machine
        assert machine is not None
        num_nodes = machine.topology.num_nodes
        if rng.random() >= self.bparams.bias:
            return int(rng.integers(num_nodes))
        accesses = machine.pmu.peek(vcpu.key).node_accesses
        total = 0.0
        for count in accesses:
            total += count
        if total <= 0:
            return int(rng.integers(num_nodes))
        # First maximum: ties go to the lowest node id.
        return max(range(num_nodes), key=accesses.__getitem__)

    # ------------------------------------------------------------------
    def on_context_switch(self, pcpu: Pcpu, prev: Optional[Vcpu], nxt: Optional[Vcpu]) -> None:
        """Counter save/restore, plus a locked penalty update on switch-out."""
        machine = self.machine
        assert machine is not None
        machine.charge_overhead("pmu", pcpu, machine.pmu.record_collection())
        if prev is not None:
            contenders = sum(1 for v in machine.vcpus if v.runnable)
            self._update_penalty(prev)
            machine.charge_overhead(
                "brm_lock", pcpu, self.lock.acquire_cost(contenders)
            )
