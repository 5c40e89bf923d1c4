"""NUMA-aware load balance (§III-D, Algorithm 2).

When a PCPU goes idle it steals work, but unlike Credit's NUMA-blind
scan it:

1. visits the **local node first** and only then remote nodes — keeping
   memory-intensive VCPUs near their pages and preserving the LLC
   balance the partitioner established;
2. within a node, checks PCPUs in **descending ``workload``** order
   (the §IV-B per-PCPU run-queue counter) — relieving the most loaded
   peer reduces context switching and keeps PCPU loads even;
3. from the chosen queue steals the runnable VCPU with the **smallest
   LLC access pressure** — moving a cache-light VCPU disturbs the LLC
   contention balance the least, and if the steal does cross nodes, a
   low-pressure VCPU also generates the fewest new remote accesses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.xen.pcpu import Pcpu
from repro.xen.vcpu import Vcpu

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.simulator import Machine

__all__ = ["numa_aware_steal"]


def numa_aware_steal(
    machine: "Machine",
    pcpu: Pcpu,
    now: float,
    pressure_of: Optional[Callable[[Vcpu], float]] = None,
) -> Optional[Vcpu]:
    """Algorithm 2: pick a VCPU for a PCPU that needs work.

    Triggered at the same points as Credit's balancer: when ``pcpu``
    goes idle, or when its best local candidate has OVER priority.
    Unlike Credit, Algorithm 2 places no priority condition on the
    victim — line 4 of the paper's pseudocode considers *all* runnable
    VCPUs and picks the smallest LLC pressure (on a tie, the earliest
    in the victim queue's order wins — ``min`` keeps the first).  That
    asymmetry is the mechanism's point: when a steal must cross nodes,
    a cache-light (usually CPU-bound, credit-hungry, hence OVER) VCPU
    moves instead of a memory-intensive UNDER one, so the partitioner's
    placement survives between sampling periods.

    Returns the chosen VCPU already removed from its victim queue (the
    machine completes the migration bookkeeping), or None when no
    eligible VCPU exists anywhere.

    ``pressure_of`` overrides the pressure used for victim ranking
    (default: the VCPU's recorded ``llc_pressure``).  The hardened
    vProbe substitutes 0 for VCPUs whose telemetry it no longer
    trusts, so stale pressure readings cannot pin a VCPU in place.
    """
    if machine.queued_vcpus == len(pcpu.queue):
        return None  # only the thief's own queue holds work: nothing to steal
    if pressure_of is None:
        pressure_of = _recorded_pressure
    hot_window = machine.policy.params.cache_hot_s
    for only_cold in (True, False):
        if not only_cold and (pcpu.current is not None or pcpu.queue):
            # Only a PCPU about to idle falls back to cache-hot steals.
            break
        found = _scan_nodes(machine, pcpu, now, only_cold, hot_window, pressure_of)
        if found is not None:
            # Audit hook: the stolen VCPU still records its victim PCPU
            # (the machine rebinds it afterwards), so the checker can
            # verify steal locality against the untouched local queues.
            if machine.auditor is not None:
                machine.auditor.check_steal(
                    machine, pcpu, found, now, only_cold, hot_window
                )
            return found
    return None


def _recorded_pressure(vcpu: Vcpu) -> float:
    return vcpu.llc_pressure


def _descending_load(pcpu: Pcpu) -> int:
    return -len(pcpu.queue)


def _scan_nodes(machine, pcpu, now, only_cold, hot_window, pressure_of):
    by_node = machine._pcpus_by_node
    for node in machine.topology.visit_order(pcpu.node):
        # loadList: this node's PCPUs by descending workload counter,
        # ties by id (the list is in id order; sorted() is stable).
        for victim in sorted(by_node[node], key=_descending_load):
            if victim is pcpu or not victim.queue:
                continue
            candidates = [
                v
                for v in victim.queue
                if not only_cold or now - v.last_ran_time >= hot_window
            ]
            if not candidates:
                continue
            vcpu = min(candidates, key=pressure_of)
            victim.queue.remove(vcpu)
            machine.log.emit(
                now,
                "numa_steal",
                vcpu=vcpu.name,
                thief=pcpu.pcpu_id,
                victim=victim.pcpu_id,
                local=victim.node == pcpu.node,
            )
            return vcpu
    return None
