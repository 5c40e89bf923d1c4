"""Physical CPU: run queue, current VCPU, and the ``workload`` counter.

§IV-B adds a ``workload`` variable to each PCPU — the number of VCPUs
in its run queue, maintained on insert/remove — which the NUMA-aware
load balancer uses to visit the most loaded peer first.  Here the
counter is simply the queue length, so it can never drift.
"""

from __future__ import annotations

from typing import List, Optional

from repro.xen.runqueue import RunQueue
from repro.xen.vcpu import Vcpu

__all__ = ["Pcpu"]


class Pcpu:
    """One physical CPU.

    Parameters
    ----------
    pcpu_id:
        Global PCPU index.
    node:
        NUMA node the PCPU belongs to.
    queued:
        The machine's shared queued count (see :class:`RunQueue`).
    """

    __slots__ = ("pcpu_id", "node", "queue", "current", "overhead_pending_s", "busy_time_s")

    def __init__(self, pcpu_id: int, node: int, queued: Optional[List[int]] = None) -> None:
        self.pcpu_id = pcpu_id
        self.node = node
        self.queue = RunQueue(queued)
        self.current: Optional[Vcpu] = None
        #: hypervisor overhead seconds to deduct from upcoming epochs
        self.overhead_pending_s: float = 0.0
        #: cumulative seconds spent running guest VCPUs
        self.busy_time_s: float = 0.0

    @property
    def workload(self) -> int:
        """The §IV-B per-PCPU load counter: run-queue length."""
        return len(self.queue)

    @property
    def idle(self) -> bool:
        """True when nothing is running here."""
        return self.current is None

    @property
    def load_with_current(self) -> int:
        """Queue length plus the running VCPU (for balance decisions)."""
        return len(self.queue) + (0 if self.current is None else 1)

    def charge_overhead(self, seconds: float) -> None:
        """Schedule hypervisor overhead to steal compute time here."""
        if seconds < 0:
            raise ValueError(f"overhead must be >= 0, got {seconds}")
        self.overhead_pending_s += seconds

    def consume_overhead(self, budget_s: float) -> float:
        """Deduct pending overhead from an epoch's compute budget.

        Returns the compute time remaining after overhead.
        """
        if budget_s < 0:
            raise ValueError(f"budget must be >= 0, got {budget_s}")
        used = min(self.overhead_pending_s, budget_s)
        self.overhead_pending_s -= used
        return budget_s - used

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cur = self.current.name if self.current else "-"
        return f"Pcpu({self.pcpu_id}, node={self.node}, current={cur}, queued={len(self.queue)})"
