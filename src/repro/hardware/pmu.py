"""Virtualised performance-monitoring-unit (PMU) counters.

The paper patches Xen with Perfctr-Xen so each VCPU gets its own view of
the hardware counters: LLC references, retired instructions, and
local/remote memory access counts, saved and restored around context
switches and refreshed every 10 ms while a VCPU burns credits.

In the simulator, counter values are *produced by* the same cache and
memory models that determine performance, so the measurement loop is
closed just as on hardware: what vProbe observes is exactly what the
machine model did.  The hypervisor-side cost of reading and switching
counters is charged separately (see ``collection_cost_s``), feeding the
overhead accounting of Table III.

Every counter, the per-node access counts included, is a plain Python
float: the batched engine's replay adds to a bank in place, exactly as
:meth:`PMU.charge` does, so there is no second copy of any counter to
keep in step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.util.validation import check_index, check_non_negative

__all__ = ["VcpuCounters", "PMU"]


@dataclass(slots=True)
class VcpuCounters:
    """Cumulative counters for one VCPU.

    Attributes
    ----------
    instructions:
        Retired instructions.
    llc_refs:
        Last-level cache references.
    llc_misses:
        Last-level cache misses.
    node_accesses:
        Per-node DRAM accesses attributed to this VCPU (where the page
        lived): a list of ``num_nodes`` floats.
    local_accesses / remote_accesses:
        DRAM accesses split by whether the serving node matched the
        node the VCPU was running on at the time.
    """

    num_nodes: int
    instructions: float = 0.0
    llc_refs: float = 0.0
    llc_misses: float = 0.0
    node_accesses: List[float] = field(default=None)  # type: ignore[assignment]
    local_accesses: float = 0.0
    remote_accesses: float = 0.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError(f"num_nodes must be > 0, got {self.num_nodes}")
        if self.node_accesses is None:
            self.node_accesses = [0.0] * self.num_nodes

    def copy(self) -> "VcpuCounters":
        """Deep copy (node_accesses is duplicated)."""
        return VcpuCounters(
            num_nodes=self.num_nodes,
            instructions=self.instructions,
            llc_refs=self.llc_refs,
            llc_misses=self.llc_misses,
            node_accesses=list(self.node_accesses),
            local_accesses=self.local_accesses,
            remote_accesses=self.remote_accesses,
        )

    def delta(self, baseline: "VcpuCounters") -> "VcpuCounters":
        """Counters accumulated since ``baseline`` was captured."""
        if baseline.num_nodes != self.num_nodes:
            raise ValueError("baseline has a different node count")
        return VcpuCounters(
            num_nodes=self.num_nodes,
            instructions=self.instructions - baseline.instructions,
            llc_refs=self.llc_refs - baseline.llc_refs,
            llc_misses=self.llc_misses - baseline.llc_misses,
            node_accesses=[
                a - b for a, b in zip(self.node_accesses, baseline.node_accesses)
            ],
            local_accesses=self.local_accesses - baseline.local_accesses,
            remote_accesses=self.remote_accesses - baseline.remote_accesses,
        )

    @property
    def total_accesses(self) -> float:
        """Total DRAM accesses (local + remote)."""
        return self.local_accesses + self.remote_accesses

    def remote_ratio(self) -> float:
        """Remote share of DRAM accesses (0 when there were none)."""
        total = self.total_accesses
        return self.remote_accesses / total if total > 0 else 0.0


class PMU:
    """Counter banks for all VCPUs, plus sampling-window bookkeeping.

    Parameters
    ----------
    num_nodes:
        Node count, fixing the length of per-node access vectors.
    collection_cost_s:
        Hypervisor time charged per counter collection event (context
        switch save/restore or 10 ms refresh).  Feeds Table III.
    """

    def __init__(self, num_nodes: int, collection_cost_s: float = 2.0e-6) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be > 0, got {num_nodes}")
        self.num_nodes = num_nodes
        self.collection_cost_s = check_non_negative(collection_cost_s, "collection_cost_s")
        self._counters: Dict[int, VcpuCounters] = {}
        self._window_base: Dict[int, VcpuCounters] = {}
        self._collection_events = 0

    def register(self, vcpu_key: int) -> None:
        """Create counter banks for a VCPU (idempotent)."""
        if vcpu_key in self._counters:
            return
        self._counters[vcpu_key] = VcpuCounters(self.num_nodes)
        self._window_base[vcpu_key] = VcpuCounters(self.num_nodes)

    def unregister(self, vcpu_key: int) -> None:
        """Drop a VCPU's banks (domain destroyed)."""
        self._counters.pop(vcpu_key, None)
        self._window_base.pop(vcpu_key, None)

    def known(self) -> Tuple[int, ...]:
        """Registered VCPU keys (sorted)."""
        return tuple(sorted(self._counters))

    def __contains__(self, vcpu_key: int) -> bool:
        return vcpu_key in self._counters

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._counters))

    # ------------------------------------------------------------------
    # Charging (called by the simulator's progress pass)
    # ------------------------------------------------------------------
    def charge(
        self,
        vcpu_key: int,
        *,
        instructions: float,
        llc_refs: float,
        llc_misses: float,
        node_access_share: Sequence[float],
        run_node: int,
    ) -> None:
        """Accumulate one epoch's activity into a VCPU's bank.

        Parameters
        ----------
        instructions, llc_refs, llc_misses:
            Event counts for the epoch.
        node_access_share:
            Probability vector over nodes: where the epoch's DRAM
            accesses were served.
        run_node:
            Node the VCPU ran on, splitting local vs remote.
        """
        check_non_negative(instructions, "instructions")
        check_non_negative(llc_refs, "llc_refs")
        check_non_negative(llc_misses, "llc_misses")
        check_index(run_node, self.num_nodes, "run_node")
        bank = self._counters.get(vcpu_key)
        if bank is None:
            raise KeyError(f"vcpu {vcpu_key} is not registered with the PMU")
        if len(node_access_share) != self.num_nodes:
            raise ValueError("node_access_share length must equal num_nodes")
        bank.instructions += instructions
        bank.llc_refs += llc_refs
        bank.llc_misses += llc_misses
        # Left-to-right sum from 0.0: the order numpy's ``sum`` uses
        # below eight elements, which the batched replay inlines.
        node_accesses = bank.node_accesses
        total = 0.0
        local = 0.0
        for node, share in enumerate(node_access_share):
            accesses = llc_misses * float(share)
            node_accesses[node] += accesses
            total += accesses
            if node == run_node:
                local = accesses
        bank.local_accesses += local
        bank.remote_accesses += total - local

    # ------------------------------------------------------------------
    # Reading (called by schedulers; costs hypervisor time)
    # ------------------------------------------------------------------
    def record_collection(self, events: int = 1) -> float:
        """Account ``events`` counter collections; returns time cost (s).

        Called on context switches and 10 ms refreshes, mirroring the
        Perfctr-Xen update points described in §IV-B.
        """
        if events < 0:
            raise ValueError(f"events must be >= 0, got {events}")
        self._collection_events += events
        return events * self.collection_cost_s

    @property
    def collection_events(self) -> int:
        """Total counter-collection events so far."""
        return self._collection_events

    def totals(self, vcpu_key: int) -> VcpuCounters:
        """Cumulative counters for a VCPU (a defensive copy)."""
        return self._counters[vcpu_key].copy()

    def peek(self, vcpu_key: int) -> VcpuCounters:
        """The live cumulative bank for a VCPU, *no copy*.

        For hot paths where :meth:`totals`'s defensive copy would
        dominate the cost: the audit layer's per-epoch checks read it,
        and the batched engine's replay charges it in place, with the
        arithmetic of :meth:`charge`.  No other caller may mutate it.
        """
        return self._counters[vcpu_key]

    def peek_window_base(self, vcpu_key: int) -> VcpuCounters:
        """The live window-base bank for a VCPU, *no copy* (read-only)."""
        return self._window_base[vcpu_key]

    def window(self, vcpu_key: int) -> VcpuCounters:
        """Counters accumulated in the current sampling window."""
        return self._counters[vcpu_key].delta(self._window_base[vcpu_key])

    def end_window(self, vcpu_key: int) -> VcpuCounters:
        """Close the sampling window: return its delta and start a new one."""
        delta = self.window(vcpu_key)
        self._window_base[vcpu_key] = self._counters[vcpu_key].copy()
        return delta
