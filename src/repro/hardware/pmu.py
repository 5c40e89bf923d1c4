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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

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
        lived), length ``num_nodes``.
    local_accesses / remote_accesses:
        DRAM accesses split by whether the serving node matched the
        node the VCPU was running on at the time.
    """

    num_nodes: int
    instructions: float = 0.0
    llc_refs: float = 0.0
    llc_misses: float = 0.0
    node_accesses: np.ndarray = field(default=None)  # type: ignore[assignment]
    local_accesses: float = 0.0
    remote_accesses: float = 0.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError(f"num_nodes must be > 0, got {self.num_nodes}")
        if self.node_accesses is None:
            self.node_accesses = np.zeros(self.num_nodes)

    def copy(self) -> "VcpuCounters":
        """Deep copy (node_accesses is duplicated)."""
        return VcpuCounters(
            num_nodes=self.num_nodes,
            instructions=self.instructions,
            llc_refs=self.llc_refs,
            llc_misses=self.llc_misses,
            node_accesses=self.node_accesses.copy(),
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
            node_accesses=self.node_accesses - baseline.node_accesses,
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
        # Structure-of-arrays storage for the per-node access counters:
        # each registered bank's ``node_accesses`` is a row view into
        # this matrix, so the per-epoch batch charge lands with a single
        # fancy-indexed add instead of one ndarray add per bank.
        self._row_of: Dict[int, int] = {}
        self._node_matrix = np.zeros((0, num_nodes))

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Re-establish the row-view invariant.  Pickle serializes each
        # bank's ``node_accesses`` view as an independent array, so a
        # restored PMU would have banks detached from ``_node_matrix``:
        # batched ``charge_epoch`` scatter-adds would land in the matrix
        # while every reader (window deltas, affinity) kept seeing the
        # bank's frozen copy.  Rebinding on restore is exactly what
        # :meth:`register` does after a matrix reallocation.
        for key, bank in self._counters.items():
            bank.node_accesses = self._node_matrix[self._row_of[key]]

    def register(self, vcpu_key: int) -> None:
        """Create counter banks for a VCPU (idempotent)."""
        if vcpu_key in self._counters:
            return
        row = self._row_of.get(vcpu_key)
        if row is None:
            row = len(self._row_of)
            self._row_of[vcpu_key] = row
            if row >= self._node_matrix.shape[0]:
                grown = np.zeros(
                    (max(8, 2 * self._node_matrix.shape[0]), self.num_nodes)
                )
                grown[: self._node_matrix.shape[0]] = self._node_matrix
                self._node_matrix = grown
                # Rebind live banks onto the reallocated matrix.
                for key, bank in self._counters.items():
                    bank.node_accesses = self._node_matrix[self._row_of[key]]
        bank = VcpuCounters(self.num_nodes)
        self._node_matrix[row] = 0.0
        bank.node_accesses = self._node_matrix[row]
        self._counters[vcpu_key] = bank
        self._window_base[vcpu_key] = VcpuCounters(self.num_nodes)

    def unregister(self, vcpu_key: int) -> None:
        """Drop a VCPU's banks (domain destroyed).

        The VCPU's matrix row stays reserved and is recycled if the key
        ever re-registers.
        """
        self._counters.pop(vcpu_key, None)
        self._window_base.pop(vcpu_key, None)

    def rows_for(self, keys: Sequence[int]) -> np.ndarray:
        """Matrix row indices for ``keys`` (cacheable by batch chargers).

        Valid until any of the keys is unregistered; rows survive
        matrix growth from later registrations.
        """
        return np.array([self._row_of[key] for key in keys])

    def banks_for(self, keys: Sequence[int]) -> List[VcpuCounters]:
        """Live counter banks for ``keys`` (cacheable by batch chargers).

        Valid until any of the keys is unregistered; the bank objects
        are stable across matrix growth (only their ``node_accesses``
        views are rebound).
        """
        counters = self._counters
        return [counters[key] for key in keys]

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
        node_access_share: np.ndarray,
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
        accesses = llc_misses * np.asarray(node_access_share, dtype=float)
        bank.node_accesses += accesses
        local = float(accesses[run_node])
        bank.local_accesses += local
        bank.remote_accesses += float(accesses.sum()) - local

    def charge_epoch(
        self,
        keys: Sequence[int],
        instructions: Sequence[float],
        llc_refs: Sequence[float],
        llc_misses: Sequence[float],
        accesses: "np.ndarray | Sequence[Sequence[float]]",
        run_nodes: Sequence[int],
        rows: "np.ndarray | None" = None,
    ) -> None:
        """Batched, validation-free :meth:`charge` for one epoch.

        Positional arrays over the k VCPUs that ran: ``accesses`` has
        shape ``(k, num_nodes)`` — an ndarray or a nested list — and
        already equals ``llc_misses[i] * node_access_share[i]`` rowwise;
        the caller computes it elementwise, which is bitwise-identical
        to the scalar path.  ``rows``, when given, must be
        ``rows_for(keys)`` (callers with a stable running set cache
        it).  Bank accumulation order matches per-VCPU charges.
        """
        if rows is None:
            row_of = self._row_of
            rows = np.array([row_of[key] for key in keys])
        # One scatter-add into the SoA matrix covers every bank's
        # node_accesses (each bank's vector is a row view); keys are
        # distinct, so the fancy-indexed add is an elementwise add per
        # row — the same bits as per-bank `+=`.
        if isinstance(accesses, np.ndarray):
            self._node_matrix[rows] += accesses
            # Row sums and local shares as Python floats: numpy reduces
            # a contiguous row with the same routine whether summed
            # alone or along axis 1, so these equal float(row[n]) /
            # float(row.sum()) bit for bit.
            acc_rows = accesses.tolist()
            row_sums = accesses.sum(axis=1).tolist()
        else:
            acc_rows = accesses
            self._node_matrix[rows] += np.asarray(acc_rows)
            if self.num_nodes == 2:
                # A two-element numpy reduction is a single sequential
                # add — the same bits as the scalar sum.
                row_sums = [row[0] + row[1] for row in acc_rows]
            else:
                row_sums = np.asarray(acc_rows).sum(axis=1).tolist()
        counters = self._counters
        for i, key in enumerate(keys):
            bank = counters[key]
            bank.instructions += instructions[i]
            bank.llc_refs += llc_refs[i]
            bank.llc_misses += llc_misses[i]
            local = acc_rows[i][run_nodes[i]]
            bank.local_accesses += local
            bank.remote_accesses += row_sums[i] - local

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

        For read-only hot paths (the audit layer's per-epoch
        monotonicity checks) where :meth:`totals`'s defensive copy
        would dominate the cost.  Callers must not mutate the result.
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
