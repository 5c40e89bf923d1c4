"""Domain memory placement across NUMA nodes.

Xen allocates a domain's machine memory at creation time; the guest
never learns where its pages landed (the semantic gap of §I).  The
placement is one row per *slice* (one slice per VCPU — the memory a
guest thread predominantly touches), each row a distribution over
nodes saying where that slice's pages physically live, plus the
domain-wide mix.  Rows and mix are plain lists of floats on every
topology, mutated in place.  Every sum over nodes runs left to right
from 0.0, the order numpy's ``sum`` uses below eight elements (never
builtin ``sum``, which Python 3.12 compensates), so each result is
bitwise that of the equivalent numpy expression.

Placement policies provided:

* :func:`place_split` — the evaluation's VM1: memory deliberately split
  across both nodes, slices striped node-by-node;
* :func:`place_single_node` — everything on one node (small VMs);
* :func:`place_interleaved` — uniform page interleave across nodes.

The module also implements the §VI *page migration* extension hook:
:meth:`MemoryPlacement.migrate_slice` moves a fraction of a slice to a
target node and reports the bytes moved so the simulator can charge the
(expensive) copy cost the paper discusses.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.util.validation import check_fraction, check_index, check_positive

__all__ = [
    "MemoryPlacement",
    "place_split",
    "place_single_node",
    "place_interleaved",
]


class MemoryPlacement:
    """Where each memory slice of a domain physically lives.

    Parameters
    ----------
    slice_nodes:
        Array-like of shape ``(num_slices, num_nodes)``; each row must
        be a probability vector (fractions of the slice on each node).

    Attributes
    ----------
    rows:
        ``rows[s][n]`` is the fraction of slice ``s`` on node ``n``.
    overall:
        The domain-wide node mix (the mean of the rows), maintained
        incrementally by every mutation.

    Both are plain lists of floats whose list objects are stable for
    the placement's lifetime: mutations write into them, so a reader
    may hold a reference to a row (the batched engine's replay records
    do).  Treat them as read-only; mutate through :meth:`drift_slice`
    and :meth:`migrate_slice`.
    """

    def __init__(self, slice_nodes: "np.ndarray | Sequence[Sequence[float]]") -> None:
        matrix = np.asarray(slice_nodes, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(f"slice_nodes must be 2-D, got shape {matrix.shape}")
        if matrix.shape[0] < 1 or matrix.shape[1] < 1:
            raise ValueError(f"slice_nodes must be non-empty, got shape {matrix.shape}")
        if np.any(matrix < -1e-12):
            raise ValueError("slice_nodes entries must be non-negative")
        sums = matrix.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ValueError(f"each slice row must sum to 1, got sums {sums}")
        matrix = np.clip(matrix, 0.0, None)
        self.rows: List[List[float]] = matrix.tolist()
        self.overall: List[float] = matrix.mean(axis=0).tolist()

    @property
    def num_slices(self) -> int:
        """Number of memory slices (== VCPUs of the owning domain)."""
        return len(self.rows)

    @property
    def num_nodes(self) -> int:
        """Number of NUMA nodes the placement spans."""
        return len(self.overall)

    def slice_mix(self, slice_id: int) -> List[float]:
        """Node distribution of one slice (a copy)."""
        check_index(slice_id, self.num_slices, "slice_id")
        return list(self.rows[slice_id])

    def overall_mix(self) -> List[float]:
        """Node distribution of the domain's whole memory (a copy)."""
        return list(self.overall)

    def page_mix(self, slice_id: int, concentration: float) -> List[float]:
        """Access-weighted node mix for a VCPU hot in ``slice_id``.

        A VCPU directs ``concentration`` of its accesses at its own
        slice and the rest at the domain's memory at large (shared
        data, guest-kernel structures).
        """
        check_fraction(concentration, "concentration")
        rest = 1.0 - concentration
        mix = [
            concentration * share + rest * whole
            for share, whole in zip(self.rows[slice_id], self.overall)
        ]
        # Normalise defensively against floating-point drift.
        total = 0.0
        for share in mix:
            total += share
        return [share / total for share in mix]

    def home_node(self, slice_id: int) -> int:
        """Node holding the plurality of a slice's pages (lowest id on ties)."""
        check_index(slice_id, self.num_slices, "slice_id")
        row = self.rows[slice_id]
        return max(range(len(row)), key=row.__getitem__)

    def drift_slice(self, slice_id: int, toward_node: int, amount: float) -> None:
        """First-touch drift: move ``amount`` of a slice toward a node.

        Guests continuously allocate, free and re-touch pages; new
        pages are served from the node the touching VCPU currently
        runs on (first-touch).  Over time a slice's placement therefore
        tracks where its VCPU has been running — the locality feedback
        that makes stable placement (vProbe, LB) pay off and NUMA-blind
        churn (stock Credit) keep paying remote costs.

        Unlike :meth:`migrate_slice` this is free: it re-labels where
        *new* pages land rather than copying existing ones.
        """
        check_index(slice_id, self.num_slices, "slice_id")
        check_index(toward_node, self.num_nodes, "toward_node")
        check_fraction(amount, "amount")
        if amount <= 0.0:
            return
        row = self.rows[slice_id]
        overall = self.overall
        num_slices = len(self.rows)
        keep = 1.0 - amount
        for node, old in enumerate(row):
            new = old * keep
            if node == toward_node:
                new = new + amount
            row[node] = new
            overall[node] += (new - old) / num_slices

    def migrate_slice(
        self, slice_id: int, to_node: int, fraction: float, slice_bytes: float
    ) -> float:
        """Move ``fraction`` of a slice's pages to ``to_node``.

        Implements the §VI page-migration extension.  Returns the bytes
        moved so callers can charge the copy cost.
        """
        check_index(slice_id, self.num_slices, "slice_id")
        check_index(to_node, self.num_nodes, "to_node")
        check_fraction(fraction, "fraction")
        check_positive(slice_bytes, "slice_bytes")
        row = self.rows[slice_id]
        moved_fraction = fraction * (1.0 - row[to_node])
        keep = 1.0 - fraction
        moved = [share * keep for share in row]
        moved[to_node] += fraction
        # Re-normalise (guards accumulation of rounding error).
        total = 0.0
        for share in moved:
            total += share
        overall = self.overall
        num_slices = len(self.rows)
        for node, old in enumerate(row):
            new = moved[node] / total
            row[node] = new
            overall[node] += (new - old) / num_slices
        return moved_fraction * slice_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MemoryPlacement(slices={self.num_slices}, nodes={self.num_nodes})"


def place_split(num_slices: int, num_nodes: int) -> MemoryPlacement:
    """Stripe slices across nodes: slice ``i`` wholly on node ``i % N``.

    Models the evaluation's VM1 whose 15 GB is "split into two nodes to
    provide a more variable and complicated runtime environment".
    """
    if num_slices <= 0 or num_nodes <= 0:
        raise ValueError("num_slices and num_nodes must be > 0")
    matrix = np.zeros((num_slices, num_nodes))
    for i in range(num_slices):
        matrix[i, i % num_nodes] = 1.0
    return MemoryPlacement(matrix)


def place_single_node(num_slices: int, num_nodes: int, node: int) -> MemoryPlacement:
    """All slices on one node (how Xen places small VMs by default)."""
    if num_slices <= 0 or num_nodes <= 0:
        raise ValueError("num_slices and num_nodes must be > 0")
    check_index(node, num_nodes, "node")
    matrix = np.zeros((num_slices, num_nodes))
    matrix[:, node] = 1.0
    return MemoryPlacement(matrix)


def place_interleaved(num_slices: int, num_nodes: int) -> MemoryPlacement:
    """Uniform page interleave: every slice spread evenly over nodes."""
    if num_slices <= 0 or num_nodes <= 0:
        raise ValueError("num_slices and num_nodes must be > 0")
    matrix = np.full((num_slices, num_nodes), 1.0 / num_nodes)
    return MemoryPlacement(matrix)


def place_weighted(weights: Sequence[Sequence[float]]) -> MemoryPlacement:
    """Arbitrary placement from explicit per-slice node weights."""
    matrix = np.asarray(weights, dtype=float)
    rows = matrix.sum(axis=1, keepdims=True)
    if np.any(rows <= 0):
        raise ValueError("each slice needs positive total weight")
    return MemoryPlacement(matrix / rows)
