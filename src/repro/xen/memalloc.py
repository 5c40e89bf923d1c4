"""Domain memory placement across NUMA nodes.

Xen allocates a domain's machine memory at creation time; the guest
never learns where its pages landed (the semantic gap of §I).  The
placement is modelled as a matrix: one row per *slice* (one slice per
VCPU — the memory a guest thread predominantly touches), each row a
distribution over nodes saying where that slice's pages physically
live.

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

from typing import Sequence

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
        Array of shape ``(num_slices, num_nodes)``; each row must be a
        probability vector (fractions of the slice on each node).
    """

    def __init__(self, slice_nodes: np.ndarray) -> None:
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
        self._matrix = np.clip(matrix, 0.0, None)
        # Overall mix is read every epoch (page_mix); maintain it
        # incrementally instead of re-averaging the matrix each call.
        self._overall = self._matrix.mean(axis=0)
        # Dual-socket hot-path mirror: plain Python lists shadowing the
        # matrix rows and overall mix.  First-touch drift (the per-epoch
        # mutation) updates only the mirror; the ndarrays are synced
        # lazily when an array reader shows up.  The list *objects* are
        # stable for the placement's lifetime, so hot-path callers may
        # cache row references.
        if self._matrix.shape[1] == 2:
            self._rows2: "list[list[float]] | None" = self._matrix.tolist()
            self._over2: "list[float] | None" = self._overall.tolist()
        else:
            self._rows2 = None
            self._over2 = None
        self._np_stale = False

    def _sync_np(self) -> None:
        """Write pending mirror updates back into the ndarrays."""
        if not self._np_stale:
            return
        matrix = self._matrix
        for i, row in enumerate(self._rows2):
            matrix[i, 0] = row[0]
            matrix[i, 1] = row[1]
        self._overall[0] = self._over2[0]
        self._overall[1] = self._over2[1]
        self._np_stale = False

    def _refresh_mirror(self) -> None:
        """Reload the mirror from the ndarrays after an array-side write.

        Updates the existing list objects in place so cached row
        references stay valid.
        """
        if self._rows2 is None:
            return
        vals = self._matrix.tolist()
        for row, src in zip(self._rows2, vals):
            row[0] = src[0]
            row[1] = src[1]
        self._over2[0] = float(self._overall[0])
        self._over2[1] = float(self._overall[1])
        self._np_stale = False

    @property
    def matrix(self) -> np.ndarray:
        """Raw ``(num_slices, num_nodes)`` placement matrix.

        A live view, synced from the dual-socket mirror first — treat
        as read-only; mutate through :meth:`drift_slice` /
        :meth:`migrate_slice` so ``_overall`` stays consistent.
        """
        self._sync_np()
        return self._matrix

    @property
    def overall(self) -> np.ndarray:
        """Raw overall node mix (live view; treat as read-only)."""
        self._sync_np()
        return self._overall

    @property
    def num_slices(self) -> int:
        """Number of memory slices (== VCPUs of the owning domain)."""
        return self._matrix.shape[0]

    @property
    def num_nodes(self) -> int:
        """Number of NUMA nodes the placement spans."""
        return self._matrix.shape[1]

    def slice_mix(self, slice_id: int) -> np.ndarray:
        """Node distribution of one slice (a copy)."""
        check_index(slice_id, self.num_slices, "slice_id")
        self._sync_np()
        return self._matrix[slice_id].copy()

    def overall_mix(self) -> np.ndarray:
        """Node distribution of the domain's whole memory (a copy)."""
        self._sync_np()
        return self._overall.copy()

    def page_mix(self, slice_id: int, concentration: float) -> np.ndarray:
        """Access-weighted node mix for a VCPU hot in ``slice_id``.

        A VCPU directs ``concentration`` of its accesses at its own
        slice and the rest at the domain's memory at large (shared
        data, guest-kernel structures).
        """
        check_fraction(concentration, "concentration")
        self._sync_np()
        mix = (
            concentration * self._matrix[slice_id]
            + (1.0 - concentration) * self._overall
        )
        # Normalise defensively against floating-point drift.
        return mix / mix.sum()

    def home_node(self, slice_id: int) -> int:
        """Node holding the plurality of a slice's pages."""
        check_index(slice_id, self.num_slices, "slice_id")
        self._sync_np()
        return int(np.argmax(self._matrix[slice_id]))

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
        rows = self._rows2
        if rows is not None:
            # Dual-socket fast path: the same elementwise operations on
            # Python scalars against the list mirror; the ndarrays are
            # synced lazily on the next array read.
            row = rows[slice_id]
            r0 = row[0]
            r1 = row[1]
            keep = 1.0 - amount
            n0 = r0 * keep
            n1 = r1 * keep
            if toward_node == 0:
                n0 = n0 + amount
            else:
                n1 = n1 + amount
            row[0] = n0
            row[1] = n1
            num_slices = len(rows)
            overall = self._over2
            overall[0] += (n0 - r0) / num_slices
            overall[1] += (n1 - r1) / num_slices
            self._np_stale = True
            return
        row = self._matrix[slice_id]
        before = row.copy()
        row *= 1.0 - amount
        row[toward_node] += amount
        self._overall += (row - before) / self.num_slices

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
        self._sync_np()
        row = self._matrix[slice_id]
        moved_fraction = fraction * (1.0 - row[to_node])
        before = row.copy()
        row *= 1.0 - fraction
        row[to_node] += fraction
        # Re-normalise (guards accumulation of rounding error).
        row /= row.sum()
        self._overall += (row - before) / self.num_slices
        self._refresh_mirror()
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
