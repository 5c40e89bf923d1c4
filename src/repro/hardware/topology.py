"""NUMA machine topology.

The topology is the static description every other hardware model hangs
off: nodes, PCPUs per node, LLC capacity per node (one LLC per socket on
the paper's Xeon E5620), per-node memory capacity, and the node distance
matrix used to decide local vs remote accesses.

The default topology, :func:`xeon_e5620`, encodes Table I of the paper:

============  =============================================
Cores         4 per socket, 2 sockets
Clock         2.40 GHz
L3 (LLC)      12 MB unified, shared by the 4 cores of a socket
IMC           25.6 GB/s per node, 2 nodes, 12 GB memory each
QPI           2 links, 5.86 GT/s
============  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.util.validation import check_index, check_positive

__all__ = ["NodeSpec", "NUMATopology", "xeon_e5620", "symmetric_topology"]

#: Bytes per simulated memory page (4 KiB, matching x86).
PAGE_SIZE = 4096

#: One gibibyte, for readability of capacity constants.
GIB = 1024**3

#: One mebibyte.
MIB = 1024**2


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """Static description of one NUMA node (socket).

    Attributes
    ----------
    node_id:
        Index of the node, ``0 <= node_id < num_nodes``.
    num_pcpus:
        Physical CPUs (cores) on this node.
    llc_bytes:
        Capacity of the last-level cache shared by this node's cores.
    memory_bytes:
        DRAM attached to this node's memory controller.
    imc_bandwidth:
        Peak IMC bandwidth in bytes/second.
    clock_hz:
        Core clock frequency.
    """

    node_id: int
    num_pcpus: int
    llc_bytes: int
    memory_bytes: int
    imc_bandwidth: float
    clock_hz: float

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be >= 0, got {self.node_id}")
        if self.num_pcpus <= 0:
            raise ValueError(f"num_pcpus must be > 0, got {self.num_pcpus}")
        check_positive(self.llc_bytes, "llc_bytes")
        check_positive(self.memory_bytes, "memory_bytes")
        check_positive(self.imc_bandwidth, "imc_bandwidth")
        check_positive(self.clock_hz, "clock_hz")

    @property
    def memory_pages(self) -> int:
        """Number of whole pages this node's DRAM holds."""
        return self.memory_bytes // PAGE_SIZE


class NUMATopology:
    """A NUMA machine: a list of nodes plus interconnect description.

    PCPUs are globally numbered ``0 .. num_pcpus-1`` in node order:
    node 0 owns PCPUs ``0 .. n0-1``, node 1 the next ``n1``, and so on.

    Parameters
    ----------
    nodes:
        Per-node specifications.  Node ids must be ``0..len(nodes)-1``
        in order.
    qpi_links:
        Number of interconnect links between the sockets.
    qpi_bandwidth:
        Aggregate interconnect bandwidth in bytes/second (all links).
    name:
        Human-readable label for reports.
    """

    def __init__(
        self,
        nodes: Sequence[NodeSpec],
        qpi_links: int = 2,
        qpi_bandwidth: float = 12.8e9,
        name: str = "numa",
    ) -> None:
        if not nodes:
            raise ValueError("topology needs at least one node")
        for i, node in enumerate(nodes):
            if node.node_id != i:
                raise ValueError(
                    f"nodes must be listed in id order: position {i} has id {node.node_id}"
                )
        if qpi_links <= 0:
            raise ValueError(f"qpi_links must be > 0, got {qpi_links}")
        check_positive(qpi_bandwidth, "qpi_bandwidth")

        self.nodes: Tuple[NodeSpec, ...] = tuple(nodes)
        self.qpi_links = qpi_links
        self.qpi_bandwidth = float(qpi_bandwidth)
        self.name = name

        self._pcpu_node: List[int] = []
        self._node_pcpus: List[Tuple[int, ...]] = []
        next_pcpu = 0
        for node in self.nodes:
            ids = tuple(range(next_pcpu, next_pcpu + node.num_pcpus))
            self._node_pcpus.append(ids)
            self._pcpu_node.extend([node.node_id] * node.num_pcpus)
            next_pcpu += node.num_pcpus
        self._visit_order = [
            (h,) + tuple(
                sorted(self.remote_nodes(h), key=lambda n, h=h: (self.distance(h, n), n))
            )
            for h in range(self.num_nodes)
        ]

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of NUMA nodes."""
        return len(self.nodes)

    @property
    def num_pcpus(self) -> int:
        """Total physical CPUs across all nodes."""
        return len(self._pcpu_node)

    @property
    def total_memory_bytes(self) -> int:
        """Total DRAM across all nodes."""
        return sum(n.memory_bytes for n in self.nodes)

    def node_of_pcpu(self, pcpu_id: int) -> int:
        """NUMA node that owns ``pcpu_id``."""
        check_index(pcpu_id, self.num_pcpus, "pcpu_id")
        return self._pcpu_node[pcpu_id]

    def pcpus_of_node(self, node_id: int) -> Tuple[int, ...]:
        """PCPU ids belonging to ``node_id`` (ascending)."""
        check_index(node_id, self.num_nodes, "node_id")
        return self._node_pcpus[node_id]

    def peer_pcpus(self, pcpu_id: int) -> Tuple[int, ...]:
        """Other PCPUs on the same node as ``pcpu_id``."""
        node = self.node_of_pcpu(pcpu_id)
        return tuple(p for p in self._node_pcpus[node] if p != pcpu_id)

    def remote_nodes(self, node_id: int) -> Tuple[int, ...]:
        """All node ids other than ``node_id`` (ascending)."""
        check_index(node_id, self.num_nodes, "node_id")
        return tuple(n for n in range(self.num_nodes) if n != node_id)

    def visit_order(self, node_id: int) -> Tuple[int, ...]:
        """Steal scan order for a PCPU on ``node_id``: that node, then
        the others by distance then id (Algorithm 2's ``nextNode()``;
        on the paper's two-socket host, simply local then remote)."""
        return self._visit_order[node_id]

    def distance(self, from_node: int, to_node: int) -> int:
        """Hop distance between nodes (0 = same node, 1 = one hop).

        The paper's platform is two sockets joined by QPI, so the matrix
        is 0 on the diagonal and 1 elsewhere; larger synthetic
        topologies keep that flat remote distance, which matches a
        fully-connected interconnect.
        """
        check_index(from_node, self.num_nodes, "from_node")
        check_index(to_node, self.num_nodes, "to_node")
        return 0 if from_node == to_node else 1

    def same_node(self, pcpu_a: int, pcpu_b: int) -> bool:
        """True when both PCPUs share a NUMA node."""
        return self.node_of_pcpu(pcpu_a) == self.node_of_pcpu(pcpu_b)

    def describe(self) -> str:
        """Multi-line human-readable summary (used by reports/README)."""
        lines = [f"topology {self.name!r}: {self.num_nodes} nodes, {self.num_pcpus} pcpus"]
        for node in self.nodes:
            lines.append(
                f"  node {node.node_id}: {node.num_pcpus} pcpus, "
                f"LLC {node.llc_bytes // MIB} MiB, "
                f"mem {node.memory_bytes // GIB} GiB, "
                f"IMC {node.imc_bandwidth / 1e9:.1f} GB/s"
            )
        lines.append(
            f"  interconnect: {self.qpi_links} links, "
            f"{self.qpi_bandwidth / 1e9:.1f} GB/s aggregate"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NUMATopology(name={self.name!r}, nodes={self.num_nodes}, pcpus={self.num_pcpus})"


def xeon_e5620(memory_per_node_gib: int = 12) -> NUMATopology:
    """The paper's Table I host: 2 sockets x 4 cores Xeon E5620.

    Parameters
    ----------
    memory_per_node_gib:
        DRAM per node; the paper's host has 12 GB per node.
    """
    nodes = [
        NodeSpec(
            node_id=i,
            num_pcpus=4,
            llc_bytes=12 * MIB,
            memory_bytes=memory_per_node_gib * GIB,
            # Table I lists 25.6 GB/s peak per IMC; ~50% of peak is the
            # realistic sustained random-access figure the queueing
            # model should saturate against.
            imc_bandwidth=12.8e9,
            clock_hz=2.40e9,
        )
        for i in range(2)
    ]
    # 2 QPI links at 5.86 GT/s are ~11.7 GB/s raw each, but snoop and
    # coherence traffic leave only a few GB/s of usable cross-socket
    # *data* bandwidth on Westmere-EP; 4 GB/s effective is the level at
    # which measured remote-streaming studies on this platform saturate.
    return NUMATopology(nodes, qpi_links=2, qpi_bandwidth=4.0e9, name="xeon-e5620")


def symmetric_topology(
    num_nodes: int,
    pcpus_per_node: int,
    llc_mib: int = 12,
    memory_per_node_gib: int = 12,
    imc_bandwidth: float = 25.6e9,
    clock_hz: float = 2.4e9,
    qpi_bandwidth: float = 12.8e9,
) -> NUMATopology:
    """Build a symmetric N-node topology for scaling studies and tests."""
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be > 0, got {num_nodes}")
    if pcpus_per_node <= 0:
        raise ValueError(f"pcpus_per_node must be > 0, got {pcpus_per_node}")
    nodes = [
        NodeSpec(
            node_id=i,
            num_pcpus=pcpus_per_node,
            llc_bytes=llc_mib * MIB,
            memory_bytes=memory_per_node_gib * GIB,
            imc_bandwidth=imc_bandwidth,
            clock_hz=clock_hz,
        )
        for i in range(num_nodes)
    ]
    return NUMATopology(
        nodes,
        qpi_links=max(1, num_nodes - 1),
        qpi_bandwidth=qpi_bandwidth,
        name=f"sym-{num_nodes}x{pcpus_per_node}",
    )
