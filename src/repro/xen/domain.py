"""Domains (virtual machines).

A domain bundles its VCPUs' workloads with a memory placement.  The
hypervisor-side view is deliberately thin — per the transparency goal
of the paper, the scheduler never looks inside a domain beyond its
VCPUs' PMU signatures.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.workloads.appmodel import ApplicationProfile, VcpuWorkload
from repro.xen.memalloc import MemoryPlacement
from repro.xen.vcpu import Vcpu
from repro.util.rng import RngStreams
from repro.util.validation import check_positive

__all__ = ["Domain"]


class Domain:
    """One virtual machine.

    Parameters
    ----------
    name:
        Identifier used in reports (``vm1`` ... in the experiments).
    memory_bytes:
        Configured guest memory (drives placement slice sizes).
    placement:
        Where the domain's memory physically lives.
    workloads:
        One :class:`VcpuWorkload` per VCPU; the placement must have the
        same number of slices.
    weight:
        Credit-scheduler weight (all domains equal in the paper).
    pinned_pcpus:
        Optional explicit initial PCPU per VCPU (length ``num_vcpus``).
        Used by calibration scenarios that pin a VCPU (§IV-A); normal
        domains start NUMA-blind wherever the hypervisor puts them.
    first_touch_init:
        When True (default), each memory slice is re-homed at domain
        creation to the node of its VCPU's initial PCPU — the guest
        faults its data in from wherever its threads first run, so a
        freshly booted workload always starts *consistent*.  Scheduler
        quality then shows up in how that consistency is preserved
        (vProbe/LB) or destroyed (NUMA-blind Credit).  Pass False to
        keep the explicit ``placement`` matrix untouched.
    """

    def __init__(
        self,
        name: str,
        memory_bytes: float,
        placement: MemoryPlacement,
        workloads: Sequence[VcpuWorkload],
        weight: float = 256.0,
        pinned_pcpus: Optional[Sequence[int]] = None,
        first_touch_init: bool = True,
    ) -> None:
        if not name:
            raise ValueError("domain name must be non-empty")
        check_positive(memory_bytes, "memory_bytes")
        check_positive(weight, "weight")
        if not workloads:
            raise ValueError("a domain needs at least one VCPU workload")
        if placement.num_slices != len(workloads):
            raise ValueError(
                f"placement has {placement.num_slices} slices but domain has "
                f"{len(workloads)} VCPUs; they must match"
            )
        if pinned_pcpus is not None and len(pinned_pcpus) != len(workloads):
            raise ValueError(
                f"pinned_pcpus has {len(pinned_pcpus)} entries for "
                f"{len(workloads)} VCPUs"
            )
        self.name = name
        self.memory_bytes = float(memory_bytes)
        self.placement = placement
        self.workloads: List[VcpuWorkload] = list(workloads)
        self.weight = float(weight)
        self.pinned_pcpus = list(pinned_pcpus) if pinned_pcpus is not None else None
        self.first_touch_init = first_touch_init
        self.vcpus: List[Vcpu] = []  # populated by Machine.add_domain

    # ------------------------------------------------------------------
    # Construction helper
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        name: str,
        memory_bytes: float,
        placement: MemoryPlacement,
        profile: ApplicationProfile,
        num_vcpus: int,
        active_vcpus: Optional[int] = None,
        rng: Optional[RngStreams] = None,
        weight: float = 256.0,
    ) -> "Domain":
        """A domain whose active VCPUs all run the same profile.

        Parameters
        ----------
        num_vcpus:
            Total guest VCPUs.
        active_vcpus:
            How many actually run the application (a 4-threaded NPB job
            in an 8-VCPU guest leaves 4 VCPUs idle); default all.
        rng:
            Stream registry; each VCPU gets its own derived stream.
        """
        if num_vcpus <= 0:
            raise ValueError(f"num_vcpus must be > 0, got {num_vcpus}")
        active = num_vcpus if active_vcpus is None else active_vcpus
        if not 0 <= active <= num_vcpus:
            raise ValueError(
                f"active_vcpus must be in [0, {num_vcpus}], got {active}"
            )
        streams = rng or RngStreams(0)
        workloads = [
            VcpuWorkload(
                profile,
                streams.get(f"workload.{name}.v{i}"),
                slice_id=i,
                num_slices=num_vcpus,
                active=i < active,
            )
            for i in range(num_vcpus)
        ]
        return cls(name, memory_bytes, placement, workloads, weight=weight)

    # ------------------------------------------------------------------
    @property
    def num_vcpus(self) -> int:
        """Guest VCPU count."""
        return len(self.workloads)

    @property
    def slice_bytes(self) -> float:
        """Size of one memory slice."""
        return self.memory_bytes / self.num_vcpus

    def page_mix_for(self, vcpu_index: int) -> List[float]:
        """Node distribution of the pages VCPU ``vcpu_index`` accesses.

        Combines the workload's *current* hot slice (phases may have
        rotated it) with the domain placement.
        """
        workload = self.workloads[vcpu_index]
        return self.placement.page_mix(
            workload.slice_id, workload.profile.slice_concentration
        )

    def affinity_node(self, vcpu_index: int) -> int:
        """Ground-truth best node for a VCPU (most of its hot pages,
        lowest node id on ties)."""
        mix = self.page_mix_for(vcpu_index)
        return max(range(len(mix)), key=mix.__getitem__)

    @property
    def finite_workloads_done(self) -> bool:
        """True when every active, finite workload has completed."""
        return all(
            w.done for w in self.workloads if w.active and w.profile.is_finite
        )

    def mean_finish_time(self) -> Optional[float]:
        """Mean finish time of this domain's completed finite VCPUs."""
        times = [v.finish_time for v in self.vcpus if v.finish_time is not None]
        if not times:
            return None
        return float(np.mean(times))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Domain({self.name!r}, vcpus={self.num_vcpus})"
