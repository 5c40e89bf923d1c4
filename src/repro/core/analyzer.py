"""The PMU data analyzer (§III-B), hardened against lying telemetry.

At the end of each sampling period it closes every VCPU's counter
window and derives:

* **memory node affinity** (Eq. 1): the id of the node whose memory the
  VCPU accessed most during the period — ``argmax_i N(vc, i)``;
* **LLC access pressure** (Eq. 2) and **type** (Eq. 3).

The derived values are written into the VCPU's ``node_affinity``,
``llc_pressure`` and ``vcpu_type`` fields — the exact fields §IV-B adds
to Xen's ``csched_vcpu``.  Everything is computed from hypervisor-level
counters only: the guest is never consulted, preserving the
transparency requirement.

Real PMUs multiplex counters, drop samples and saturate, so windows
are read through :meth:`Machine.read_pmu_window` (the fault layer) and
the analyzer additionally tracks, per VCPU:

* **staleness** — consecutive sampling periods without a usable window
  (dropped by the fault layer, or empty because the VCPU never ran);
* **confidence** — an exponential moving average of window hits, in
  [0, 1]: each usable window pulls it toward 1, each missed one decays
  it by ``confidence_decay``.  It starts at 1 — the paper's implicit
  assumption of working telemetry — so only sustained evidence of an
  outage revokes trust; a low threshold therefore distinguishes "the
  PMU is flaky but alive" (confidence hovers near the hit rate) from
  "the PMU is gone" (confidence decays geometrically toward 0).
  Schedulers use it to fall back to telemetry-free behaviour instead
  of acting on stale fields;
* **type hysteresis** — with ``hysteresis_windows`` > 1, a VCPU must
  classify into a new Eq. 3 class for that many consecutive windows
  before its committed ``vcpu_type`` switches, so one corrupted sample
  cannot trigger a partitioning migration;
* **plausibility rejection** (``reject_implausible``) — a window whose
  counters are physically impossible is discarded as if it had been
  dropped.  A VCPU cannot retire more than ``period * clock / CPI_base``
  instructions in a period (memory stalls only ever slow it down), and
  no program sustains an LLC access pressure beyond a few times the
  Eq. 3 thrashing bound; corrupted counters routinely violate both.
  Genuine windows never do, so the filter is inert on healthy
  telemetry — but it converts detectable garbage into honest gaps,
  which the staleness/confidence machinery already handles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.classify import Bounds, TypeHysteresis, classify, llc_access_pressure
from repro.xen.vcpu import Vcpu, VcpuState, VcpuType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.simulator import Machine

__all__ = ["VcpuSample", "PmuAnalyzer"]


@dataclass(frozen=True, slots=True)
class VcpuSample:
    """One VCPU's derived characteristics for a sampling period.

    ``fresh`` is False when the period produced no usable window (the
    VCPU never ran, or the fault layer dropped the sample); the derived
    fields then carry the previous, possibly stale values.
    """

    vcpu_key: int
    instructions: float
    llc_refs: float
    node_affinity: Optional[int]
    llc_pressure: float
    vcpu_type: VcpuType
    fresh: bool = True
    staleness: int = 0
    confidence: float = 1.0


class PmuAnalyzer:
    """Derives per-VCPU memory-access characteristics from PMU windows.

    Parameters
    ----------
    bounds:
        Classification bounds (Eq. 3); replaceable per period when the
        dynamic-bounds extension is active.
    hysteresis_windows:
        Consecutive windows a VCPU must spend in a new Eq. 3 class
        before its committed type switches.  1 (default) reproduces
        the paper's immediate reclassification bit for bit.
    confidence_decay:
        EMA weight in (0, 1): a missed window multiplies confidence by
        ``decay``, a usable one moves it to ``decay*c + (1-decay)``.
        Smaller values react faster in both directions.
    reject_implausible:
        Discard windows with physically impossible counters (see the
        module docstring) instead of classifying on them.
    max_plausible_pressure:
        Sanity ceiling for Eq. 2 pressure when ``reject_implausible``
        is on; defaults to 3x the classification ``high`` bound.
    """

    #: headroom on the physical instruction ceiling (timing slop)
    SANITY_MARGIN = 1.05

    def __init__(
        self,
        bounds: Bounds | None = None,
        hysteresis_windows: int = 1,
        confidence_decay: float = 0.5,
        reject_implausible: bool = False,
        max_plausible_pressure: Optional[float] = None,
    ) -> None:
        self.bounds = bounds or Bounds()
        self.hysteresis = TypeHysteresis(hysteresis_windows)
        if not 0.0 < confidence_decay < 1.0:
            raise ValueError(
                f"confidence_decay must be in (0, 1), got {confidence_decay}"
            )
        self.confidence_decay = confidence_decay
        self.reject_implausible = reject_implausible
        if max_plausible_pressure is not None and max_plausible_pressure <= 0:
            raise ValueError(
                f"max_plausible_pressure must be > 0, got {max_plausible_pressure}"
            )
        self.max_plausible_pressure = (
            max_plausible_pressure
            if max_plausible_pressure is not None
            else 3.0 * self.bounds.high
        )
        #: windows discarded by the plausibility filter so far
        self.samples_rejected = 0
        self._staleness: Dict[int, int] = {}
        self._confidence: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Confidence
    # ------------------------------------------------------------------
    def staleness(self, vcpu_key: int) -> int:
        """Consecutive periods without a usable window for this VCPU."""
        return self._staleness.get(vcpu_key, 0)

    def confidence(self, vcpu_key: int) -> float:
        """How much the VCPU's derived fields can be trusted, in [0, 1].

        1 before the VCPU is first observed (telemetry is presumed
        working, as the paper assumes); thereafter the hit-rate EMA.
        """
        return self._confidence.get(vcpu_key, 1.0)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyze(self, machine: "Machine") -> List[VcpuSample]:
        """Close all counter windows and refresh VCPU characteristics.

        VCPUs without a usable window this period (blocked, starved, or
        sample dropped by the fault layer) keep their previous affinity
        and classification — the paper's prototype behaves the same way
        since stale fields are simply not overwritten until new counter
        data arrives — and their staleness grows.

        Returns the per-VCPU samples (for logging and the dynamic-bounds
        extension).
        """
        samples: List[VcpuSample] = []
        max_hz = 0.0
        if self.reject_implausible:
            max_hz = max(node.clock_hz for node in machine.topology.nodes)
        for vcpu in machine.vcpus:
            if vcpu.state is VcpuState.DONE:
                continue
            window = machine.read_pmu_window(vcpu.key)
            usable = window is not None and window.instructions > 0
            if usable and self.reject_implausible:
                ceiling = (
                    machine.config.sample_period_s
                    * max_hz
                    / vcpu.workload.profile.cpi_base
                    * self.SANITY_MARGIN
                )
                pressure = llc_access_pressure(
                    window.llc_refs, window.instructions
                )
                if (
                    window.instructions > ceiling
                    or pressure > self.max_plausible_pressure
                ):
                    self.samples_rejected += 1
                    machine.log.emit(
                        machine.time,
                        "pmu_sample_rejected",
                        vcpu=vcpu.name,
                        instructions=window.instructions,
                        pressure=pressure,
                    )
                    # Eq. 1 affinity is an argmax of per-node access
                    # counts — scale-invariant, so multiplicative
                    # corruption cannot forge it.  Keep that update;
                    # only the ratio-based Eq. 2/3 fields are tainted.
                    vcpu.node_affinity = self._node_affinity(
                        vcpu, window.node_accesses
                    )
                    usable = False
            if not usable:
                stale = self._staleness.get(vcpu.key, 0) + 1
                self._staleness[vcpu.key] = stale
                self._confidence[vcpu.key] = (
                    self.confidence_decay * self._confidence.get(vcpu.key, 1.0)
                )
                samples.append(
                    VcpuSample(
                        vcpu_key=vcpu.key,
                        instructions=0.0,
                        llc_refs=0.0,
                        node_affinity=vcpu.node_affinity,
                        llc_pressure=vcpu.llc_pressure,
                        vcpu_type=vcpu.vcpu_type,
                        fresh=False,
                        staleness=stale,
                        confidence=self.confidence(vcpu.key),
                    )
                )
                continue
            self._staleness[vcpu.key] = 0
            self._confidence[vcpu.key] = (
                self.confidence_decay * self._confidence.get(vcpu.key, 1.0)
                + (1.0 - self.confidence_decay)
            )
            affinity = self._node_affinity(vcpu, window.node_accesses)
            pressure = llc_access_pressure(window.llc_refs, window.instructions)
            raw_type = classify(pressure, self.bounds)
            vtype = self.hysteresis.update(vcpu.key, vcpu.vcpu_type, raw_type)
            vcpu.node_affinity = affinity
            vcpu.llc_pressure = pressure
            vcpu.vcpu_type = vtype
            samples.append(
                VcpuSample(
                    vcpu_key=vcpu.key,
                    instructions=window.instructions,
                    llc_refs=window.llc_refs,
                    node_affinity=affinity,
                    llc_pressure=pressure,
                    vcpu_type=vtype,
                    fresh=True,
                    staleness=0,
                    confidence=self.confidence(vcpu.key),
                )
            )
        return samples

    @staticmethod
    def _node_affinity(vcpu: Vcpu, node_accesses: List[float]) -> Optional[int]:
        """Eq. 1: the node with the most accessed pages this period.

        Ties go to the lowest node id (the first maximum).
        """
        total = 0.0
        for accesses in node_accesses:
            total += accesses
        if total <= 0:
            return vcpu.node_affinity
        return max(range(len(node_accesses)), key=node_accesses.__getitem__)
