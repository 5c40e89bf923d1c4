"""Runtime fault injection bound to one machine.

The :class:`FaultInjector` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into concrete events against a
live :class:`~repro.xen.simulator.Machine`.  Every hook is *above* the
epoch engine:

* sampling-window faults (drop/noise/saturation) fire inside
  :meth:`Machine.read_pmu_window`, which both engines share;
* PCPU stalls are charged as hypervisor overhead, which the reference
  loop and the batched engine's fused replay
  (:class:`~repro.xen.engine.BatchedEngine`) consume with identical
  arithmetic;
* domain crashes mutate live VCPU/queue state at the epoch boundary,
  before either engine's wake processing runs.

That layering is what makes fault runs engine-independent: the batched
engine reproduces faulted runs bitwise without fault-specific code
(``tests/test_faults.py`` enforces it).  Any future fault that cannot
keep that property must trigger the explicit reference-engine fallback
documented in DESIGN.md rather than run silently wrong.

Determinism: all draws come from dedicated ``faults.*`` streams of the
machine's root RNG, in a fixed order (windows in the order the analyzer
closes them, stalls per PCPU id, crash events by schedule), so one
(seed, plan) pair always produces the same run — serial or in a
:class:`~repro.experiments.parallel.ParallelRunner` worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.faults.plan import FaultPlan
from repro.hardware.pmu import VcpuCounters
from repro.util.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.simulator import Machine

__all__ = ["FaultStats", "FaultInjector"]


@dataclass(frozen=True, slots=True)
class FaultStats:
    """Fault events that actually fired during a run.

    A frozen snapshot taken by :func:`repro.metrics.collectors.summarize`
    so fault pressure is visible next to the metrics it perturbs.
    """

    samples_dropped: int = 0
    samples_noisy: int = 0
    windows_saturated: int = 0
    stalls_injected: int = 0
    domain_crashes: int = 0

    @property
    def total_events(self) -> int:
        """All injected fault events, any kind."""
        return (
            self.samples_dropped
            + self.samples_noisy
            + self.windows_saturated
            + self.stalls_injected
            + self.domain_crashes
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (derived total included)."""
        return {
            "samples_dropped": self.samples_dropped,
            "samples_noisy": self.samples_noisy,
            "windows_saturated": self.windows_saturated,
            "stalls_injected": self.stalls_injected,
            "domain_crashes": self.domain_crashes,
            "total_events": self.total_events,
        }


class FaultInjector:
    """Applies a :class:`FaultPlan` to one machine, deterministically.

    Parameters
    ----------
    plan:
        The declarative fault configuration.
    rng:
        The machine's root stream registry; the injector draws only
        from ``faults.*`` streams so it never perturbs scheduler or
        workload randomness.
    """

    def __init__(self, plan: FaultPlan, rng: RngStreams) -> None:
        self.plan = plan
        self._rng = rng
        # Streams are created lazily per feature: a zero-rate feature
        # never draws, so a null plan has zero effect on the run.
        self._drop_rng = rng.get("faults.drop") if plan.drop_rate > 0 else None
        self._noise_rng = (
            rng.get("faults.noise")
            if plan.noise_std > 0 and plan.noise_rate > 0
            else None
        )
        self._stall_rng = rng.get("faults.stall") if plan.stall_rate > 0 else None
        #: epoch index at which each PCPU's next stall starts (lazy)
        self._next_stall: Optional[List[int]] = None
        #: crashes still pending, sorted by schedule time
        self._pending_crashes = sorted(
            plan.crashes, key=lambda c: (c.at_time_s, c.domain)
        )
        self._crash_cursor = 0

        self.samples_dropped = 0
        self.samples_noisy = 0
        self.windows_saturated = 0
        self.stalls_injected = 0
        self.domain_crashes = 0

    # ------------------------------------------------------------------
    # Telemetry faults (called from Machine.read_pmu_window)
    # ------------------------------------------------------------------
    def filter_window(
        self, vcpu_key: int, window: VcpuCounters, machine: "Machine"
    ) -> Optional[VcpuCounters]:
        """Corrupt one closed sampling window; None means *dropped*.

        The underlying PMU window has already been closed (the counters
        restarted), exactly as on hardware: a multiplexed-out or
        saturated counter loses the data — re-reading cannot recover it.
        """
        plan = self.plan
        if self._drop_rng is not None:
            # One draw per window close, whatever its content, so the
            # draw sequence depends only on the read schedule.
            if self._drop_rng.random() < plan.drop_rate:
                self.samples_dropped += 1
                machine.log.emit(
                    machine.time, "fault_sample_drop", vcpu_key=vcpu_key
                )
                return None
        if self._noise_rng is not None and window.instructions > 0:
            # One corruption draw per eligible window (skipped when
            # noise_rate is 1.0 so the continuous-jitter model keeps
            # its exact draw sequence), then independent log-normal
            # multipliers on instructions and LLC refs/misses: the
            # ratio (Eq. 2 pressure) is what gets noisy.
            corrupt = (
                plan.noise_rate >= 1.0
                or self._noise_rng.random() < plan.noise_rate
            )
            if corrupt:
                m_instr = math.exp(plan.noise_std * self._noise_rng.standard_normal())
                m_llc = math.exp(plan.noise_std * self._noise_rng.standard_normal())
                window.instructions *= m_instr
                window.llc_refs *= m_llc
                window.llc_misses *= m_llc
                self.samples_noisy += 1
        cap = plan.llc_ref_cap
        if cap is not None and window.llc_refs > cap:
            # Saturating counter: references clamp at the cap and the
            # miss count clamps with them (misses <= refs always holds).
            window.llc_refs = cap
            if window.llc_misses > cap:
                window.llc_misses = cap
            self.windows_saturated += 1
        return window

    # ------------------------------------------------------------------
    # Machine faults (called from Machine._step_epoch, top of epoch)
    # ------------------------------------------------------------------
    def begin_epoch(self, machine: "Machine", now: float) -> None:
        """Fire stalls and crashes due at this epoch boundary."""
        if self._stall_rng is not None:
            self._inject_stalls(machine)
        while self._crash_cursor < len(self._pending_crashes):
            crash = self._pending_crashes[self._crash_cursor]
            if crash.at_time_s > now:
                break
            self._crash_cursor += 1
            machine.crash_domain(
                crash.domain,
                now,
                downtime_s=crash.downtime_s,
                lose_progress=crash.lose_progress,
            )
            self.domain_crashes += 1

    def _inject_stalls(self, machine: "Machine") -> None:
        """Start due stalls; schedule each PCPU's next one.

        Stall starts are geometric in epochs (the discrete equivalent
        of Poisson arrivals at rate ``stall_rate`` per epoch), so the
        injector draws once per stall instead of once per epoch.
        """
        plan = self.plan
        rng = self._stall_rng
        epoch_index = machine.epoch_index
        if self._next_stall is None:
            self._next_stall = [
                epoch_index + int(rng.geometric(plan.stall_rate))
                for _ in machine.pcpus
            ]
        stall_s = plan.stall_epochs * machine.config.epoch_s
        for pcpu in machine.pcpus:
            if self._next_stall[pcpu.pcpu_id] > epoch_index:
                continue
            # The stall eats guest compute exactly like hypervisor
            # overhead — which is how both engines already price lost
            # time, keeping fault runs engine-independent.
            machine.charge_overhead("fault_stall", pcpu, stall_s)
            self.stalls_injected += 1
            machine.log.emit(
                machine.time,
                "fault_stall",
                pcpu=pcpu.pcpu_id,
                epochs=plan.stall_epochs,
            )
            self._next_stall[pcpu.pcpu_id] = (
                epoch_index + plan.stall_epochs + int(rng.geometric(plan.stall_rate))
            )

    # ------------------------------------------------------------------
    # Horizon queries (called by the batched engine)
    # ------------------------------------------------------------------
    def next_stall_epoch(self) -> Optional[int]:
        """Earliest epoch index at which any PCPU's next stall fires.

        ``None`` when the plan injects no stalls, or before the lazy
        per-PCPU schedule exists (the first ``begin_epoch`` creates it,
        so by the time a batch is sized the schedule is present).
        Quiet epochs strictly before this index draw no RNG and charge
        no overhead, so a macro-step may skip them.
        """
        if self._stall_rng is None or self._next_stall is None:
            return None
        return min(self._next_stall)

    def next_crash_time(self) -> Optional[float]:
        """Schedule time of the next pending domain crash (or ``None``).

        ``begin_epoch`` fires a crash once ``now`` reaches this time;
        epochs that end strictly before it cannot trigger it.
        """
        if self._crash_cursor >= len(self._pending_crashes):
            return None
        return self._pending_crashes[self._crash_cursor].at_time_s

    # ------------------------------------------------------------------
    def stats(self) -> FaultStats:
        """Immutable snapshot of the fault events fired so far."""
        return FaultStats(
            samples_dropped=self.samples_dropped,
            samples_noisy=self.samples_noisy,
            windows_saturated=self.windows_saturated,
            stalls_injected=self.stalls_injected,
            domain_crashes=self.domain_crashes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultInjector(plan={self.plan!r}, events={self.stats().total_events})"
