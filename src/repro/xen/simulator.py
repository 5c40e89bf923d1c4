"""Epoch-based machine simulator.

Global time advances in fixed epochs (default 1 ms).  Within an epoch
the VCPU->PCPU assignment is frozen; a contention solve prices that
assignment (LLC occupancy per socket, then IMC/QPI queueing), progress
and PMU counters advance in one pass, and scheduler logic runs between
epochs at its natural boundaries: 10 ms Credit ticks, 30 ms slices, and
the vProbe sampling period.

This is the "machine" the schedulers under study run on.  Everything a
scheduler can observe or cause — counter values, migration cold caches,
hypervisor overhead eating guest time — flows through here, so the
measure->decide->perform feedback loop is closed exactly as on the
paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hardware.cache import CacheModel
from repro.hardware.memory import BYTES_PER_MISS, LatencySpec, MemorySystem
from repro.hardware.pmu import PMU, VcpuCounters
from repro.hardware.topology import NUMATopology
from repro.util.eventlog import EventLog
from repro.util.rng import RngStreams
from repro.util.validation import check_positive
from repro.xen.credit import SchedulerPolicy
from repro.xen.domain import Domain
from repro.xen.engine import BatchedEngine
from repro.xen.memalloc import MemoryPlacement
from repro.xen.pcpu import Pcpu
from repro.xen.vcpu import Vcpu, VcpuState

__all__ = ["SimConfig", "SimResult", "SimulationTimeout", "Machine"]

_RUNNING = VcpuState.RUNNING

#: Rounds of the reference loop's traffic->queueing->rate fixed point.
#: The batched engine's compiled replay (xen/_replay.c) inlines exactly
#: this many.
CONTENTION_ROUNDS = 2


class SimulationTimeout(RuntimeError):
    """A run exceeded its ``max_epochs`` hard cap.

    ``max_time_s`` bounds *simulated* time; a misconfigured scenario
    (tiny epoch, huge horizon) can still grind through an unbounded
    number of epochs of wall-clock work.  The epoch cap converts that
    into a loud, named failure instead of a hung grid cell.
    """

    def __init__(self, scenario: str, max_epochs: int, sim_time_s: float) -> None:
        super().__init__(
            f"scenario {scenario!r} exceeded max_epochs={max_epochs} "
            f"(simulated {sim_time_s:.3f}s without finishing)"
        )
        self.scenario = scenario
        self.max_epochs = max_epochs
        self.sim_time_s = sim_time_s


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Simulation parameters.

    Attributes
    ----------
    epoch_s:
        Contention-solve granularity; must divide the Credit tick.
    sample_period_s:
        vProbe sampling period (§IV-B default 1 s; swept in Fig. 8).
    max_time_s:
        Hard stop for the run.
    seed:
        Root seed for all stochastic streams.
    latency:
        Memory-system base latencies.
    log_events:
        Record the structured event log (off for long benches).
    pmu_collection_cost_s:
        Hypervisor time per counter collection event.
    engine:
        ``"batched"`` (default) runs epochs through the macro-stepping
        :class:`~repro.xen.engine.BatchedEngine`, which advances every
        event horizon — a single epoch included — in one call of its
        compiled replay kernel; ``"reference"`` keeps the original
        dict-based loop.  The engine exists only for dual-socket hosts
        (the paper's testbed) and only when the kernel could be built;
        otherwise the reference loop runs under either setting.  Both
        produce bitwise-identical simulated results — including fault
        runs, whose hooks live above the engine layer;
        the reference path exists as the executable specification the
        fast engine is tested against.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`; its injector
        draws from dedicated ``faults.*`` streams of the run seed, so
        (seed, plan) replays bitwise and a zero-rate plan leaves the
        run bit-for-bit unchanged.
    max_epochs:
        Hard cap on stepped epochs; exceeding it raises
        :class:`SimulationTimeout`.  None (default) leaves only the
        simulated-time limit.
    label:
        Human-readable scenario name used in error messages
        (``SimulationTimeout``) and logs; cosmetic otherwise.
    """

    epoch_s: float = 1e-3
    sample_period_s: float = 1.0
    max_time_s: float = 120.0
    seed: int = 0
    latency: LatencySpec = field(default_factory=LatencySpec)
    log_events: bool = False
    pmu_collection_cost_s: float = 0.3e-6
    engine: str = "batched"
    faults: Optional[FaultPlan] = None
    max_epochs: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        check_positive(self.epoch_s, "epoch_s")
        check_positive(self.sample_period_s, "sample_period_s")
        check_positive(self.max_time_s, "max_time_s")
        if self.pmu_collection_cost_s < 0:
            raise ValueError("pmu_collection_cost_s must be >= 0")
        if self.engine not in ("batched", "reference"):
            raise ValueError(
                "engine must be 'batched' or 'reference', "
                f"got {self.engine!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan or None, got {type(self.faults).__name__}"
            )
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass(slots=True)
class SimResult:
    """Outcome of one simulation run."""

    sim_time_s: float  #: virtual time when the run stopped
    completed: bool  #: True if all finite workloads finished in time
    machine: "Machine"  #: the machine, for post-hoc inspection
    #: True when the run stopped early because a ``stop_check`` fired;
    #: the machine sits at a clean epoch boundary and can be resumed
    #: (or checkpointed via :mod:`repro.recovery.checkpoint`)
    interrupted: bool = False

    def finish_time(self, domain_name: str) -> Optional[float]:
        """Mean finish time of a domain's finite VCPUs."""
        return self.machine.domain(domain_name).mean_finish_time()


class Machine:
    """A virtualised NUMA host under one scheduling policy.

    Parameters
    ----------
    topology:
        The physical machine.
    policy:
        Scheduler under test (attached on construction).
    config:
        Simulation parameters.
    """

    def __init__(
        self,
        topology: NUMATopology,
        policy: SchedulerPolicy,
        config: SimConfig | None = None,
    ) -> None:
        self.topology = topology
        self.policy = policy
        self.config = config or SimConfig()

        tick = policy.params.tick_s
        ratio = tick / self.config.epoch_s
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                f"epoch_s ({self.config.epoch_s}) must evenly divide the "
                f"scheduler tick ({tick})"
            )
        self._epochs_per_tick = int(round(ratio))
        self._epochs_per_sample = max(
            1, int(round(self.config.sample_period_s / self.config.epoch_s))
        )

        self.rng = RngStreams(self.config.seed)
        #: VCPUs in any run queue, kept by the queues (:attr:`queued_vcpus`)
        self._queued: List[int] = [0]
        self.pcpus: List[Pcpu] = [
            Pcpu(i, topology.node_of_pcpu(i), self._queued)
            for i in range(topology.num_pcpus)
        ]
        self._pcpus_by_node: List[List[Pcpu]] = [
            [self.pcpus[p] for p in topology.pcpus_of_node(node)]
            for node in range(topology.num_nodes)
        ]
        self.caches: List[CacheModel] = [
            CacheModel(node.llc_bytes) for node in topology.nodes
        ]
        self.memsys = MemorySystem(topology, self.config.latency)
        self.pmu = PMU(topology.num_nodes, self.config.pmu_collection_cost_s)
        self.log = EventLog(enabled=self.config.log_events)
        #: fault injector, or None when the run is fault-free
        self.faults: Optional[FaultInjector] = (
            FaultInjector(self.config.faults, self.rng)
            if self.config.faults is not None
            else None
        )

        self.domains: List[Domain] = []
        self._domains_by_name: Dict[str, Domain] = {}
        self.vcpus: List[Vcpu] = []
        #: lazily built BatchedEngine (None with engine="reference", on
        #: non-dual-socket hosts, or whenever the VCPU population
        #: changed since the last epoch)
        self._engine: Optional[BatchedEngine] = None
        #: runtime invariant checker (:mod:`repro.audit.invariants`),
        #: attached via :meth:`run`'s ``audit=`` hook.  None (default)
        #: keeps the audit layer completely out of the epoch loop — the
        #: only cost is the ``is not None`` guards below — and every
        #: check is read-only, so results are identical either way.
        self.auditor = None

        self.time = 0.0
        self.epoch_index = 0
        self.tick_index = 0
        self.context_switches = 0
        self.migrations = 0
        self.cross_node_migrations = 0
        self.steals_local = 0
        self.steals_remote = 0
        self.overhead_s: Dict[str, float] = {}
        self.busy_time_s = 0.0
        self._place_counter = 0

        policy.attach(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_domain(self, domain: Domain) -> Domain:
        """Register a domain: create VCPUs and place them NUMA-blind.

        Xen 4.0.1 picks each new VCPU's processor by instantaneous
        load with no knowledge of where the domain's memory landed, so
        unpinned VCPUs start on a seeded-random PCPU.  Calibration
        scenarios that pin VCPUs (§IV-A) pass ``Domain.pinned_pcpus``.
        """
        if domain.name in self._domains_by_name:
            raise ValueError(f"duplicate domain name {domain.name!r}")
        if domain.placement.num_nodes != self.topology.num_nodes:
            raise ValueError(
                f"domain {domain.name!r} placement spans "
                f"{domain.placement.num_nodes} nodes, machine has "
                f"{self.topology.num_nodes}"
            )
        self.domains.append(domain)
        self._domains_by_name[domain.name] = domain
        # The engine caches per-VCPU state; rebuild it lazily from the
        # live machine on the next stepped epoch.
        self._engine = None
        place_rng = self.rng.get("placement")
        for i, workload in enumerate(domain.workloads):
            key = len(self.vcpus)
            vcpu = Vcpu(key, domain, i, workload)
            self.vcpus.append(vcpu)
            domain.vcpus.append(vcpu)
            self.pmu.register(key)
            if domain.pinned_pcpus is not None:
                vcpu.pcpu = domain.pinned_pcpus[i]
            else:
                vcpu.pcpu = int(place_rng.integers(len(self.pcpus)))
            self._place_counter += 1
            if workload.active:
                vcpu.state = VcpuState.RUNNABLE
                vcpu.run_burst_remaining_s = workload.draw_run_burst()
                self.pcpus[vcpu.pcpu].queue.push(vcpu)
            else:
                vcpu.state = VcpuState.BLOCKED
                vcpu.wake_time = float("inf")

        # First-touch: the guest faults its data in from wherever its
        # threads start, so each slice begins on its VCPU's initial node.
        if domain.first_touch_init:
            rows = [[0.0] * self.topology.num_nodes for _ in domain.vcpus]
            for vcpu in domain.vcpus:
                rows[vcpu.index][self.topology.node_of_pcpu(vcpu.pcpu)] = 1.0
            domain.placement = MemoryPlacement(rows)
        return domain

    def domain(self, name: str) -> Domain:
        """Look up a domain by name."""
        try:
            return self._domains_by_name[name]
        except KeyError:
            raise KeyError(f"no domain named {name!r}") from None

    # ------------------------------------------------------------------
    # Mechanics used by policies
    # ------------------------------------------------------------------
    def charge_overhead(self, source: str, pcpu: Pcpu, seconds: float) -> None:
        """Charge hypervisor time to a PCPU, tracked per source."""
        if seconds <= 0:
            return
        pcpu.overhead_pending_s += seconds
        self.overhead_s[source] = self.overhead_s.get(source, 0.0) + seconds

    def preempt(self, pcpu: Pcpu, now: float) -> None:
        """Deschedule the running VCPU to its queue tail.

        The PCPU is left empty; the next scheduling pass refills it
        through the normal pick/steal path (so a preemption point is
        also a balancing opportunity, as in Xen's ``schedule()``).
        """
        cur = pcpu.current
        if cur is None:
            return
        cur.stop_run(now)
        pcpu.current = None
        pcpu.queue.push(cur)

    def migrate_vcpu(self, vcpu: Vcpu, to_pcpu_id: int, now: float, reason: str) -> None:
        """Move a VCPU to another PCPU (partitioning / BRM migrations)."""
        target = self.pcpus[to_pcpu_id]
        source_id = vcpu.pcpu
        if source_id == to_pcpu_id:
            return
        cross = (
            source_id is None
            or self.topology.node_of_pcpu(source_id) != target.node
        )
        if vcpu.state is VcpuState.RUNNING:
            src = self.pcpus[source_id]
            assert src.current is vcpu
            src.current = None
            vcpu.stop_run(now)
            self.policy.on_context_switch(src, vcpu, None)
            self.context_switches += 1
        elif vcpu.state is VcpuState.RUNNABLE and source_id is not None:
            self.pcpus[source_id].queue.remove(vcpu)
        vcpu.pcpu = to_pcpu_id
        if vcpu.state is VcpuState.RUNNABLE:
            target.queue.push(vcpu)
        vcpu.record_migration(cross)
        self.migrations += 1
        if cross:
            self.cross_node_migrations += 1
        self.log.emit(
            now, "migrate", vcpu=vcpu.name, to_pcpu=to_pcpu_id, cross=cross, reason=reason
        )

    def read_pmu_window(self, vcpu_key: int) -> Optional[VcpuCounters]:
        """Close a VCPU's sampling window through the fault layer.

        Analyzers must read windows through this method rather than
        ``pmu.end_window`` directly: an active fault plan may drop the
        sample entirely (returns None), inject multiplicative counter
        noise, or clamp saturated LLC counts.  The underlying window
        restarts either way — lost telemetry is lost, as on hardware.
        """
        window = self.pmu.end_window(vcpu_key)
        if self.faults is None:
            return window
        return self.faults.filter_window(vcpu_key, window, self)

    def crash_domain(
        self,
        domain_name: str,
        now: float,
        downtime_s: float,
        lose_progress: bool = True,
    ) -> None:
        """Crash a domain: every VCPU goes offline until the restart.

        Running VCPUs are descheduled (through the normal context-switch
        bookkeeping), queued ones leave their run queues, and all of
        them block until ``now + downtime_s`` — the restart then rides
        the ordinary wake path, so both engines replay it identically.
        With ``lose_progress`` the guest rebooted: active workloads
        restart from zero retired instructions.
        """
        if downtime_s <= 0:
            raise ValueError(f"downtime_s must be > 0, got {downtime_s}")
        domain = self.domain(domain_name)
        restart = now + downtime_s
        for vcpu in domain.vcpus:
            if vcpu.state is VcpuState.DONE:
                continue
            if vcpu.state is VcpuState.RUNNING:
                pcpu = self.pcpus[vcpu.pcpu]
                assert pcpu.current is vcpu
                pcpu.current = None
                vcpu.stop_run(now)
                self.context_switches += 1
                self.policy.on_context_switch(pcpu, vcpu, None)
            elif vcpu.state is VcpuState.RUNNABLE and vcpu.pcpu is not None:
                self.pcpus[vcpu.pcpu].queue.remove(vcpu)
            if not vcpu.workload.active:
                continue  # idle guest VCPUs stay parked as they were
            if lose_progress:
                vcpu.workload.instructions_done = 0.0
            vcpu.block_until(restart)
            if self._engine is not None:
                self._engine.push_wake(vcpu)
        self.log.emit(
            now,
            "domain_crash",
            domain=domain_name,
            restart=restart,
            lose_progress=lose_progress,
        )

    def least_loaded_pcpu(self, node: int) -> Pcpu:
        """The PCPU on ``node`` with the smallest load (ties: lowest id)."""
        best = None
        for pcpu in self._pcpus_by_node[node]:  # in id order
            load = len(pcpu.queue) + (pcpu.current is not None)
            if best is None or load < best_load:
                best, best_load = pcpu, load
        return best

    @property
    def queued_vcpus(self) -> int:
        """VCPUs waiting in any run queue (the queues' shared count)."""
        return self._queued[0]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _ensure_engine(self) -> Optional[BatchedEngine]:
        """The machine's epoch engine (built on demand), or None.

        The compiled replay inlines the dual-socket memory solve, so
        other topologies, and every topology when the kernel could not
        be built, run the reference loop.
        """
        if (
            self._engine is None
            and self.config.engine == "batched"
            and self.topology.num_nodes == 2
            and BatchedEngine.kernel is not None
        ):
            self._engine = BatchedEngine(self)
        return self._engine

    def run(
        self,
        max_time_s: Optional[float] = None,
        stop_check: "Optional[Callable[[], bool]]" = None,
        audit: object = None,
    ) -> SimResult:
        """Advance the simulation until completion or the time limit.

        ``stop_check`` (when given) is consulted between epochs — the
        only points where simulation state is self-contained.  When it
        returns True the run stops *without* advancing further and the
        result is marked ``interrupted``; the machine can then be
        checkpointed (:mod:`repro.recovery.checkpoint`) or resumed by
        calling :meth:`run` again, and because every epoch boundary is
        a complete state, the continuation is bitwise the uninterrupted
        run.

        ``audit`` attaches a runtime invariant checker for this and all
        subsequent epochs: pass an
        :class:`~repro.audit.invariants.InvariantChecker` (or ``True``
        for a default one with every invariant enabled).  Checks are
        read-only — they can raise
        :class:`~repro.audit.invariants.InvariantViolation` but never
        change simulated results.  ``None`` (default) leaves the
        current auditor, if any, in place.
        """
        if audit is not None:
            if audit is True:
                from repro.audit.invariants import InvariantChecker

                audit = InvariantChecker()
            self.auditor = audit
        limit = max_time_s if max_time_s is not None else self.config.max_time_s
        cap = self.config.max_epochs
        while self.time < limit - 1e-12:
            if stop_check is not None and stop_check():
                return SimResult(
                    sim_time_s=self.time,
                    completed=self._all_finite_done(),
                    machine=self,
                    interrupted=True,
                )
            if cap is not None and self.epoch_index >= cap:
                raise SimulationTimeout(
                    self.config.label or f"<{self.policy.name} machine>",
                    cap,
                    self.time,
                )
            self._step_epoch(limit)
            if self._all_finite_done():
                return SimResult(sim_time_s=self.time, completed=True, machine=self)
        return SimResult(
            sim_time_s=self.time, completed=self._all_finite_done(), machine=self
        )

    def _all_finite_done(self) -> bool:
        """True when finite work exists and all of it has completed.

        A machine running only unbounded workloads (hungry loops,
        services without a request budget) never "completes" — it runs
        to the time limit.
        """
        if self._engine is not None:
            return self._engine.all_finite_done()
        has_finite = any(
            w.active and w.profile.is_finite
            for d in self.domains
            for w in d.workloads
        )
        return has_finite and all(d.finite_workloads_done for d in self.domains)

    # ------------------------------------------------------------------
    # One epoch
    # ------------------------------------------------------------------
    def _step_epoch(self, limit: Optional[float] = None) -> None:
        now = self.time
        epoch = self.config.epoch_s
        engine = self._ensure_engine()

        # 0. Fault injection: stalls and domain crashes fire at the
        # epoch boundary, before wake processing, identically for both
        # engines (crashed VCPUs restart through the normal wake path).
        if self.faults is not None:
            self.faults.begin_epoch(self, now)

        # 1. Credit tick (credits, preemption) and PMU refresh charges:
        # one collection per running PCPU, each charged to its PCPU and
        # added to the "pmu" total in PCPU order (charge_overhead,
        # inlined).
        if self.epoch_index % self._epochs_per_tick == 0:
            self.policy.on_tick(now, self.tick_index)
            if self.policy.collects_pmu:
                running = [p for p in self.pcpus if p.current is not None]
                self.pmu.record_collection(len(running))
                cost = self.pmu.collection_cost_s
                if running and cost > 0:
                    total = self.overhead_s.get("pmu", 0.0)
                    for pcpu in running:
                        pcpu.overhead_pending_s += cost
                        total += cost
                    self.overhead_s["pmu"] = total
            self.tick_index += 1

        # 2. Wakeups: a VCPU waking from sleep gets BOOST priority and
        # preempts a lower-class incumbent on its PCPU (__runq_tickle).
        # The engine pops due VCPUs from its wake heap; the reference
        # path scans everyone.  Either way the due set is processed in
        # VCPU-key order, and no wake blocks another VCPU, so the scan
        # and the heap see the same set.
        if engine is not None:
            due = engine.pop_due_wakes(now)
        else:
            due = [
                v
                for v in self.vcpus
                if v.state is VcpuState.BLOCKED and v.wake_time <= now
            ]
        for vcpu in due:
            vcpu.state = VcpuState.RUNNABLE
            vcpu.wake_time = float("inf")
            vcpu.boosted = True
            vcpu.run_burst_remaining_s = vcpu.workload.draw_run_burst()
            target = self.policy.on_vcpu_wake(vcpu, now)
            if vcpu.pcpu is not None and target != vcpu.pcpu:
                cross = self.topology.node_of_pcpu(vcpu.pcpu) != (
                    self.topology.node_of_pcpu(target)
                )
                vcpu.record_migration(cross)
                self.migrations += 1
                if cross:
                    self.cross_node_migrations += 1
                self.log.emit(
                    now, "wake_migrate", vcpu=vcpu.name, to_pcpu=target, cross=cross
                )
            vcpu.pcpu = target
            target_pcpu = self.pcpus[target]
            target_pcpu.queue.push(vcpu)
            cur = target_pcpu.current
            if cur is not None and vcpu.priority_rank < cur.priority_rank:
                self.preempt(target_pcpu, now)

        # 3. Scheduling pass: fill idle PCPUs, stealing if needed.
        # Like Xen's schedule(): prefer a local UNDER candidate; if the
        # best local work is OVER (or none), give the balancer a chance
        # to find an UNDER VCPU elsewhere before settling for it.
        for pcpu in self.pcpus:
            cur = pcpu.current
            if cur is not None:
                if cur.state is _RUNNING or cur.runnable:
                    continue
                pcpu.current = None
            # Local candidate first; if it is OVER (or the queue is
            # empty), the balancer may find strictly better work
            # elsewhere (Xen's csched_load_balance condition).
            head_rank = pcpu.queue.head_rank()
            nxt: Optional[Vcpu] = None
            if head_rank is None or head_rank >= 2:
                nxt = self.policy.steal(
                    pcpu, now, under_only=head_rank is not None
                )
                if nxt is not None:
                    self._account_steal(pcpu, nxt, now)
            if nxt is None:
                nxt = pcpu.queue.pop()
            if nxt is not None:
                self._switch_in(pcpu, nxt, now)

        # Audit hook: placement and work conservation are only
        # guaranteed right here, after the pass filled every PCPU it
        # could — later in the epoch a completing/blocking VCPU may
        # legitimately leave queued work until the next pass.
        auditor = self.auditor
        if auditor is not None:
            auditor.after_schedule(self)

        # 4. Contention solve and progress.  The batched engine first
        # sizes an event horizon — how many upcoming epochs are free of
        # ticks, samples, wakes, phase changes, completions, faults and
        # the run limit — and advances all of them in one call, a
        # horizon of one epoch included.
        if engine is not None:
            stepped = engine.compute_horizon(
                now, limit if limit is not None else self.config.max_time_s
            )
            end = engine.advance_batch(now, epoch, stepped)
        else:
            stepped = 1
            self._advance_running(now, epoch)
            end = now + epoch

        # 5. Phase changes (heap-driven, or a cheap check per workload).
        # For a macro-step the horizon guarantees nothing was due at any
        # interior epoch end, so one check at the batch end is the same
        # sequence of applications the per-epoch reference loop performs.
        if engine is not None:
            engine.apply_phase_changes(end)
        else:
            for vcpu in self.vcpus:
                w = vcpu.workload
                if w.active and not w.done and w.maybe_phase_change(end):
                    self.log.emit(
                        end, "phase_change", vcpu=vcpu.name, slice=w.slice_id
                    )

        # 6. Sampling-period boundary (a macro-step's horizon is capped
        # at the next boundary, so it can land on one only batch-final).
        sample_boundary = (self.epoch_index + stepped) % self._epochs_per_sample == 0
        if sample_boundary:
            self.policy.on_sample_period(end)

        self.time = end
        self.epoch_index += stepped
        if auditor is not None:
            auditor.after_epoch(self, sample_boundary)

    def _account_steal(self, thief: Pcpu, vcpu: Vcpu, now: float) -> None:
        source = vcpu.pcpu
        cross = source is None or self.topology.node_of_pcpu(source) != thief.node
        if cross:
            self.steals_remote += 1
        else:
            self.steals_local += 1
        vcpu.pcpu = thief.pcpu_id
        vcpu.record_migration(cross)
        self.migrations += 1
        if cross:
            self.cross_node_migrations += 1
        self.log.emit(now, "steal", vcpu=vcpu.name, thief=thief.pcpu_id, cross=cross)

    def _switch_in(self, pcpu: Pcpu, vcpu: Vcpu, now: float) -> None:
        pcpu.current = vcpu
        vcpu.pcpu = pcpu.pcpu_id
        vcpu.begin_run(now)
        vcpu.slice_used_s = 0.0
        self.context_switches += 1
        self.policy.on_context_switch(pcpu, None, vcpu)

    # ------------------------------------------------------------------
    # Contention + progress (reference path)
    # ------------------------------------------------------------------
    def _advance_running(self, now: float, epoch: float) -> None:
        # This dict-based loop is the executable specification that the
        # batched engine's compiled replay (xen/_replay.c) replicates
        # bitwise; changes here must be mirrored there (the determinism
        # test enforces it).
        running: List[Tuple[Pcpu, Vcpu]] = [
            (p, p.current) for p in self.pcpus if p.current is not None
        ]
        # Per-node demand maps for the LLC solve.
        node_demands: List[Dict[int, object]] = [
            {} for _ in range(self.topology.num_nodes)
        ]
        run_node: Dict[int, int] = {}
        page_mix: Dict[int, List[float]] = {}
        for pcpu, vcpu in running:
            demand = vcpu.workload.cache_demand()
            node_demands[pcpu.node][vcpu.key] = demand
            run_node[vcpu.key] = pcpu.node
            page_mix[vcpu.key] = vcpu.domain.page_mix_for(vcpu.index)

        miss_rates: Dict[int, float] = {}
        for node_id, demands in enumerate(node_demands):
            if demands:
                occ = self.caches[node_id].solve(demands)
                miss_rates.update(occ.miss_rates)

        # Fixed point: rates -> traffic -> queueing -> rates.
        lat = self.config.latency
        penalty_ns: Dict[int, float] = {
            v.key: lat.local_dram_ns for _, v in running
        }
        rates: Dict[int, float] = {}
        mem_costs = None
        for _ in range(CONTENTION_ROUNDS):
            traffic: Dict[int, float] = {}
            for pcpu, vcpu in running:
                prof = vcpu.workload.profile
                clock = self.topology.nodes[pcpu.node].clock_hz
                cpi = self._effective_cpi(
                    vcpu, miss_rates[vcpu.key], penalty_ns[vcpu.key], clock
                )
                rate = clock / cpi
                rates[vcpu.key] = rate
                rpi = prof.refs_per_instruction * vcpu.workload.intensity_multiplier
                traffic[vcpu.key] = rate * rpi * miss_rates[vcpu.key] * BYTES_PER_MISS
            mem_costs = self.memsys.solve(traffic, run_node, page_mix)
            penalty_ns = mem_costs.miss_penalty_ns

        # Advance progress, counters, bursts.
        for pcpu, vcpu in running:
            compute = pcpu.consume_overhead(epoch)
            pcpu.busy_time_s += epoch
            self.busy_time_s += epoch
            instructions = rates[vcpu.key] * compute
            remaining = vcpu.workload.remaining_instructions
            instructions = min(instructions, remaining)
            w = vcpu.workload
            rpi = w.profile.refs_per_instruction * w.intensity_multiplier
            refs = instructions * rpi
            misses = refs * miss_rates[vcpu.key]
            self.pmu.charge(
                vcpu.key,
                instructions=instructions,
                llc_refs=refs,
                llc_misses=misses,
                node_access_share=page_mix[vcpu.key],
                run_node=pcpu.node,
            )
            w.advance(instructions)
            vcpu.slice_used_s += epoch
            vcpu.run_burst_remaining_s -= epoch

            # First-touch locality feedback: freshly touched pages land
            # on the node this VCPU is running on.
            touch = w.profile.touch_rate
            if touch > 0:
                vcpu.domain.placement.drift_slice(
                    w.slice_id, pcpu.node, min(1.0, touch * epoch)
                )

            if w.done:
                vcpu.mark_done(now + epoch)
                pcpu.current = None
                self.context_switches += 1
                self.policy.on_context_switch(pcpu, vcpu, None)
                self.log.emit(now + epoch, "finish", vcpu=vcpu.name)
            elif vcpu.run_burst_remaining_s <= 0:
                vcpu.block_until(now + epoch + w.draw_block_time())
                pcpu.current = None
                self.context_switches += 1
                self.policy.on_context_switch(pcpu, vcpu, None)

        # LLC warmth: charge running sets, decay everyone else.
        for node_id, demands in enumerate(node_demands):
            self.caches[node_id].advance(epoch, demands)

    def _effective_cpi(
        self, vcpu: Vcpu, miss_rate: float, penalty_ns: float, clock_hz: float
    ) -> float:
        """CPI with memory stalls at the current contention point."""
        w = vcpu.workload
        prof = w.profile
        rpi = prof.refs_per_instruction * w.intensity_multiplier
        ns_to_cycles = clock_hz * 1e-9
        lat = self.config.latency
        per_ref_ns = (1.0 - miss_rate) * lat.llc_hit_ns + miss_rate * penalty_ns
        stall = rpi * per_ref_ns * ns_to_cycles / prof.mlp
        return prof.cpi_base + stall

    # ------------------------------------------------------------------
    # Snapshot support (repro.recovery.checkpoint)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Pickle everything except the epoch engine.

        The engine is a derived accelerator: it is rebuilt lazily from
        live machine state (exactly how :meth:`add_domain` already
        invalidates it), its wake/phase heaps and finite-work countdown
        are pure functions of VCPU/workload state, and its replay
        records and plans are caches.  Dropping it keeps snapshots
        compact and — more importantly — lets a snapshot taken under
        one engine resume under the other with bitwise-identical results
        (the resume-parity matrix in ``tests/test_recovery.py``).
        """
        state = self.__dict__.copy()
        state["_engine"] = None
        # The auditor is runtime instrumentation, not simulation state:
        # dropping the key entirely keeps the snapshot payload byte-for
        # byte what it was before the audit layer existed (no
        # CHECKPOINT_SCHEMA bump), and a resumed run re-attaches one via
        # ``run(audit=...)`` if it wants auditing.
        state.pop("auditor", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.auditor = None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def total_overhead_s(self) -> float:
        """All hypervisor overhead charged so far, every source (summed
        left to right: ``sum`` of floats is compensated on 3.12+)."""
        total = 0  # like ``sum``: a run without overhead reports int 0
        for seconds in self.overhead_s.values():
            total += seconds
        return total

    def overhead_fraction(self) -> float:
        """Overhead time over busy time (the Table III metric)."""
        if self.busy_time_s <= 0:
            return 0.0
        return self.total_overhead_s / self.busy_time_s

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Machine(policy={self.policy.name!r}, t={self.time:.3f}s, "
            f"domains={len(self.domains)})"
        )
