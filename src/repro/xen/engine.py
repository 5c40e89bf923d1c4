"""Structure-of-arrays fast path for the epoch engine.

The reference implementation in :mod:`repro.xen.simulator` prices every
epoch through per-VCPU dictionaries (demands, rates, traffic, penalties,
page mixes) and rescans all VCPUs for wakeups, phase changes and finite
completion.  That is the clearest possible statement of the model — and
the hot path of every experiment, so :class:`VectorEngine` keeps flat
per-VCPU invariants keyed by VCPU index, event heaps and the persistent
parts each horizon's replay plan is assembled from (per-(VCPU, node)
records and per-co-runner-set node plans), and :class:`BatchedEngine`
— the ``"batched"`` engine, the one fast engine a run can select —
advances every event horizon, from a single epoch up, through one
fused scalar replay on top of it.
Both are built only for the paper's dual-socket host; the machine runs
other topologies through its reference loop.

**The contract is bitwise equality**: for any scenario and seed, a run
through the batched engine produces exactly the same simulated results
(finish times, counter values, migration counts, overhead) as the
reference loop.  Four rules keep that true:

* elementwise float64 arithmetic (``+ - * /``) produces identical bits
  whether it runs through numpy ufuncs or Python scalars, so each
  per-VCPU expression may use whichever is faster at the machine's
  scale — but *reductions* may not be reordered: every ordered
  accumulation (IMC/QPI traffic, per-miss penalties, busy time) stays
  a sequential loop in exactly the reference's order;
* every cached invariant (``refs_per_instruction * intensity_multiplier``,
  the memoised :class:`CacheDemand`, the LLC warmth charge factor, the
  first-touch drift per epoch, the waterfilled LLC shares) depends only
  on the profile, the phase multipliers and the co-runner set, so it is
  invalidated precisely when :meth:`VcpuWorkload.maybe_phase_change`
  fires (a generation counter) or the running set changes;
* heap-driven wake and phase processing replays due events in VCPU-key
  order — the order the reference scans ``machine.vcpus`` — because
  wake handling mutates shared queue and RNG state;
* state *transitions* (done/block, context-switch hooks, overhead
  charges) happen in the reference's per-VCPU order even though the
  arithmetic before them is batched.

The engine holds only *derived* state; all simulation state lives in
the machine's VCPUs, workloads and hardware models.  Rebuilding the
engine from a live machine (``Machine.add_domain`` invalidates it) is
therefore lossless.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.hardware.cache import CacheDemand, LLCState
from repro.hardware.memory import BYTES_PER_MISS
from repro.xen.vcpu import Vcpu, VcpuState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.simulator import Machine

__all__ = ["VectorEngine", "BatchedEngine"]


class VectorEngine:
    """Per-VCPU invariants, event heaps and replay plans for one machine.

    Built lazily on the first stepped epoch of a dual-socket machine and
    discarded whenever the machine's VCPU population changes;
    construction scans the live machine state once, after which
    per-epoch work touches only the VCPUs that are actually running,
    waking or changing phase.  :class:`BatchedEngine` adds the horizon
    sizing and the replay kernel.
    """

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.epoch = machine.config.epoch_s
        topo = machine.topology
        vcpus = machine.vcpus

        # Per-node constants.  ``ns_to_cycles`` is precomputed exactly as
        # the reference evaluates it (clock_hz * 1e-9).
        self.node_clock: List[float] = [node.clock_hz for node in topo.nodes]
        self.node_ns2c: List[float] = [c * 1e-9 for c in self.node_clock]

        # Per-VCPU invariants, keyed by VCPU key.  Profile constants are
        # immutable; the phase-dependent ones (rpi, demand, warmth
        # charge) are refreshed by refresh_vcpu() on phase change.
        n = len(vcpus)
        self.cpi_base: List[float] = [v.workload.profile.cpi_base for v in vcpus]
        self.mlp: List[float] = [v.workload.profile.mlp for v in vcpus]
        self.conc: List[float] = [
            v.workload.profile.slice_concentration for v in vcpus
        ]
        self.drift_amount: List[float] = [
            min(1.0, v.workload.profile.touch_rate * self.epoch) for v in vcpus
        ]
        self.rpi: List[float] = [0.0] * n
        self.demand: List[Optional[CacheDemand]] = [None] * n
        self.charge_factor: List[float] = [1.0] * n
        self.total_instr: List[float] = [0.0] * n
        #: per-key phase generation, bumped by refresh_vcpu(): a replay
        #: record built under an older generation is rebuilt on next use.
        self.key_gen: List[int] = [0] * n
        # Per-key replay scratch ``[x0, x1, miss]`` (page mix and miss
        # rate of the current epoch).  Stable list objects shared by the
        # records and node plans, so no plan embeds a PCPU position.
        self._scratch = [[0.0, 0.0, 0.0] for _ in range(n)]
        # Replay records, ``_records[key][node]`` (see _record): a stale
        # record is replaced in place, so the memo holds at most one per
        # (VCPU, node) and needs no eviction.
        self._records: List[List[Optional[tuple]]] = [
            [None, None] for _ in range(n)
        ]
        # Per-co-runner-set node plans (see _node_entry).  Phase-
        # dependent, so refresh_vcpu() evicts entries mentioning the key.
        self._node_cache: Dict[Tuple, Tuple] = {}
        # Last horizon's plan and its (PCPUs, VCPUs, generations)
        # signature: an unchanged running set reuses it outright.
        self._plan: Optional[tuple] = None
        self._plan_sig: Optional[tuple] = None
        for vcpu in vcpus:
            self.refresh_vcpu(vcpu)

        # Live per-node warmth tables (stable dict objects).
        self._warmth_tables = [
            cache.state.warmth_table for cache in machine.caches
        ]

        # Wake-time min-heap replacing the all-VCPU step-2 scan.  Lazy
        # invalidation: entries are validated against live VCPU state at
        # pop time.  Every BLOCKED-with-finite-wake VCPU has an entry.
        self.wake_heap: List[Tuple[float, int]] = [
            (v.wake_time, v.key)
            for v in vcpus
            if v.state is VcpuState.BLOCKED and math.isfinite(v.wake_time)
        ]
        heapq.heapify(self.wake_heap)

        # Phase-change min-heap replacing the per-epoch phase scan.
        self.phase_heap: List[Tuple[float, int]] = [
            (v.workload.next_phase_change, v.key)
            for v in vcpus
            if v.workload.active
            and not v.workload.done
            and v.workload.profile.phase is not None
            and math.isfinite(v.workload.next_phase_change)
        ]
        heapq.heapify(self.phase_heap)

        # Finite-work countdown replacing the _all_finite_done rescan.
        finite = [
            w
            for d in machine.domains
            for w in d.workloads
            if w.active and w.profile.is_finite
        ]
        self.has_finite = bool(finite)
        self.finite_remaining = sum(1 for w in finite if not w.done)

    # ------------------------------------------------------------------
    # Invariant maintenance
    # ------------------------------------------------------------------
    def refresh_vcpu(self, vcpu: Vcpu) -> None:
        """Recompute phase-dependent invariants after a phase change."""
        w = vcpu.workload
        key = vcpu.key
        self.rpi[key] = w.profile.refs_per_instruction * w.intensity_multiplier
        demand = w.cache_demand()
        self.demand[key] = demand
        tau = max(1e-4, demand.working_set_bytes / LLCState.FILL_BANDWIDTH)
        self.charge_factor[key] = math.exp(-self.epoch / tau)
        self.total_instr[key] = w.profile.total_instructions
        self.key_gen[key] += 1
        # Selective eviction: only node plans that embed this key's
        # phase-dependent data (demand, charge factor) are stale; its
        # records fail their generation check on next use.
        node_cache = self._node_cache
        for nk in [nk for nk in node_cache if key in nk[1]]:
            del node_cache[nk]

    # ------------------------------------------------------------------
    # Event-driven scans
    # ------------------------------------------------------------------
    def pop_due_wakes(self, now: float) -> List[Vcpu]:
        """Due wakeups, in VCPU-key order (the reference scan order)."""
        heap = self.wake_heap
        if not heap or heap[0][0] > now:
            return []
        vcpus = self.machine.vcpus
        due: List[Vcpu] = []
        seen: Set[int] = set()
        while heap and heap[0][0] <= now:
            _, key = heapq.heappop(heap)
            vcpu = vcpus[key]
            if (
                key not in seen
                and vcpu.state is VcpuState.BLOCKED
                and vcpu.wake_time <= now
            ):
                seen.add(key)
                due.append(vcpu)
        due.sort(key=lambda v: v.key)
        return due

    def push_wake(self, vcpu: Vcpu) -> None:
        """Track a VCPU that just blocked with a finite wake time."""
        if math.isfinite(vcpu.wake_time):
            heapq.heappush(self.wake_heap, (vcpu.wake_time, vcpu.key))

    def apply_phase_changes(self, end: float) -> None:
        """Apply all phase changes due by ``end``, in VCPU-key order."""
        heap = self.phase_heap
        if not heap or heap[0][0] > end:
            return
        machine = self.machine
        vcpus = machine.vcpus
        due: Set[int] = set()
        while heap and heap[0][0] <= end:
            _, key = heapq.heappop(heap)
            w = vcpus[key].workload
            # A finished or stale entry is simply dropped; live entries
            # always carry the workload's current next_phase_change.
            if w.active and not w.done and w.next_phase_change <= end:
                due.add(key)
        for key in sorted(due):
            vcpu = vcpus[key]
            w = vcpu.workload
            if w.maybe_phase_change(end):
                machine.log.emit(
                    end, "phase_change", vcpu=vcpu.name, slice=w.slice_id
                )
                self.refresh_vcpu(vcpu)
                nxt = w.next_phase_change
                if math.isfinite(nxt):
                    heapq.heappush(heap, (nxt, key))

    def all_finite_done(self) -> bool:
        """Countdown equivalent of ``Machine._all_finite_done``."""
        return self.has_finite and self.finite_remaining == 0

    # ------------------------------------------------------------------
    # Replay plans
    # ------------------------------------------------------------------
    def _record(self, key: int, node: int) -> tuple:
        """Replay record for VCPU ``key`` running on ``node``.

        ``(gen, row, bank, pmu_row, placement)``: ``gen`` is the key's
        phase generation at build time; ``row`` is the replay row ``(c,
        1.0 - c, slice_row, overall, rpi, cpi_base, mlp, clock, ns2c,
        scratch, node == 0, total, drift, num_slices)``, whose
        ``slice_row``/``overall`` are the placement's live dual-socket
        lists (aliased readers share them, so intra-epoch interleavings
        replay exactly); ``bank``/``pmu_row`` are the PMU bank and its
        node-matrix row; ``placement`` is the one to mark stale after a
        horizon, or None when the VCPU does not drift.
        """
        self.machine.profiler.count("gather_build")
        vcpu = self.machine.vcpus[key]
        placement = vcpu.domain.placement
        c = self.conc[key]
        drift = self.drift_amount[key]
        row = (
            c,
            1.0 - c,
            placement._rows2[vcpu.workload.slice_id],
            placement._over2,
            self.rpi[key],
            self.cpi_base[key],
            self.mlp[key],
            self.node_clock[node],
            self.node_ns2c[node],
            self._scratch[key],
            node == 0,
            self.total_instr[key],
            drift,
            placement.num_slices,
        )
        bank, pmu_row = self.machine.pmu.bank_row(key)
        return (
            self.key_gen[key], row, bank, pmu_row,
            placement if drift > 0 else None,
        )

    def _node_entry(self, node: int, members: Tuple[int, ...]) -> Tuple:
        """``(members, w_l, member_set, miss_plan, charge_plan)``.

        The plan for one co-runner set (``members`` sorted by key) on
        ``node``: ``w_l`` is the members' warmth scratch, reseeded from
        the live table each horizon; ``miss_plan[j]`` is ``(w_l, j,
        scratch, share, min_miss, miss_span, curve_shape, ws <= 0)``
        and ``charge_plan[j]`` is ``(w_l, j, charge_factor)``.  The
        capped share ``min(1.0, alloc / ws)`` is exactly the scalar the
        reference recomputes every epoch — same inputs, same float — so
        it is safe to freeze per co-runner set.
        """
        node_key = (node, members)
        entry = self._node_cache.get(node_key)
        if entry is None:
            demands = [self.demand[key] for key in members]
            allocs = self.machine.caches[node].occupancy_shares(demands)
            w_l = [0.0] * len(members)
            miss_plan = []
            charge_plan = []
            for j, key in enumerate(members):
                d = demands[j]
                ws = d.working_set_bytes
                miss_plan.append(
                    (
                        w_l,
                        j,
                        self._scratch[key],
                        min(1.0, allocs[j] / ws) if ws > 0 else 0.0,
                        d.min_miss_rate,
                        d.max_miss_rate - d.min_miss_rate,
                        d.curve_shape,
                        ws <= 0,
                    )
                )
                charge_plan.append((w_l, j, self.charge_factor[key]))
            entry = (members, w_l, frozenset(members), miss_plan, charge_plan)
            self._node_cache[node_key] = entry
        return entry

    def _plan_for(
        self, running_pcpus: list, running_vcpus: List[Vcpu]
    ) -> tuple:
        """This horizon's replay plan, assembled from records and node plans.

        ``(rows, miss_plan, charge_plan, nodes, banks, pmu_rows,
        stale)``: rows, banks and PMU rows in PCPU order; the miss and
        charge plans in node-then-key order (the order the reference's
        ``sorted(demands)`` solve iterates); one node plan per node.
        """
        kg = self.key_gen
        gens = [kg[v.key] for v in running_vcpus]
        sig = (running_pcpus, running_vcpus, gens)
        if sig == self._plan_sig:
            return self._plan
        records = self._records
        rows = []
        banks = []
        pmu_rows = []
        stale = []
        groups: Tuple[list, list] = ([], [])
        for pcpu, vcpu, gen in zip(running_pcpus, running_vcpus, gens):
            key = vcpu.key
            node = pcpu.node
            pair = records[key]
            rec = pair[node]
            if rec is None or rec[0] != gen:
                rec = pair[node] = self._record(key, node)
            rows.append(rec[1])
            banks.append(rec[2])
            pmu_rows.append(rec[3])
            if rec[4] is not None:
                stale.append(rec[4])
            groups[node].append(key)
        miss_plan = []
        charge_plan = []
        nodes = []
        for node, group in enumerate(groups):
            group.sort()
            entry = self._node_entry(node, tuple(group))
            miss_plan += entry[3]
            charge_plan += entry[4]
            nodes.append(entry)
        plan = (rows, miss_plan, charge_plan, nodes, banks, pmu_rows, stale)
        self._plan = plan
        self._plan_sig = sig
        return plan


class BatchedEngine(VectorEngine):
    """Macro-stepping engine: one fused scalar replay per event horizon.

    Extends :class:`VectorEngine` with an *event horizon*: the number of
    upcoming epochs guaranteed free of discrete events — scheduler
    ticks, sampling boundaries, wakeups, phase changes, finite-work
    completions, run-burst expiries, fault stalls/crashes, the epoch cap
    and the run's time limit.  Every horizon, a single epoch included,
    advances in one call to :meth:`_advance_replay_fused`, which runs
    the reference loop's exact per-epoch arithmetic with the running-set
    scan, plan lookup and every state commit hoisted out of the epoch
    loop; a horizon with nothing running only decays LLC warmth.

    The bitwise contract survives batching because inside the horizon
    every epoch applies the same Python-float expressions, in the same
    order, to the same running set; only reads and writes of live state
    move to the batch edges.  Scheduler RNG parity is kept by one
    :meth:`~repro.xen.credit.SchedulerPolicy.idle_steals` call per
    horizon, which draws what the (no-op) steal attempts of idle PCPUs
    in the interior epochs would draw.

    Dual-socket only: the replay inlines the two-node memory solve, and
    ``Machine`` builds no engine for other topologies.
    """

    def __init__(self, machine: "Machine") -> None:
        super().__init__(machine)
        self._cache_advance_batch = [
            cache.state.advance_compact_batch for cache in machine.caches
        ]
        self._horizon_hist: Dict[int, int] = {}
        # Latency/topology constants for the inlined dual-socket solve
        # (queue_inflation's default cap and knee, minus validation).
        lat = machine.config.latency
        memsys = machine.memsys
        nodes = memsys.topology.nodes
        cap = 8.0
        self._scalars = (
            lat.llc_hit_ns,
            lat.local_dram_ns,
            nodes[0].imc_bandwidth,
            nodes[1].imc_bandwidth,
            memsys.topology.qpi_bandwidth,
            memsys.latency.local_dram_ns,
            memsys.latency.remote_extra_ns,
            cap,
            1.0 - 1.0 / cap,
            BYTES_PER_MISS,
        )

    # ------------------------------------------------------------------
    # Event horizon
    # ------------------------------------------------------------------
    def compute_horizon(self, now: float, limit: float) -> int:
        """Quiet epochs (including the current one) safe to macro-step.

        Called after the stepper has run this epoch's fault, tick, wake
        and scheduling phases; returns 1 whenever any discrete event
        could fire before the batch would end.  Every Credit tick and
        sampling boundary terminates the batch.
        """
        kb = self._size_horizon(now, limit)
        hist = self._horizon_hist
        hist[kb] = hist.get(kb, 0) + 1
        return kb

    def _size_horizon(self, now: float, limit: float) -> int:
        machine = self.machine
        e0 = machine.epoch_index
        epoch = self.epoch
        kb = machine._epochs_per_tick - (e0 % machine._epochs_per_tick)
        ks = machine._epochs_per_sample - (e0 % machine._epochs_per_sample)
        if ks < kb:
            kb = ks
        cap = machine.config.max_epochs
        if cap is not None and cap - e0 < kb:
            kb = cap - e0
        crash_time = math.inf
        faults = machine.faults
        if faults is not None:
            if faults.plan.stall_rate > 0:
                next_stall = faults.next_stall_epoch()
                if next_stall is None:
                    return 1
                if next_stall - e0 < kb:
                    kb = next_stall - e0
            next_crash = faults.next_crash_time()
            if next_crash is not None:
                crash_time = next_crash
        if kb <= 1:
            return 1

        # Running-set floors.  Completions stay *exclusive*: with rates
        # bounded by clock / cpi_base (the queueing stall is
        # non-negative), a one-epoch margin under each finite-work
        # budget guarantees no completion fires at any batch epoch.
        # Run-burst expiries are *inclusive*: the budget drains by
        # exactly one epoch per step regardless of contention, so the
        # expiry epoch is known in advance — the batch may end ON it and
        # fire the block transition at the batch boundary.
        idle = False
        for pcpu in machine.pcpus:
            cur = pcpu.current
            if cur is None:
                idle = True
                continue
            key = cur.key
            w = cur.workload
            total = w.profile.total_instructions
            if total is not None:
                remaining = total - w.instructions_done
                rate_max = self.node_clock[pcpu.node] / self.cpi_base[key]
                floor = int(remaining / (rate_max * epoch)) - 1
                if floor < kb:
                    kb = floor
            burst = cur.run_burst_remaining_s
            if burst <= (kb + 1) * epoch:
                # Expiry may land inside the window: replay the exact
                # per-epoch subtraction chain (`x -= epoch`, the same
                # sequential float ops the progress pass performs) to
                # find the first epoch whose end leaves the budget at
                # or below zero, and end the batch there.
                x = burst
                for j in range(kb):
                    x -= epoch
                    if x <= 0.0:
                        kb = j + 1
                        break
            if kb <= 1:
                return 1
        if idle:
            # After a scheduling pass an idle PCPU implies every queue
            # is empty (the pass steals unconditionally); guard the
            # invariant anyway — queued work next to an idle PCPU means
            # rescheduling activity every epoch.
            for pcpu in machine.pcpus:
                if pcpu.queue.head_rank() is not None:
                    return 1

        # Time-driven events: walk the exact epoch-end trajectory (the
        # same sequential float adds the stepper performs) against the
        # wake heap, the phase heap, the crash schedule and the run
        # limit.  A phase change due at a batch-final epoch end is fine:
        # the stepper applies phase changes once at the batch end.
        wake = self.wake_heap[0][0] if self.wake_heap else math.inf
        phase = self.phase_heap[0][0] if self.phase_heap else math.inf
        t = now
        j = 0
        while j < kb:
            if j > 0 and (
                wake <= t or crash_time <= t or t >= limit - 1e-12
            ):
                kb = j
                break
            t_next = t + epoch
            if phase <= t_next:
                kb = j + 1
                break
            t = t_next
            j += 1
        return kb if kb > 1 else 1

    # ------------------------------------------------------------------
    # Batched advance
    # ------------------------------------------------------------------
    def advance_batch(self, now: float, epoch: float, kb: int) -> float:
        """Advance ``kb`` quiet epochs in one batch; returns the batch end.

        The caller (the stepper) has already run this epoch's pre-solve
        phases and guarantees — via :meth:`compute_horizon` — that no
        discrete event fires strictly inside the batch.
        """
        machine = self.machine

        running_pcpus = []
        running_vcpus = []
        for pcpu in machine.pcpus:
            cur = pcpu.current
            if cur is not None:
                running_pcpus.append(pcpu)
                running_vcpus.append(cur)

        t = now
        for _ in range(1, kb):
            t = t + epoch
        end_batch = t + epoch

        # Interior scheduling passes: running PCPUs are untouched (their
        # VCPU stays runnable all batch), but each idle PCPU makes one
        # steal attempt per interior epoch.  With every queue empty those
        # attempts cannot succeed, mutate queues or read anything the
        # replay advances — they only draw scheduler RNG (e.g.
        # credit.steal's permutation), so one idle_steals call consumes
        # all of them up front, leaving every stream where the
        # reference's per-epoch calls would.
        n = (kb - 1) * (len(machine.pcpus) - len(running_pcpus))
        if n > 0:
            profiler = machine.profiler
            t0 = profiler.start()
            machine.policy.idle_steals(n)
            profiler.stop("balance", t0)

        if not running_vcpus:
            # Nothing runs: warmth still decays on every LLC.
            for advance in self._cache_advance_batch:
                advance(epoch, kb, (), (), frozenset())
            return end_batch
        plan = self._plan_for(running_pcpus, running_vcpus)
        return self._advance_replay_fused(
            end_batch, epoch, kb, plan, running_pcpus, running_vcpus
        )

    def _advance_replay_fused(
        self,
        end_batch: float,
        epoch: float,
        kb: int,
        plan: tuple,
        running_pcpus: list,
        running_vcpus: List[Vcpu],
    ) -> float:
        """Event-free horizon: scalar replay with hoisted state.

        Runs the reference loop's exact arithmetic — same Python-float
        expressions, same accumulation order — for ``kb`` epochs, but
        performs the running-set scan, plan lookup, warmth/PMU/placement
        reads and every state commit once per batch instead of once per
        epoch.  The accumulator chains (busy time, progress, PMU banks)
        evolve on Python locals seeded from live state, and the finals
        are written back after the last epoch; placement drift updates
        the placements' live lists in place.  Both are bitwise neutral
        because nothing else reads that state mid-batch (the caller
        guarantees an event-free interior and has already drawn the
        idle PCPUs' steal RNG, which reads none of it).
        """
        machine = self.machine
        (
            hit_ns,
            local_dram,
            bw0,
            bw1,
            qpi_bw,
            s_dram,
            s_remote,
            cap,
            knee,
            bpm,
        ) = self._scalars
        rows, miss_plan, charge_plan, nodes, banks, pmu_rows, stale = plan

        # Reseed member warmth from the live tables.
        for table, (members, w_l, *_) in zip(self._warmth_tables, nodes):
            for j, key in enumerate(members):
                w_l[j] = table.get(key, 0.0)

        # Accumulator seeds (live values in, finals out).
        pend_l = [p.overhead_pending_s for p in running_pcpus]
        busy_l = [p.busy_time_s for p in running_pcpus]
        mbusy = machine.busy_time_s
        id_l = [v.workload.instructions_done for v in running_vcpus]
        slice_l = [v.slice_used_s for v in running_vcpus]
        burst_l = [v.run_burst_remaining_s for v in running_vcpus]
        matrix = machine.pmu._node_matrix
        bi_l = [b.instructions for b in banks]
        br_l = [b.llc_refs for b in banks]
        bm_l = [b.llc_misses for b in banks]
        bl_l = [b.local_accesses for b in banks]
        bx_l = [b.remote_accesses for b in banks]
        m0_l = [float(matrix[r, 0]) for r in pmu_rows]
        m1_l = [float(matrix[r, 1]) for r in pmu_rows]

        # --- Per-epoch replay ------------------------------------------
        # Each epoch preserves the reference phase order: miss curves,
        # then page mix + first contention round (rates feed traffic,
        # traffic feeds the inlined dual-socket solve), then penalties +
        # final rates + progress/PMU/drift, then warmth charge.  Merging
        # the per-i loops is bitwise neutral because no merged statement
        # reads another VCPU's output from the same pass; every
        # cross-VCPU accumulator (imc/qpi flows, machine busy time)
        # still folds in ascending VCPU order.
        for _tt in range(kb):
            for w_l, j, scr, share, minmr, span, shape, bad in miss_plan:
                f = 1.0 if bad else share * w_l[j]
                missing = 1.0 - f if shape == 1.0 else (1.0 - f) ** shape
                scr[2] = minmr + span * missing

            imc0 = 0.0
            imc1 = 0.0
            qpi_t = 0.0
            for (
                c, a, row, over, rp, cb, ml, ck, n2, scr, nd0, _t, _d, _n
            ) in rows:
                m0 = c * row[0] + a * over[0]
                m1 = c * row[1] + a * over[1]
                s = m0 + m1
                x0 = m0 / s
                x1 = m1 / s
                scr[0] = x0
                scr[1] = x1
                mr = scr[2]
                per_ref_ns = (1.0 - mr) * hit_ns + mr * local_dram
                stall = rp * per_ref_ns * n2 / ml
                rate = ck / (cb + stall)
                t = rate * rp * mr * bpm
                flow0 = t * x0
                flow1 = t * x1
                imc0 += flow0
                imc1 += flow1
                if nd0:
                    qpi_t += flow1
                else:
                    qpi_t += flow0

            rho0 = imc0 / bw0
            rho1 = imc1 / bw1
            factor0 = cap if rho0 >= knee else 1.0 / (1.0 - rho0)
            factor1 = cap if rho1 >= knee else 1.0 / (1.0 - rho1)
            qpi_rho = qpi_t / qpi_bw
            qpi_factor = cap if qpi_rho >= knee else 1.0 / (1.0 - qpi_rho)
            dram0 = s_dram * factor0
            dram1 = s_dram * factor1
            remote_add = s_remote * qpi_factor

            i = 0
            for (
                _c, _a, row, over, rp, cb, ml, ck, n2, scr, nd0, total,
                d, nsl,
            ) in rows:
                penalty = 0.0
                frac = scr[0]
                if frac > 0:
                    penalty += (
                        frac * dram0 if nd0 else frac * (dram0 + remote_add)
                    )
                frac = scr[1]
                if frac > 0:
                    penalty += (
                        frac * (dram1 + remote_add) if nd0 else frac * dram1
                    )
                mr = scr[2]
                per_ref_ns = (1.0 - mr) * hit_ns + mr * penalty
                stall = rp * per_ref_ns * n2 / ml
                rate = ck / (cb + stall)

                pending = pend_l[i]
                if pending > 0.0:
                    used = pending if pending < epoch else epoch
                    pend_l[i] = pending - used
                    compute = epoch - used
                else:
                    compute = epoch
                busy_l[i] += epoch
                mbusy += epoch
                done = rate * compute
                if total is not None:
                    remaining = total - id_l[i]
                    if remaining < 0.0:
                        remaining = 0.0
                    if remaining < done:
                        done = remaining
                r = done * rp
                mi = r * mr
                a0 = mi * scr[0]
                a1 = mi * scr[1]
                m0_l[i] += a0
                m1_l[i] += a1
                bi_l[i] += done
                br_l[i] += r
                bm_l[i] += mi
                local = a0 if nd0 else a1
                bl_l[i] += local
                bx_l[i] += (a0 + a1) - local

                id_l[i] += done
                slice_l[i] += epoch
                burst_l[i] -= epoch
                i += 1
                if d > 0:
                    r0 = row[0]
                    r1 = row[1]
                    keep = 1.0 - d
                    n0 = r0 * keep
                    n1 = r1 * keep
                    if nd0:
                        n0 = n0 + d
                    else:
                        n1 = n1 + d
                    row[0] = n0
                    row[1] = n1
                    over[0] += (n0 - r0) / nsl
                    over[1] += (n1 - r1) / nsl

            for w_l, j, cf in charge_plan:
                w_l[j] = 1.0 - (1.0 - w_l[j]) * cf

        # --- Commit ----------------------------------------------------
        for i, pcpu in enumerate(running_pcpus):
            pcpu.overhead_pending_s = pend_l[i]
            pcpu.busy_time_s = busy_l[i]
            vcpu = running_vcpus[i]
            vcpu.workload.instructions_done = id_l[i]
            vcpu.slice_used_s = slice_l[i]
            vcpu.run_burst_remaining_s = burst_l[i]
        machine.busy_time_s = mbusy

        for i, b in enumerate(banks):
            b.instructions = bi_l[i]
            b.llc_refs = br_l[i]
            b.llc_misses = bm_l[i]
            b.local_accesses = bl_l[i]
            b.remote_accesses = bx_l[i]
            r = pmu_rows[i]
            matrix[r, 0] = m0_l[i]
            matrix[r, 1] = m1_l[i]

        for placement in stale:
            placement._np_stale = True

        # Batch-final transitions, in running order (interior epochs are
        # transition-free by the horizon contract; the burst cap is
        # inclusive, so a burst draining to zero blocks here).
        policy = machine.policy
        log = machine.log
        for pcpu, vcpu in zip(running_pcpus, running_vcpus):
            w = vcpu.workload
            total = w.profile.total_instructions
            if total is not None and w.instructions_done >= total:
                vcpu.mark_done(end_batch)
                pcpu.current = None
                machine.context_switches += 1
                policy.on_context_switch(pcpu, vcpu, None)
                log.emit(end_batch, "finish", vcpu=vcpu.name)
                self.finite_remaining -= 1
            elif vcpu.run_burst_remaining_s <= 0:
                vcpu.block_until(end_batch + w.draw_block_time())
                self.push_wake(vcpu)
                pcpu.current = None
                machine.context_switches += 1
                policy.on_context_switch(pcpu, vcpu, None)

        # --- LLC warmth commit -----------------------------------------
        # Every node advances (a member-less node still decays its
        # warm entries), exactly like the reference loop.
        for advance, (members, w_l, member_set, *_) in zip(
            self._cache_advance_batch, nodes
        ):
            advance(epoch, kb, members, w_l, member_set)
        return end_batch

    # ------------------------------------------------------------------
    # Horizon statistics
    # ------------------------------------------------------------------
    def horizon_stats(self) -> Optional[dict]:
        """Horizon-length distribution for this run.

        Returns None before the first horizon decision.  ``p50``/``p90``
        are weighted percentiles over per-decision horizon lengths (the
        smallest length covering that fraction of decisions); ``epochs``
        is their weighted sum, ``batches`` counts horizons of length > 1
        (macro-steps).  Counters reset with the engine, so a
        run resumed from a checkpoint reports post-resume statistics
        only.
        """
        hist = self._horizon_hist
        if not hist:
            return None
        lengths = sorted(hist)
        steps = sum(hist.values())

        def pct(q: float) -> int:
            target = q * steps
            cum = 0
            for length in lengths:
                cum += hist[length]
                if cum >= target:
                    return length
            return lengths[-1]

        return {
            "horizons": steps,
            "epochs": sum(length * n for length, n in hist.items()),
            "batches": sum(n for length, n in hist.items() if length > 1),
            "p50": pct(0.5),
            "p90": pct(0.9),
            "max": lengths[-1],
            "hist": [[length, hist[length]] for length in lengths],
        }
