"""The batched epoch engine: one fused scalar replay per event horizon.

The reference implementation in :mod:`repro.xen.simulator` prices every
epoch through per-VCPU dictionaries (demands, rates, traffic, penalties,
page mixes) and rescans all VCPUs for wakeups, phase changes and finite
completion.  That is the clearest possible statement of the model — and
the hot path of every experiment, so :class:`BatchedEngine`, the one
fast engine a run can select (``engine="batched"``), keeps flat per-VCPU
invariants keyed by VCPU index, event heaps, and one persistent *replay
slot* per PCPU, and advances every event horizon, from a single epoch
up, through one fused scalar replay.  It is built only for the paper's
dual-socket host; the machine runs other topologies through its
reference loop.

**Replay slots.**  A PCPU's slot holds the replay row of the VCPU it
runs: the row constants of that VCPU on that node (from a per-(VCPU,
node) record), the placement's live page-mix lists, and the live
objects the replay charges in place — the PCPU (overhead budget, busy
time), the VCPU (slice, burst), its workload (progress) and its PMU
bank (counters, per-node accesses).  A slot is rebuilt only when its
PCPU runs a different VCPU or that VCPU changed phase; a node's
co-runner plan (its members' LLC shares) is looked up, and their
warmth scratch reseeded, only when that node's running set changed.  Because the replay reads
and writes the live fields themselves, whatever a boundary phase wrote
between horizons (tick and context-switch overhead charges, a slice
reset on switch-in, a crash's lost progress) is simply what the next
horizon starts from: there is no seed and no commit to keep in step.

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
engine from a live machine (``Machine.add_domain`` invalidates it, and
a checkpoint drops it) is therefore lossless.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.hardware.cache import LLCState, waterfill_shares
from repro.hardware.memory import BYTES_PER_MISS
from repro.xen.vcpu import Vcpu, VcpuState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.pcpu import Pcpu
    from repro.xen.simulator import Machine

__all__ = ["BatchedEngine"]


class BatchedEngine:
    """Macro-stepping engine: one fused scalar replay per event horizon.

    Built lazily on the first stepped epoch of a dual-socket machine and
    discarded whenever the machine's VCPU population changes;
    construction scans the live machine state once, after which
    per-horizon work touches only the VCPUs that are actually running,
    waking or changing phase.

    Each horizon is sized first: the number of upcoming epochs
    guaranteed free of discrete events — scheduler ticks, sampling
    boundaries, wakeups, phase changes, finite-work completions,
    run-burst expiries, fault stalls/crashes, the epoch cap and the
    run's time limit.  Every horizon, a single epoch included, then
    advances in one call to :meth:`_advance_replay_fused`, which runs
    the reference loop's exact per-epoch arithmetic on the replay slots
    (see the module docstring); a horizon with nothing running only
    decays LLC warmth.

    The bitwise contract survives batching because inside the horizon
    every epoch applies the same Python-float expressions, in the same
    order, to the same running set; only transitions and the LLC
    warmth commit move to the batch end.  Scheduler RNG parity is kept
    by one :meth:`~repro.xen.credit.SchedulerPolicy.idle_steals` call
    per horizon, which draws what the (no-op) steal attempts of idle
    PCPUs in the interior epochs would draw.

    Dual-socket only: the replay inlines the two-node memory solve, and
    ``Machine`` builds no engine for other topologies.
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
        # immutable; the phase-dependent ones (rpi, LLC demand, warmth
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
        #: (waterfill weight, working set) of the VCPU's LLC demand
        self.llc_fill: List[Tuple[float, float]] = [(0.0, 0.0)] * n
        #: (min miss, miss span, curve shape, working set <= 0, warmth
        #: charge factor): the VCPU's miss curve and warmth charge
        self.miss_tail: List[tuple] = [()] * n
        self.total_instr: List[float] = [0.0] * n
        #: per-key phase generation, bumped by refresh_vcpu(): a replay
        #: record or slot built under an older generation is rebuilt.
        self.key_gen: List[int] = [0] * n
        # Per-key replay scratch ``[x0, x1, miss]`` (page mix and miss
        # rate of the current epoch) and ``[warmth, share]`` (the VCPU's
        # warmth on the LLC it runs on and its capped LLC share there,
        # set when its node's co-runner set is planned).  Stable list
        # objects held by the records, so no row embeds a co-runner set.
        self._scratch = [[0.0, 0.0, 0.0] for _ in range(n)]
        self._warm = [[0.0, 0.0] for _ in range(n)]
        # Replay records, ``_records[key][node]`` (see _record): a stale
        # record is replaced in place, so the memo holds at most one per
        # (VCPU, node) and needs no eviction.
        self._records: List[List[Optional[tuple]]] = [
            [None, None] for _ in range(n)
        ]
        # Per-co-runner-set node plans (see _node_entry).  Phase-
        # dependent, so refresh_vcpu() evicts entries mentioning the key.
        self._node_cache: Dict[Tuple, Tuple] = {}
        #: per-key node-cache keys of the live plans mentioning it
        self._node_keys_of: List[Set[Tuple]] = [set() for _ in range(n)]
        # Replay slots: each PCPU's slot row (see _slot) for the VCPU
        # it runs, or None when idle or invalidated by a phase change.
        self._slots: List[Optional[tuple]] = [None] * len(machine.pcpus)
        # Each node's plan entry in the last replayed horizon: its
        # members' warmth scratch already holds what the warmth commit
        # wrote.  None marks a node whose co-runner set must be planned
        # and reseeded.
        self._node_last: List[Optional[tuple]] = [None, None]
        self._node_pids: List[List[int]] = [
            [p.pcpu_id for p in machine.pcpus if p.node == node]
            for node in range(2)
        ]
        # The current plan and the PCPU occupancy it was built for.
        self._plan: Optional[tuple] = None
        self._currents: list = []
        for vcpu in vcpus:
            self.refresh_vcpu(vcpu)

        # Live per-node warmth tables (stable dict objects).
        self._warmth_tables = [
            cache.state.warmth_table for cache in machine.caches
        ]
        self._cache_advance_batch = [
            cache.state.advance_compact_batch for cache in machine.caches
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
    # Invariant maintenance
    # ------------------------------------------------------------------
    def refresh_vcpu(self, vcpu: Vcpu) -> None:
        """Recompute phase-dependent invariants after a phase change."""
        w = vcpu.workload
        key = vcpu.key
        self.rpi[key] = w.profile.refs_per_instruction * w.intensity_multiplier
        demand = w.cache_demand()
        ws = demand.working_set_bytes
        # The weight and the charge factor are the reference's
        # expressions (CacheModel.solve, LLCState.advance).
        self.llc_fill[key] = (demand.intensity * max(ws, 1.0), ws)
        tau = max(1e-4, ws / LLCState.FILL_BANDWIDTH)
        self.miss_tail[key] = (
            demand.min_miss_rate,
            demand.max_miss_rate - demand.min_miss_rate,
            demand.curve_shape,
            ws <= 0,
            math.exp(-self.epoch / tau),
        )
        self.total_instr[key] = w.profile.total_instructions
        self.key_gen[key] += 1
        # Selective eviction: only node plans that embed this key's
        # demand are stale; its records fail their generation check on
        # next use, and a slot running it is dropped (with its node's
        # plan) here.  An evicted plan leaves every member's index, so
        # the index holds only live plans.
        node_cache = self._node_cache
        keys_of = self._node_keys_of
        for node_key in keys_of[key]:
            del node_cache[node_key]
            for member in node_key[1]:
                if member != key:
                    keys_of[member].discard(node_key)
        keys_of[key] = set()
        slots = self._slots
        for pid, row in enumerate(slots):
            if row is not None and row[14] is vcpu:
                slots[pid] = None
                self._node_last[row[19].node] = None
        self._plan = None

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

        ``(gen, row, tail)``: ``gen`` is the key's phase generation at
        build time; ``row`` is ``(c, 1.0 - c, slice_row, overall, rpi,
        cpi_base, mlp, clock, ns2c, scratch, node == 0, total, drift,
        num_slices, vcpu, workload, bank, node_accesses, step)``, whose
        ``slice_row``/``overall`` are the placement's live lists
        ``placement.rows[slice]`` and ``placement.overall`` (aliased
        readers share them, so intra-epoch interleavings replay
        exactly), whose ``bank`` and ``node_accesses`` are the VCPU's
        live PMU bank and its per-node list, and whose ``step`` is the
        most progress one epoch can make there (``clock / cpi_base *
        epoch``, the horizon's completion floor).  ``tail`` is ``(warm,
        min_miss, miss_span, curve_shape, ws <= 0, charge_factor)``,
        with ``warm`` the VCPU's ``[warmth, share]`` scratch.
        """
        vcpu = self.machine.vcpus[key]
        placement = vcpu.domain.placement
        c = self.conc[key]
        bank = self.machine.pmu.peek(key)
        row = (
            c,
            1.0 - c,
            placement.rows[vcpu.workload.slice_id],
            placement.overall,
            self.rpi[key],
            self.cpi_base[key],
            self.mlp[key],
            self.node_clock[node],
            self.node_ns2c[node],
            self._scratch[key],
            node == 0,
            self.total_instr[key],
            self.drift_amount[key],
            placement.num_slices,
            vcpu,
            vcpu.workload,
            bank,
            bank.node_accesses,
            self.node_clock[node] / self.cpi_base[key] * self.epoch,
        )
        return (self.key_gen[key], row, (self._warm[key],) + self.miss_tail[key])

    def _node_entry(self, node: int, members: Tuple[int, ...]) -> Tuple:
        """``(members, shares, member_set)`` for one co-runner set.

        ``members`` is sorted by key; ``shares[j]`` is member ``j``'s
        capped LLC share ``min(1.0, alloc / ws)`` on ``node``: exactly
        the scalar the reference recomputes every epoch — same inputs,
        same float — so it is safe to freeze per co-runner set.
        """
        node_key = (node, members)
        entry = self._node_cache.get(node_key)
        if entry is None:
            # The waterfilled allocations depend only on capacity and
            # the demands, not on warmth, so they are fixed per set.
            fills = [self.llc_fill[key] for key in members]
            caps = [ws for _, ws in fills]
            allocs = waterfill_shares(
                self.machine.caches[node].capacity_bytes,
                [weight for weight, _ in fills],
                caps,
            )
            shares = [
                min(1.0, alloc / ws) if ws > 0 else 0.0
                for alloc, ws in zip(allocs, caps)
            ]
            entry = (members, shares, frozenset(members))
            self._node_cache[node_key] = entry
            for key in members:
                self._node_keys_of[key].add(node_key)
        return entry

    def _slot(self, pcpu: Pcpu, vcpu: Vcpu) -> tuple:
        """The replay row of ``pcpu`` running ``vcpu``.

        The VCPU's record row on the PCPU's node (rebuilt when the
        VCPU's phase generation moved), followed by the PCPU and the
        record's miss/warmth tail.
        """
        key = vcpu.key
        pair = self._records[key]
        rec = pair[pcpu.node]
        if rec is None or rec[0] != self.key_gen[key]:
            rec = pair[pcpu.node] = self._record(key, pcpu.node)
        return rec[1] + (pcpu,) + rec[2]

    def _plan_for(self) -> tuple:
        """This horizon's replay plan, from the slots of the running PCPUs.

        ``(rows, nodes)``: the slot of every running PCPU, in PCPU
        order, and each node's plan.  With the same occupancy as the
        last horizon and no phase change since, the plan is reused
        outright.  Otherwise only the slots whose PCPU now runs a
        different VCPU are rebuilt, and only a node whose co-runner set
        moved gets a new node plan, which sets its members' shares and
        reseeds their warmth; the other node's members already hold
        what the last warmth commit wrote.
        """
        pcpus = self.machine.pcpus
        currents = [p.current for p in pcpus]
        plan = self._plan
        if plan is not None and currents == self._currents:
            return plan
        self._currents = currents
        slots = self._slots
        node_last = self._node_last
        for pid, vcpu in enumerate(currents):
            slot = slots[pid]
            if vcpu is None:
                if slot is not None:
                    slots[pid] = None
                    node_last[slot[19].node] = None
            elif slot is None or slot[14] is not vcpu:
                pcpu = pcpus[pid]
                slots[pid] = self._slot(pcpu, vcpu)
                node_last[pcpu.node] = None
        for node, entry in enumerate(node_last):
            if entry is None:
                keys = [
                    slots[pid][14].key
                    for pid in self._node_pids[node]
                    if slots[pid] is not None
                ]
                keys.sort()
                members = tuple(keys)
                entry = node_last[node] = self._node_entry(node, members)
                table = self._warmth_tables[node]
                warm = self._warm
                for key, share in zip(members, entry[1]):
                    cell = warm[key]
                    cell[0] = table.get(key, 0.0)
                    cell[1] = share
        plan = (
            [slot for slot in slots if slot is not None],
            (node_last[0], node_last[1]),
        )
        self._plan = plan
        return plan

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
        kb = self._size_horizon(now, limit, self._plan_for()[0])
        hist = self._horizon_hist
        hist[kb] = hist.get(kb, 0) + 1
        return kb

    def _size_horizon(self, now: float, limit: float, rows: list) -> int:
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
        window = (kb + 1) * epoch
        for row in rows:
            total = row[11]
            if total is not None:
                floor = int((total - row[15].instructions_done) / row[18]) - 1
                if floor < kb:
                    if floor <= 1:
                        return 1
                    kb = floor
                    window = (kb + 1) * epoch
            burst = row[14].run_burst_remaining_s
            if burst <= window:
                # Expiry may land inside the window: replay the exact
                # per-epoch subtraction chain (`x -= epoch`, the same
                # sequential float ops the progress pass performs) to
                # find the first epoch whose end leaves the budget at
                # or below zero, and end the batch there.
                x = burst
                for j in range(kb):
                    x -= epoch
                    if x <= 0.0:
                        if j == 0:
                            return 1
                        kb = j + 1
                        window = (kb + 1) * epoch
                        break
        if len(rows) < len(machine.pcpus):
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
        phases and sized the batch with :meth:`compute_horizon` at this
        boundary, which guarantees that no discrete event fires strictly
        inside it and leaves the boundary's replay plan in place.
        """
        machine = self.machine
        plan = self._plan
        running = len(plan[0])

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
        n = (kb - 1) * (len(machine.pcpus) - running)
        if n > 0:
            machine.policy.idle_steals(n)

        if not running:
            # Nothing runs: warmth still decays on every LLC, so no
            # node's warmth scratch survives this horizon.
            for advance in self._cache_advance_batch:
                advance(epoch, kb, (), (), frozenset())
            self._node_last = [None, None]
            return end_batch
        return self._advance_replay_fused(end_batch, epoch, kb, plan)

    def _advance_replay_fused(
        self,
        end_batch: float,
        epoch: float,
        kb: int,
        plan: tuple,
    ) -> float:
        """Event-free horizon: scalar replay on the slots' live objects.

        Runs the reference loop's exact arithmetic — same Python-float
        expressions, same accumulation order — for ``kb`` epochs, but
        performs the running-set scan, plan lookup and transitions once
        per batch instead of once per epoch.  Progress, busy time,
        overhead, slice, burst and PMU counters accumulate in place on
        the live PCPU, VCPU, workload and bank objects; placement drift
        updates the placements' live lists.  Both are bitwise neutral
        because nothing else reads that state mid-batch (the caller
        guarantees an event-free interior and has already drawn the
        idle PCPUs' steal RNG, which reads none of it).  Only the
        machine's busy total (a local) and the members' warmth (their
        scratch) are written back at the end.
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
        rows, nodes = plan
        mbusy = machine.busy_time_s

        # --- Per-epoch replay ------------------------------------------
        # Each epoch preserves the reference phase order: miss curves +
        # page mix + first contention round (rates feed traffic,
        # traffic feeds the inlined dual-socket solve), then penalties +
        # final rates + progress/PMU/drift + warmth charge.  Merging
        # the per-VCPU loops is bitwise neutral because no merged
        # statement reads another VCPU's output from the same pass (a
        # miss rate and a warmth charge read only their own VCPU's
        # warmth); every cross-VCPU accumulator (imc/qpi flows, machine
        # busy time) still folds in ascending VCPU order.
        for _tt in range(kb):
            imc0 = 0.0
            imc1 = 0.0
            qpi_t = 0.0
            for (
                c, a, row, over, rp, cb, ml, ck, n2, scr, nd0,
                _t, _d, _n, _vc, _w, _b, _na, _s, _pc,
                warm, minmr, span, shape, bad, _cf,
            ) in rows:
                f = 1.0 if bad else warm[1] * warm[0]
                missing = 1.0 - f if shape == 1.0 else (1.0 - f) ** shape
                mr = minmr + span * missing
                scr[2] = mr
                r0, r1 = row
                o0, o1 = over
                m0 = c * r0 + a * o0
                m1 = c * r1 + a * o1
                s = m0 + m1
                x0 = m0 / s
                x1 = m1 / s
                scr[0] = x0
                scr[1] = x1
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
            far0 = dram0 + remote_add
            far1 = dram1 + remote_add

            for (
                _c, _a, row, over, rp, cb, ml, ck, n2, scr, nd0, total,
                d, nsl, vcpu, w, bank, na, _s, pcpu,
                warm, _mm, _sp, _cs, _bd, cf,
            ) in rows:
                # The per-miss penalty: each node's page share times
                # its DRAM latency, plus the QPI hop when remote.  A
                # zero share adds +0.0, which leaves the sum's bits
                # alone, so the reference's ``if frac > 0`` needs no
                # branch here.
                x0, x1, mr = scr
                if nd0:
                    penalty = x0 * dram0 + x1 * far1
                else:
                    penalty = x0 * far0 + x1 * dram1
                per_ref_ns = (1.0 - mr) * hit_ns + mr * penalty
                stall = rp * per_ref_ns * n2 / ml
                rate = ck / (cb + stall)

                pending = pcpu.overhead_pending_s
                if pending > 0.0:
                    used = pending if pending < epoch else epoch
                    pcpu.overhead_pending_s = pending - used
                    compute = epoch - used
                else:
                    compute = epoch
                pcpu.busy_time_s += epoch
                mbusy += epoch
                done = rate * compute
                if total is not None:
                    remaining = total - w.instructions_done
                    if remaining < 0.0:
                        remaining = 0.0
                    if remaining < done:
                        done = remaining
                r = done * rp
                mi = r * mr
                a0 = mi * x0
                a1 = mi * x1
                na[0] += a0
                na[1] += a1
                bank.instructions += done
                bank.llc_refs += r
                bank.llc_misses += mi
                local = a0 if nd0 else a1
                bank.local_accesses += local
                bank.remote_accesses += (a0 + a1) - local

                w.instructions_done += done
                vcpu.slice_used_s += epoch
                vcpu.run_burst_remaining_s -= epoch
                if d > 0:
                    r0, r1 = row
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
                warm[0] = 1.0 - (1.0 - warm[0]) * cf

        machine.busy_time_s = mbusy

        # Batch-final transitions, in running order (interior epochs are
        # transition-free by the horizon contract; the burst cap is
        # inclusive, so a burst draining to zero blocks here).
        policy = machine.policy
        for row in rows:
            total = row[11]
            vcpu = row[14]
            w = row[15]
            if total is not None and w.instructions_done >= total:
                pcpu = row[19]
                vcpu.mark_done(end_batch)
                pcpu.current = None
                machine.context_switches += 1
                policy.on_context_switch(pcpu, vcpu, None)
                machine.log.emit(end_batch, "finish", vcpu=vcpu.name)
                self.finite_remaining -= 1
            elif vcpu.run_burst_remaining_s <= 0:
                pcpu = row[19]
                vcpu.block_until(end_batch + w.draw_block_time())
                self.push_wake(vcpu)
                pcpu.current = None
                machine.context_switches += 1
                policy.on_context_switch(pcpu, vcpu, None)

        # --- LLC warmth commit -----------------------------------------
        # Every node advances (a member-less node still decays its
        # warm entries), exactly like the reference loop.
        warm = self._warm
        for advance, (members, _shares, member_set) in zip(
            self._cache_advance_batch, nodes
        ):
            advance(
                epoch, kb, members, [warm[key][0] for key in members], member_set
            )
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
