"""The batched epoch engine: one compiled replay per event horizon.

The reference implementation in :mod:`repro.xen.simulator` prices every
epoch through per-VCPU dictionaries (demands, rates, traffic, penalties,
page mixes) and rescans all VCPUs for wakeups, phase changes and finite
completion.  That is the clearest possible statement of the model — and
the hot path of every experiment, so :class:`BatchedEngine`, the one
fast engine a run can select (``engine="batched"``), keeps flat per-VCPU
invariants keyed by VCPU index, event heaps, and one persistent *replay
slot* per PCPU, and advances every event horizon, from a single epoch
up, through one call of a small C kernel.  It is built only for the
paper's dual-socket host, and only when the kernel could be compiled;
otherwise the machine runs its reference loop.

**The kernel.**  ``_replay.c`` (built and loaded by
:mod:`repro.xen.kernel` when this module is imported) runs the
horizon's epochs: the contention pass, the inlined dual-socket solve
and the progress/PMU/drift/warmth pass, with the reference loop's
expressions in its order, on C doubles compiled with ``-O2
-ffp-contract=off -fno-fast-math`` (so each ``+ - * /`` rounds as a
Python float operation does; ``pow`` is the libm one ``float.__pow__``
calls).  Per horizon it reads each slot's live fields once — PCPU
overhead and busy time, the PMU bank's counters and node accesses,
progress, slice, burst, warmth and scratch — and writes back only the
fields the loop assigns, when it assigns them (overhead only when it
was positive, placement lists only when they drift).  Placement rows
and ``overall`` lists shared between VCPUs are de-duplicated by
identity, so a shared list's drifts apply in row order within each
epoch.  A zero divisor raises ``ZeroDivisionError``, as in Python.

**Replay slots.**  A PCPU's slot holds two projections of the replay
row of the VCPU it runs, one per kernel pass, each with only the fields
that pass reads: 16 for the contention pass (miss curve, page mix,
first contention round) and 19 for the progress pass (penalties,
rates, progress, PMU, drift, warmth charge).  Both come from a
per-(VCPU, node) record and hold the placement's live page-mix lists
and the live objects the replay charges in place — the PCPU (overhead
budget, busy time), the VCPU (slice, burst), its workload (progress)
and its PMU bank.  A slot is rebuilt only when its PCPU runs a
different VCPU or that VCPU changed phase.  Because the replay reads
and writes the live fields themselves, whatever a boundary phase wrote
between horizons (tick and context-switch overhead charges, a slice
reset on switch-in, a crash's lost progress) is simply what the next
horizon starts from: there is no seed and no commit to keep in step.

**Node plans and warmth.**  A node whose running set changed gets a
new plan: its members' capped LLC shares, and their warmth scratch
reseeded from the LLC's live warmth table.  The shares are a waterfill
of the node's capacity over the members' demands, so they are memoised
by ``(node, members' demands)``: co-runner sets with equal demands
share one waterfill, a phase change (a new demand) evicts nothing, and
the memo is simply cleared once it holds ``SHARES_MEMO_SIZE`` sets.
After the replay, one engine loop commits the horizon's warmth into
both nodes' live tables — members take their charged scratch, every
other VCPU decays by the hoisted per-epoch factor — and a horizon with
nothing running takes the same loop with no members.

**Boundary glue.**  The run queues keep a machine-wide queued count,
so an idle PCPU's steal with nothing queued elsewhere, and the horizon
sizing's idle-queue guard, cost one comparison instead of a scan over
every queue (the audit's placement invariant checks the count).

**The contract is bitwise equality**: for any scenario and seed, a run
through the batched engine produces exactly the same simulated results
(finish times, counter values, migration counts, overhead) as the
reference loop.  Four rules keep that true:

* elementwise float64 arithmetic (``+ - * /``) produces identical bits
  whether it runs through Python floats or C doubles without
  contraction, so each per-VCPU expression may run in the kernel — but
  *reductions* may not be reordered: every ordered
  accumulation (IMC/QPI traffic, per-miss penalties, busy time, a
  warmth decay chain) stays a sequential loop in exactly the
  reference's order;
* every cached invariant (``refs_per_instruction * intensity_multiplier``,
  the memoised :class:`CacheDemand`, the LLC warmth charge factor, the
  first-touch drift per epoch, the waterfilled LLC shares) depends only
  on the profile, the phase multipliers and the co-runners' demands, so
  it is refreshed precisely when :meth:`VcpuWorkload.maybe_phase_change`
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
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.hardware.cache import LLCState, waterfill_shares
from repro.hardware.memory import BYTES_PER_MISS
from repro.xen.kernel import load as load_kernel
from repro.xen.vcpu import Vcpu, VcpuState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.pcpu import Pcpu
    from repro.xen.simulator import Machine

__all__ = ["BatchedEngine"]

_BLOCKED = VcpuState.BLOCKED
_vcpu_key = attrgetter("key")
#: Node plans of a horizon with nothing running: no members anywhere.
_IDLE_NODES = (((), ()), ((), ()))


class BatchedEngine:
    """Macro-stepping engine: one compiled replay per event horizon.

    Built lazily on the first stepped epoch of a dual-socket machine and
    discarded whenever the machine's VCPU population changes.  Each
    horizon is sized first (:meth:`compute_horizon`): the number of
    upcoming epochs guaranteed free of discrete events — scheduler
    ticks, sampling boundaries, wakeups, phase changes, finite-work
    completions, run-burst expiries, fault stalls/crashes, the epoch cap
    and the run's time limit.  :meth:`advance_batch` then replays it in
    one call (see the module docstring); only transitions and the LLC
    warmth commit move to the batch end.  Scheduler RNG parity is kept
    by one :meth:`~repro.xen.credit.SchedulerPolicy.idle_steals` call
    per horizon, which draws what the (no-op) steal attempts of idle
    PCPUs in the interior epochs would draw.
    """

    #: The compiled replay kernel; None when it could not be built, and
    #: then every machine runs the reference loop.
    kernel = load_kernel()
    #: Distinct co-runner demand sets whose shares are kept; reaching it
    #: clears the memo (the shares are a pure function of their key).
    SHARES_MEMO_SIZE = 4096

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.epoch = machine.config.epoch_s
        self._replay = self.kernel.replay
        topo = machine.topology
        vcpus = machine.vcpus

        # Per-node constants.  ``ns_to_cycles`` is precomputed exactly as
        # the reference evaluates it (clock_hz * 1e-9).
        self.node_clock: List[float] = [node.clock_hz for node in topo.nodes]
        self.node_ns2c: List[float] = [c * 1e-9 for c in self.node_clock]

        # Per-VCPU LLC demands, keyed by VCPU key and refreshed by
        # refresh_vcpu() on phase change.
        n = len(vcpus)
        #: (waterfill weight, working set) of the VCPU's LLC demand
        self.llc_fill: List[Tuple[float, float]] = [(0.0, 0.0)] * n
        #: small id of the VCPU's ``llc_fill`` value: VCPUs with equal
        #: demands share an id, so node plans can be keyed by demand
        self.fill_id: List[int] = [0] * n
        self._fill_ids: Dict[Tuple[float, float], int] = {}
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
        # Node plans' capped LLC shares, keyed by ``(node, fill ids of
        # the members in key order)`` (see _node_entry).  The shares
        # depend only on the demands, so a phase change evicts nothing;
        # the memo is cleared when it reaches SHARES_MEMO_SIZE.
        self._shares_memo: Dict[Tuple, List[float]] = {}
        # Replay slots: each PCPU's ``(contention row, progress row,
        # guard)`` (see _slot) for the VCPU in ``_held[pid]``, None when
        # the PCPU idles or its slot was dropped by a phase change.
        self._slots: List[Optional[tuple]] = [None] * len(machine.pcpus)
        self._held: List[Optional[Vcpu]] = [None] * len(machine.pcpus)
        # Each node's plan entry in the last replayed horizon (its
        # members' warmth scratch holds what the warmth commit wrote);
        # None marks a node to plan and reseed.
        self._node_last: List[Optional[tuple]] = [None, None]
        # Each node's PCPUs as a slice of ``_held`` (ids run node by node).
        self._node_span: List[slice] = [
            slice(ids[0], ids[-1] + 1) for ids in map(topo.pcpus_of_node, range(2))
        ]
        # The current plan, None when a slot or node plan must change.
        self._plan: Optional[tuple] = None
        for vcpu in vcpus:
            self.refresh_vcpu(vcpu)

        # Live per-node warmth tables (stable dict objects) and the
        # reference's per-epoch decay factor for absent VCPUs
        # (LLCState.advance with dt = epoch > 0).
        self._warmth_tables = [
            cache.state.warmth_table for cache in machine.caches
        ]
        self._decay = math.exp(-self.epoch / LLCState.DECAY_TIME)

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
        # The kernel's latency/topology constants for the inlined
        # dual-socket solve, in its argument order (queue_inflation's
        # default cap and knee, minus validation).
        lat = machine.config.latency
        memsys = machine.memsys
        nodes = memsys.topology.nodes
        cap = 8.0
        self._scalars = (
            lat.llc_hit_ns, lat.local_dram_ns,
            nodes[0].imc_bandwidth, nodes[1].imc_bandwidth,
            memsys.topology.qpi_bandwidth,
            memsys.latency.local_dram_ns, memsys.latency.remote_extra_ns,
            cap, 1.0 - 1.0 / cap, BYTES_PER_MISS,
        )

    # ------------------------------------------------------------------
    # Invariant maintenance
    # ------------------------------------------------------------------
    def refresh_vcpu(self, vcpu: Vcpu) -> None:
        """Recompute phase-dependent invariants after a phase change."""
        key = vcpu.key
        demand = vcpu.workload.cache_demand()
        ws = demand.working_set_bytes
        # The reference's waterfill weight (CacheModel.solve).
        fill = (demand.intensity * max(ws, 1.0), ws)
        self.llc_fill[key] = fill
        ids = self._fill_ids
        self.fill_id[key] = ids.setdefault(fill, len(ids))
        self.key_gen[key] += 1
        # Its records fail their generation check on next use; a slot
        # holding it is dropped here, with its node's plan and the plan.
        held = self._held
        for pid, running in enumerate(held):
            if running is vcpu:
                held[pid] = self._slots[pid] = self._plan = None
                self._node_last[self.machine.pcpus[pid].node] = None

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
        while heap and heap[0][0] <= now:
            vcpu = vcpus[heapq.heappop(heap)[1]]
            # A stale entry (the VCPU woke, or blocked again until
            # later) is dropped; a VCPU with two due entries wakes once.
            if (
                vcpu.state is _BLOCKED
                and vcpu.wake_time <= now
                and vcpu not in due
            ):
                due.append(vcpu)
        if len(due) > 1:
            due.sort(key=_vcpu_key)
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

        ``(gen, contention, progress, guard)``: the key's phase
        generation at build time and the slot's rows without their PCPU
        (see :meth:`_slot`).  Both rows hold the placement's live lists
        ``placement.rows[slice]`` and ``placement.overall`` (aliased
        readers share them, so intra-epoch interleavings replay
        exactly) and the VCPU's scratch cells.
        """
        vcpu = self.machine.vcpus[key]
        w = vcpu.workload
        prof = w.profile
        placement = vcpu.domain.placement
        demand = w.cache_demand()
        ws = demand.working_set_bytes
        c = prof.slice_concentration
        bank = self.machine.pmu.peek(key)
        warm = self._warm[key]
        total = prof.total_instructions
        step = self.node_clock[node] / prof.cpi_base * self.epoch
        shared = (
            placement.rows[w.slice_id], placement.overall,
            prof.refs_per_instruction * w.intensity_multiplier,
            prof.cpi_base, prof.mlp, self.node_clock[node],
            self.node_ns2c[node], self._scratch[key], node == 0,
        )
        return (
            self.key_gen[key],
            (c, 1.0 - c) + shared + (
                warm, demand.min_miss_rate,
                demand.max_miss_rate - demand.min_miss_rate,
                demand.curve_shape, ws <= 0,
            ),
            shared + (
                total, min(1.0, prof.touch_rate * self.epoch),
                placement.num_slices, vcpu, w, bank, bank.node_accesses, warm,
                # LLCState.advance's per-epoch charge factor.
                math.exp(-self.epoch / max(1e-4, ws / LLCState.FILL_BANDWIDTH)),
            ),
            # Completion guard: a horizon spans at most a tick, so
            # progress at or below this leaves the exclusive completion
            # floor at least a tick away (_size_horizon).
            math.inf if total is None
            else total - (self.machine._epochs_per_tick + 2) * step,
        )

    def _node_entry(self, node: int, members: Tuple[int, ...]) -> Tuple:
        """``(members, shares)`` for one co-runner set.

        ``members`` is sorted by key; ``shares[j]`` is member ``j``'s
        capped LLC share ``min(1.0, alloc / ws)`` on ``node``: exactly
        the scalar the reference recomputes every epoch — same inputs,
        same float — so it is safe to freeze.  The inputs are the
        node's capacity and the members' demands in key order, so the
        shares are memoised by ``(node, fill ids)``: co-runner sets with
        equal demands share one waterfill.
        """
        fill_id = self.fill_id
        memo_key = (node, tuple([fill_id[key] for key in members]))
        memo = self._shares_memo
        shares = memo.get(memo_key)
        if shares is None:
            if len(memo) >= self.SHARES_MEMO_SIZE:
                memo.clear()
            fills = [self.llc_fill[key] for key in members]
            caps = [ws for _, ws in fills]
            allocs = waterfill_shares(
                self.machine.caches[node].capacity_bytes,
                [weight for weight, _ in fills],
                caps,
            )
            shares = memo[memo_key] = [
                min(1.0, alloc / ws) if ws > 0 else 0.0
                for alloc, ws in zip(allocs, caps)
            ]
        return (members, shares)

    def _slot(self, pcpu: Pcpu, vcpu: Vcpu) -> tuple:
        """The replay slot of ``pcpu`` running ``vcpu``.

        ``(contention, progress, guard)``: the contention row ``(c, 1 - c,
        slice_row, overall, rpi, cpi_base, mlp, clock, ns2c, scratch,
        node == 0, warm, min_miss, miss_span, curve_shape, ws <= 0)``
        and the progress row ``(slice_row, overall, rpi, cpi_base, mlp,
        clock, ns2c, scratch, node == 0, total, drift, num_slices, vcpu,
        workload, bank, node_accesses, warm, charge_factor, pcpu)`` and
        the completion guard, from the VCPU's record on the PCPU's node
        (rebuilt when the VCPU's phase generation moved).
        """
        key = vcpu.key
        pair = self._records[key]
        rec = pair[pcpu.node]
        if rec is None or rec[0] != self.key_gen[key]:
            rec = pair[pcpu.node] = self._record(key, pcpu.node)
        return (rec[1], rec[2] + (pcpu,), rec[3])

    def _plan_for(self) -> tuple:
        """This horizon's replay plan, from the slots of the running PCPUs.

        ``(contention rows, progress rows, guards, nodes)``: the slot of
        every running PCPU, transposed, in PCPU order, and each node's
        plan.
        With every PCPU still running the VCPU its slot holds (and no
        phase change since), the plan is reused outright.  Otherwise
        only the slots whose PCPU now runs a different VCPU are
        rebuilt, and only a node whose co-runner set moved gets a new
        node plan, which sets its members' shares and reseeds their
        warmth; the other node's members already hold what the last
        warmth commit wrote.
        """
        pcpus = self.machine.pcpus
        held = self._held
        slots = self._slots
        node_last = self._node_last
        plan = self._plan
        for pcpu, last in zip(pcpus, held):
            vcpu = pcpu.current
            if vcpu is not last:
                pid = pcpu.pcpu_id
                held[pid] = vcpu
                slots[pid] = None if vcpu is None else self._slot(pcpu, vcpu)
                node_last[pcpu.node] = None
                plan = None
        if plan is not None:
            return plan
        for node, entry in enumerate(node_last):
            if entry is None:
                keys = [v.key for v in held[self._node_span[node]] if v is not None]
                keys.sort()
                members = tuple(keys)
                entry = node_last[node] = self._node_entry(node, members)
                table = self._warmth_tables[node]
                warm = self._warm
                for key, share in zip(members, entry[1]):
                    cell = warm[key]
                    cell[0] = table.get(key, 0.0)
                    cell[1] = share
        live = [slot for slot in slots if slot is not None]
        rows = tuple(zip(*live)) if live else ((), (), ())
        plan = self._plan = rows + ((node_last[0], node_last[1]),)
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
        kb = self._size_horizon(now, limit, self._plan_for())
        hist = self._horizon_hist
        hist[kb] = hist.get(kb, 0) + 1
        return kb

    def _size_horizon(self, now: float, limit: float, plan: tuple) -> int:
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

        _, progress, guards, _ = plan
        # Running-set floors.  Completions stay *exclusive*: with rates
        # bounded by clock / cpi_base (the queueing stall is
        # non-negative), a one-epoch margin under each finite-work
        # budget guarantees no completion fires at any batch epoch.
        # Run-burst expiries are *inclusive*: the budget drains by
        # exactly one epoch per step regardless of contention, so the
        # expiry epoch is known in advance — the batch may end ON it and
        # fire the block transition at the batch boundary.
        window = (kb + 1) * epoch
        for row, guard in zip(progress, guards):
            if row[13].instructions_done > guard:
                # Within a tick of its budget: the exact floor, from the
                # most progress one epoch can make (clock / cpi_base *
                # epoch).
                step = row[5] / row[3] * epoch
                floor = int((row[9] - row[13].instructions_done) / step) - 1
                if floor < kb:
                    if floor <= 1:
                        return 1
                    kb = floor
                    window = (kb + 1) * epoch
            burst = row[12].run_burst_remaining_s
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
        if machine.queued_vcpus and len(progress) < len(machine.pcpus):
            # After a scheduling pass an idle PCPU implies every queue
            # is empty (the pass steals unconditionally); guard the
            # invariant anyway — queued work next to an idle PCPU means
            # rescheduling activity every epoch.
            return 1

        # Time-driven events: walk the exact epoch-end trajectory (the
        # same sequential float adds the stepper performs) against the
        # wake heap, the phase heap, the crash schedule and the run
        # limit.  A phase change due at a batch-final epoch end is fine:
        # the stepper applies phase changes once at the batch end.
        wake = self.wake_heap[0][0] if self.wake_heap else math.inf
        phase = self.phase_heap[0][0] if self.phase_heap else math.inf
        if min(wake, phase, crash_time, limit - 1e-12) > now + (kb + 1) * epoch:
            # Every event lies a whole epoch beyond the walk's last
            # epoch end, far more than its rounding: nothing can stop it.
            return kb
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
        running = len(plan[1])

        t = now
        for _ in range(1, kb):
            t = t + epoch
        end_batch = t + epoch

        # Interior scheduling passes: each idle PCPU makes one steal
        # attempt per interior epoch.  With every queue empty those can
        # only draw scheduler RNG (e.g. credit.steal's permutation), so
        # one idle_steals call draws them all up front.
        n = (kb - 1) * (len(machine.pcpus) - running)
        if n > 0:
            machine.policy.idle_steals(n)

        if not running:
            # Nothing runs: warmth still decays on every LLC, so no
            # node's warmth scratch survives this horizon.
            self._commit_warmth(kb, _IDLE_NODES)
            self._node_last = [None, None]
            return end_batch
        return self._advance_replay_fused(end_batch, epoch, kb, plan)

    def _advance_replay_fused(self, end_batch: float, epoch: float, kb: int, plan: tuple) -> float:
        """Event-free horizon: the compiled replay on the slots' live objects.

        The kernel (``_replay.c``, see the module docstring) runs the
        reference loop's exact arithmetic for ``kb`` epochs; the
        running-set scan, plan lookup and transitions happen once per
        batch instead of once per epoch.  Charging progress, busy time,
        overhead, slice, burst, PMU counters and placement drift to the
        live objects once per horizon is bitwise neutral because nothing
        else reads that state mid-batch (the caller guarantees an
        event-free interior and has already drawn the idle PCPUs' steal
        RNG, which reads none of it).
        """
        machine = self.machine
        contention, progress, _, nodes = plan
        machine.busy_time_s = self._replay(
            contention, progress, self._scalars, epoch, kb, machine.busy_time_s
        )

        # Batch-final transitions, in running order (interior epochs are
        # transition-free by the horizon contract; the burst cap is
        # inclusive, so a burst draining to zero blocks here).
        policy = machine.policy
        for row in progress:
            total = row[9]
            vcpu = row[12]
            w = row[13]
            if total is not None and w.instructions_done >= total:
                pcpu = row[18]
                vcpu.mark_done(end_batch)
                pcpu.current = None
                machine.context_switches += 1
                policy.on_context_switch(pcpu, vcpu, None)
                machine.log.emit(end_batch, "finish", vcpu=vcpu.name)
                self.finite_remaining -= 1
            elif vcpu.run_burst_remaining_s <= 0:
                pcpu = row[18]
                vcpu.block_until(end_batch + w.draw_block_time())
                self.push_wake(vcpu)
                pcpu.current = None
                machine.context_switches += 1
                policy.on_context_switch(pcpu, vcpu, None)

        self._commit_warmth(kb, nodes)
        return end_batch

    def _commit_warmth(self, kb: int, nodes: tuple) -> None:
        """Commit ``kb`` epochs of LLC warmth on both nodes' live tables.

        Each node's members already hold their charged warmth in their
        scratch cells (the replay iterated ``w <- 1 - (1 - w) *
        charge``); every other tracked VCPU decays through the same
        sequential per-epoch multiplies ``LLCState.advance`` performs,
        by the factor hoisted in ``__init__``.  The epsilon eviction
        runs once at the end, which is state-equivalent: decay is
        monotone, so a key below the threshold at any interior epoch is
        below it at the end too, and nothing reads non-member warmth
        mid-horizon.  A node without members (every node of an idle
        horizon) only decays.
        """
        decay = self._decay
        eps = LLCState.EPSILON
        warm = self._warm
        chain = range(kb)
        for table, (members, _shares) in zip(self._warmth_tables, nodes):
            stale = []
            for key, w in table.items():
                if key not in members:
                    for _ in chain:
                        w *= decay
                    if w < eps:
                        stale.append(key)
                    else:
                        table[key] = w
            for key in stale:
                del table[key]
            for key in members:
                table[key] = warm[key][0]

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
