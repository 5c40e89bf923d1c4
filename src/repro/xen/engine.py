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
:mod:`repro.xen.kernel` when this module is imported) holds one
``Replay`` object per engine; each horizon is one call of its ``step``.
It runs the reference loop's expressions in its order — the contention
pass, the inlined dual-socket solve and the progress/PMU/drift/warmth
pass — on C doubles compiled with ``-O2 -ffp-contract=off
-fno-fast-math`` (so each ``+ - * /`` rounds as a Python float
operation does; ``pow`` is the libm one ``float.__pow__`` calls).  Per
horizon it reads the live fields once — PCPU overhead and busy time,
the PMU bank's counters and node accesses, progress, slice, burst and
LLC warmth — and writes back only those the loop assigns, when it
assigns them.  Placement rows and ``overall`` lists shared between
VCPUs are de-duplicated by identity, so a shared list's drifts apply in
row order within each epoch.  A zero divisor raises
``ZeroDivisionError``, as in Python.

**Replay slots.**  The object keeps one slot per PCPU, parsed once: the
:data:`Record` of the VCPU it runs, built per (VCPU, node) by
:meth:`BatchedEngine._record` — the constants of the VCPU's phase on
that node, the placement's live page-mix lists and the live objects
the replay charges.  Each call compares every ``pcpu.current`` with
its slot's VCPU and asks :meth:`BatchedEngine._slot` for a record only
where they differ; :meth:`BatchedEngine.refresh_vcpu` drops the slot of
a VCPU whose phase changed.  Because the replay reads and writes the
live fields themselves, whatever a boundary phase wrote between
horizons (tick and context-switch overhead charges, a slice reset on
switch-in, a crash's lost progress) is simply what the next horizon
starts from.

**Node plans and warmth.**  A node whose running set changed gets its
members' capped LLC shares from :meth:`BatchedEngine._node_entry`, a
waterfill memoised by ``(node, members' demands)`` (cleared at
``SHARES_MEMO_SIZE`` sets), so co-runner sets with equal demands share
one.  Per-node state is indexed by node number.  The kernel reads each
member's warmth from its LLC's live table once — nothing else writes a
table between horizons — charges it every epoch, and commits the
horizon into every table in place: every other VCPU decays by the
hoisted per-epoch factor, entries below ``LLCState.EPSILON`` go, and
the members are written last, so each table keeps its insertion order.
A horizon with nothing running only decays.

**Horizons.**  :meth:`BatchedEngine.step` caps a horizon at the next
Credit tick, sampling boundary, epoch cap and fault stall; the kernel
cuts it at the first event its epochs could reach, with the float
operations of the reference stepper: a completion (exclusive, from a
guard a tick below each finite budget and then the exact floor), a
burst expiry (inclusive, by the progress pass's ``x -= epoch`` chain),
and, along the exact epoch-end trajectory, a wake, crash or the run
limit (before that epoch) or a phase change (on it).  Queued work next
to an idle PCPU, which a scheduling pass never leaves, limits it to one
epoch.  The run queues keep a machine-wide queued count, so that guard,
and an idle PCPU's steal with nothing queued, cost one comparison.

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
from collections import namedtuple
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


#: A VCPU's replay constants on one node (see BatchedEngine._record) and
#: the live objects the kernel charges: its slice row and overall page
#: mix (the placement's lists), VCPU, workload, PMU bank and the bank's
#: node accesses.  ``_replay.c`` reads the fields by position.
Record = namedtuple(
    "Record",
    "gen key node concentration rpi cpi_base mlp clock ns2c min_miss miss_span"
    " curve_shape no_working_set drift num_slices charge total guard row overall"
    " vcpu workload bank node_accesses",
)


class BatchedEngine:
    """Macro-stepping engine: one compiled replay per event horizon.

    Built lazily on the first stepped epoch of a dual-socket machine and
    discarded whenever the machine's VCPU population changes.  Each
    horizon — the upcoming epochs guaranteed free of discrete events —
    is one :meth:`step` (see the module docstring); only transitions
    move to the batch end.
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
        # Replay records, ``_records[key][node]`` (see _record): a stale
        # record is replaced in place, so the memo holds at most one per
        # (VCPU, node) and needs no eviction.
        self._records: List[List[Optional[Record]]] = [
            [None] * topo.num_nodes for _ in range(n)
        ]
        # Node plans' capped LLC shares, keyed by ``(node, fill ids of
        # the members in key order)`` (see _node_entry).  The shares
        # depend only on the demands, so a phase change evicts nothing;
        # the memo is cleared when it reaches SHARES_MEMO_SIZE.
        self._shares_memo: Dict[Tuple, List[float]] = {}
        # The kernel's constants in its argument order: the inlined
        # dual-socket solve's latencies and bandwidths (queue_inflation's
        # default cap and knee, minus validation), then the reference's
        # per-epoch warmth decay of absent VCPUs (LLCState.advance with
        # dt = epoch > 0) and eviction threshold.
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
            math.exp(-self.epoch / LLCState.DECAY_TIME), LLCState.EPSILON,
        )
        # The replay slots and node plans live in the kernel's object,
        # which holds the PCPUs, its records and the LLCs' live warmth
        # tables, and is dropped with the engine.
        self._replay = self.kernel.Replay(
            machine.pcpus, self._scalars, self.epoch,
            tuple(c.state.warmth_table for c in machine.caches),
        )
        for vcpu in vcpus:
            self.refresh_vcpu(vcpu)

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
        # holding it is dropped here, with its node's plan.
        self._replay.drop(vcpu)

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
    # Replay records
    # ------------------------------------------------------------------
    def _record(self, key: int, node: int) -> Record:
        """Replay record for VCPU ``key`` running on ``node``.

        It holds the placement's live lists ``placement.rows[slice]``
        and ``placement.overall`` (aliased readers share them, so
        intra-epoch interleavings replay exactly).
        """
        vcpu = self.machine.vcpus[key]
        w = vcpu.workload
        prof = w.profile
        placement = vcpu.domain.placement
        demand = w.cache_demand()
        ws = demand.working_set_bytes
        bank = self.machine.pmu.peek(key)
        total = prof.total_instructions
        clock = self.node_clock[node]
        step = clock / prof.cpi_base * self.epoch
        return Record(
            self.key_gen[key], key, node, prof.slice_concentration,
            prof.refs_per_instruction * w.intensity_multiplier,
            prof.cpi_base, prof.mlp, clock, self.node_ns2c[node],
            demand.min_miss_rate, demand.max_miss_rate - demand.min_miss_rate,
            demand.curve_shape, ws <= 0, min(1.0, prof.touch_rate * self.epoch),
            placement.num_slices,
            # LLCState.advance's per-epoch charge factor.
            math.exp(-self.epoch / max(1e-4, ws / LLCState.FILL_BANDWIDTH)),
            total,
            # Completion guard: a horizon spans at most a tick, so progress
            # at or below this leaves the exclusive completion floor at
            # least a tick away.
            math.inf if total is None
            else total - (self.machine._epochs_per_tick + 2) * step,
            placement.rows[w.slice_id], placement.overall, vcpu, w, bank,
            bank.node_accesses,
        )

    def _slot(self, pcpu: Pcpu, vcpu: Vcpu) -> Record:
        """The record for ``pcpu``'s new slot: ``vcpu``'s on its node,
        rebuilt when the VCPU's phase generation moved."""
        key = vcpu.key
        pair = self._records[key]
        rec = pair[pcpu.node]
        if rec is None or rec.gen != self.key_gen[key]:
            rec = pair[pcpu.node] = self._record(key, pcpu.node)
        return rec

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

    # ------------------------------------------------------------------
    # One horizon
    # ------------------------------------------------------------------
    def step(self, now: float, limit: float) -> Tuple[int, float]:
        """Size and replay one event horizon; returns its epochs and end.

        Called after the stepper has run this epoch's fault, tick, wake
        and scheduling phases.  The horizon is capped here at the next
        Credit tick, sampling boundary, epoch cap and fault stall; the
        kernel cuts it further at completions, burst expiries, wakes,
        phase changes, the next crash and ``limit``, and runs it.
        Scheduler RNG parity is kept by one
        :meth:`~repro.xen.credit.SchedulerPolicy.idle_steals` call, which
        draws what the (no-op) steal attempts of idle PCPUs in the
        interior epochs would draw.
        """
        machine = self.machine
        e0 = machine.epoch_index
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
                    kb = 1
                elif next_stall - e0 < kb:
                    kb = next_stall - e0
            next_crash = faults.next_crash_time()
            if next_crash is not None:
                crash_time = next_crash
        kb, end, machine.busy_time_s, idle, moved = self._replay.step(
            self, now, kb, crash_time, limit,
            self.wake_heap[0][0] if self.wake_heap else math.inf,
            self.phase_heap[0][0] if self.phase_heap else math.inf,
            machine.queued_vcpus, machine.busy_time_s,
        )
        # With every queue empty, the idle PCPUs' interior steals can
        # only draw scheduler RNG, and read nothing the replay wrote.
        if idle and kb > 1:
            machine.policy.idle_steals((kb - 1) * idle)

        # Batch-final transitions, in running order (interior epochs are
        # transition-free by the horizon contract; the burst cap is
        # inclusive, so a burst draining to zero blocks here).
        policy = machine.policy
        for pcpu in moved:
            vcpu = pcpu.current
            w = vcpu.workload
            total = w.profile.total_instructions
            finished = total is not None and w.instructions_done >= total
            if finished:
                vcpu.mark_done(end)
            else:
                vcpu.block_until(end + w.draw_block_time())
                self.push_wake(vcpu)
            pcpu.current = None
            machine.context_switches += 1
            policy.on_context_switch(pcpu, vcpu, None)
            if finished:
                machine.log.emit(end, "finish", vcpu=vcpu.name)
                self.finite_remaining -= 1

        hist = self._horizon_hist
        hist[kb] = hist.get(kb, 0) + 1
        return kb, end

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
