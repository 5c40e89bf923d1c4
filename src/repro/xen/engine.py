"""Structure-of-arrays fast path for the epoch engine.

The reference implementation in :mod:`repro.xen.simulator` prices every
epoch through per-VCPU dictionaries (demands, rates, traffic, penalties,
page mixes) and rescans all VCPUs for wakeups, phase changes and finite
completion.  That is the clearest possible statement of the model — and
the hot path of every experiment, so :class:`VectorEngine` keeps flat
per-VCPU invariants keyed by VCPU index, event heaps and per-assignment
replay plans, and :class:`BatchedEngine` — the ``"batched"`` engine,
the one fast engine a run can select — advances every event horizon,
from a single epoch up, through one fused scalar replay on top of it.
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


class _Gather:
    """Replay plan for one VCPU→PCPU assignment.

    A VCPU→PCPU assignment typically survives a whole 30 ms slice
    (dozens of epochs), so everything derivable from *which* VCPUs run
    *where* — profile constants, per-node co-runner groups, waterfilled
    LLC shares, placement-mirror pairs — is built once, in one pass over
    the running VCPUs, and reused by every horizon until the assignment
    or a phase generation changes.  Per horizon only the warmth lists
    and the placement mirrors are reseeded from live state.

    * ``rows`` — one tuple per running VCPU, in PCPU order: ``(c, a,
      row, over, rpi, cpi_base, mlp, clock, ns2c, mrow, node0, total,
      drift, num_slices)``.  ``c``/``a`` are the slice concentration and
      ``1.0 - c``; ``row``/``over`` are the VCPU's placement mirrors
      (aliased readers share one, so intra-epoch interleavings replay
      exactly); ``mrow`` is its page-mix scratch.
    * ``miss`` — per-VCPU miss-rate scratch, overwritten each epoch.
    * ``miss_plan`` — per-member miss-curve tuples ``(w_l, j, pos,
      share, minmr, span, shape, bad)`` in node-then-key order (the
      order the reference's ``sorted(demands)`` solve iterates);
      ``share`` is the frozen ``min(1.0, alloc / ws)``, ``bad`` flags
      ``ws <= 0``.
    * ``charge_plan`` — ``(w_l, j, charge_factor)`` in the same order.
    * ``reseed`` — ``(warmth_table, members, w_l)`` per occupied node.
    * ``row_pairs`` / ``over_pairs`` — distinct ``(live, mirror)``
      placement lists, reseeded before and committed after a horizon.
    * ``stale`` — placements whose ndarrays a horizon's drift outdates.
    * ``warmth_commit`` — ``(members, w_l, member_set)`` per node.
    """

    __slots__ = (
        "rows",
        "miss",
        "miss_plan",
        "charge_plan",
        "reseed",
        "row_pairs",
        "over_pairs",
        "stale",
        "warmth_commit",
        "pmu_rows",
        "pmu_banks",
    )

    def __init__(self, engine: "VectorEngine", pcpus, vcpus) -> None:
        keys = [v.key for v in vcpus]
        pmu = engine.machine.pmu
        self.pmu_rows = pmu.rows_for(keys).tolist()
        self.pmu_banks = pmu.banks_for(keys)

        # One pass over the running VCPUs: replay rows, mirror pairs and
        # the per-node (key, position) co-runner groups.
        conc = engine.conc
        rpi = engine.rpi
        cpi_base = engine.cpi_base
        mlp = engine.mlp
        totals = engine.total_instr
        drift_amount = engine.drift_amount
        mix_row = engine.mix_row2
        mix_over = engine.mix_over2
        node_clock = engine.node_clock
        node_ns2c = engine.node_ns2c
        groups: Tuple[list, list] = ([], [])
        rows = []
        row_locs: Dict[int, list] = {}
        over_locs: Dict[int, list] = {}
        row_pairs = []
        over_pairs = []
        stale: Dict[int, object] = {}
        for i, vcpu in enumerate(vcpus):
            key = keys[i]
            node = pcpus[i].node
            groups[node].append((key, i))
            src = mix_row[key]
            row = row_locs.get(id(src))
            if row is None:
                row = row_locs[id(src)] = [0.0, 0.0]
                row_pairs.append((src, row))
            src = mix_over[key]
            over = over_locs.get(id(src))
            if over is None:
                over = over_locs[id(src)] = [0.0, 0.0]
                over_pairs.append((src, over))
            placement = vcpu.domain.placement
            drift = drift_amount[key]
            if drift > 0:
                stale[id(placement)] = placement
            c = conc[key]
            rows.append(
                (
                    c,
                    1.0 - c,
                    row,
                    over,
                    rpi[key],
                    cpi_base[key],
                    mlp[key],
                    node_clock[node],
                    node_ns2c[node],
                    [0.0, 0.0],
                    node == 0,
                    totals[key],
                    drift,
                    placement.num_slices,
                )
            )
        self.rows = rows
        self.miss = [0.0] * len(rows)
        self.row_pairs = row_pairs
        self.over_pairs = over_pairs
        self.stale = list(stale.values())

        # Per-node miss-curve and warmth plans.  The waterfilled
        # allocations depend only on capacity and demands — not warmth —
        # so they are memoised per co-runner set across gathers.
        tables = engine._warmth_tables
        miss_plan = []
        charge_plan = []
        reseed = []
        warmth_commit = []
        for node, group in enumerate(groups):
            group.sort()
            members = tuple([key for key, _ in group])
            member_set, charges, curves = engine._node_entry(node, members)
            w_l = [0.0] * len(members)
            if members:
                reseed.append((tables[node], members, w_l))
            for j, (_, pos) in enumerate(group):
                miss_plan.append((w_l, j, pos) + curves[j])
                charge_plan.append((w_l, j, charges[j]))
            warmth_commit.append((members, w_l, member_set))
        self.miss_plan = miss_plan
        self.charge_plan = charge_plan
        self.reseed = reseed
        self.warmth_commit = warmth_commit


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
        # Per-key placement mirrors (refreshed with the phase, since the
        # active slice moves with it).  The row/overall mirrors are
        # stable list objects, so plan builds reduce to indexed loads.
        self.mix_row2: List[Optional[list]] = [None] * n
        self.mix_over2: List[Optional[list]] = [None] * n
        #: per-key phase generation: bumped by refresh_vcpu(), woven
        #: into the gather signature so a phase change invalidates only
        #: the cached assignments that include the changed VCPU —
        #: everyone else's memos survive.
        self.key_gen: List[int] = [0] * n
        # Cached per-running-set gathers (see _Gather).  Assignments
        # recur as queues rotate, so gathers are memoised by
        # (keys, pcpus) with the per-key generations stored alongside:
        # a phase change replaces the stale entry in place, so the dict
        # never grows past the number of distinct assignments (the size
        # cap is a safety valve only).
        self._gather: Optional[_Gather] = None
        self._gather_sig: Optional[Tuple] = None
        self._gather_cache: Dict[Tuple, Tuple[Tuple, _Gather]] = {}
        # Per-co-runner-set sub-memo shared across gathers (waterfill
        # shares recur as queues rotate).  Phase-dependent, so
        # refresh_vcpu() evicts entries mentioning the refreshed key.
        self._node_cache: Dict[Tuple, Tuple] = {}
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
        placement = vcpu.domain.placement
        self.mix_row2[key] = placement._rows2[w.slice_id]
        self.mix_over2[key] = placement._over2
        self.key_gen[key] += 1
        # Selective eviction: only memos that embed this key's phase-
        # dependent data (demand, charge factor, slice id) are stale.
        # Gather-cache entries mentioning the key become unreachable
        # through their per-key-generation signatures; the size cap
        # reclaims them.
        node_cache = self._node_cache
        for nk in [nk for nk in node_cache if key in nk[1]]:
            del node_cache[nk]

    def _node_entry(self, node: int, members: Tuple[int, ...]) -> Tuple:
        """``(member_set, charge_factors, curves)`` for one co-runner set.

        ``members`` is sorted by key; ``curves[j]`` is member ``j``'s
        ``(share, min_miss, miss_span, curve_shape, ws <= 0)``.  The
        capped share ``min(1.0, alloc / ws)`` is exactly the scalar the
        reference recomputes every epoch — same inputs, same float — so
        it is safe to freeze per co-runner set.
        """
        node_key = (node, members)
        entry = self._node_cache.get(node_key)
        if entry is None:
            demands = [self.demand[key] for key in members]
            allocs = self.machine.caches[node].occupancy_shares(demands)
            curves = []
            for d, alloc in zip(demands, allocs):
                ws = d.working_set_bytes
                curves.append(
                    (
                        min(1.0, alloc / ws) if ws > 0 else 0.0,
                        d.min_miss_rate,
                        d.max_miss_rate - d.min_miss_rate,
                        d.curve_shape,
                        ws <= 0,
                    )
                )
            entry = (
                frozenset(members),
                [self.charge_factor[key] for key in members],
                curves,
            )
            self._node_cache[node_key] = entry
        return entry

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
    def _gather_for(self, running_pcpus: list, running_vcpus: List[Vcpu]) -> _Gather:
        """Look up (or build) the gather for this VCPU→PCPU assignment."""
        keys = tuple([v.key for v in running_vcpus])
        sig_kp = (keys, tuple([p.pcpu_id for p in running_pcpus]))
        kg = self.key_gen
        gens = tuple([kg[key] for key in keys])
        sig = (sig_kp, gens)
        if sig == self._gather_sig:
            return self._gather
        cache = self._gather_cache
        entry = cache.get(sig_kp)
        if entry is None or entry[0] != gens:
            gather = _Gather(self, running_pcpus, running_vcpus)
            self.machine.profiler.count("gather_build")
            if len(cache) >= 1024:
                cache.clear()
            cache[sig_kp] = (gens, gather)
        else:
            gather = entry[1]
        self._gather = gather
        self._gather_sig = sig
        return gather


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
        gather = self._gather_for(running_pcpus, running_vcpus)
        return self._advance_replay_fused(
            end_batch, epoch, kb, gather, running_pcpus, running_vcpus
        )

    def _advance_replay_fused(
        self,
        end_batch: float,
        epoch: float,
        kb: int,
        gather: _Gather,
        running_pcpus: list,
        running_vcpus: List[Vcpu],
    ) -> float:
        """Event-free horizon: scalar replay with hoisted state.

        Runs the reference loop's exact arithmetic — same Python-float
        expressions, same accumulation order — for ``kb`` epochs, but
        performs the running-set scan, plan lookup, warmth/PMU/placement
        reads and every state commit once per batch instead of once per
        epoch.  All accumulator chains (busy time, PMU banks, placement
        drift, page-mix rows, the shared `overall` vectors) evolve on
        Python locals seeded from live state; the finals are written
        back after the last epoch, which is bitwise neutral because
        nothing else reads them mid-batch (the caller guarantees an
        event-free interior and has already drawn the idle PCPUs' steal
        RNG, which reads none of this state).
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
        rows = gather.rows
        miss = gather.miss
        miss_plan = gather.miss_plan
        charge_plan = gather.charge_plan

        # Reseed the state-dependent inputs: member warmth from the live
        # tables, placement-row / `overall` mirrors from the live lists
        # (aliased readers share one mirror, so intra-epoch
        # interleavings replay exactly).
        for table, members, w_l in gather.reseed:
            for j, key in enumerate(members):
                w_l[j] = table.get(key, 0.0)
        for src, loc in gather.row_pairs:
            loc[0] = src[0]
            loc[1] = src[1]
        for src, loc in gather.over_pairs:
            loc[0] = src[0]
            loc[1] = src[1]

        # Accumulator seeds (live values in, finals out).
        pend_l = [p.overhead_pending_s for p in running_pcpus]
        busy_l = [p.busy_time_s for p in running_pcpus]
        mbusy = machine.busy_time_s
        id_l = [v.workload.instructions_done for v in running_vcpus]
        slice_l = [v.slice_used_s for v in running_vcpus]
        burst_l = [v.run_burst_remaining_s for v in running_vcpus]
        banks = gather.pmu_banks
        pmu_rows = gather.pmu_rows
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
            for w_l, j, pos, share, minmr, span, shape, bad in miss_plan:
                f = 1.0 if bad else share * w_l[j]
                missing = 1.0 - f if shape == 1.0 else (1.0 - f) ** shape
                miss[pos] = minmr + span * missing

            imc0 = 0.0
            imc1 = 0.0
            qpi_t = 0.0
            i = 0
            for (
                c, a, row, over, rp, cb, ml, ck, n2, mrow, nd0, _t, _d, _n
            ) in rows:
                m0 = c * row[0] + a * over[0]
                m1 = c * row[1] + a * over[1]
                s = m0 + m1
                x0 = m0 / s
                x1 = m1 / s
                mrow[0] = x0
                mrow[1] = x1
                mr = miss[i]
                i += 1
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
                _c, _a, row, over, rp, cb, ml, ck, n2, mrow, nd0, total,
                d, nsl,
            ) in rows:
                penalty = 0.0
                frac = mrow[0]
                if frac > 0:
                    penalty += (
                        frac * dram0 if nd0 else frac * (dram0 + remote_add)
                    )
                frac = mrow[1]
                if frac > 0:
                    penalty += (
                        frac * (dram1 + remote_add) if nd0 else frac * dram1
                    )
                mr = miss[i]
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
                a0 = mi * mrow[0]
                a1 = mi * mrow[1]
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

        # Mirrors only drifting VCPUs wrote come back unchanged, so
        # writing every pair back is bitwise neutral.
        for src, loc in gather.row_pairs:
            src[0] = loc[0]
            src[1] = loc[1]
        for src, loc in gather.over_pairs:
            src[0] = loc[0]
            src[1] = loc[1]
        for placement in gather.stale:
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
        for advance, (members, w_l, member_set) in zip(
            self._cache_advance_batch, gather.warmth_commit
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
