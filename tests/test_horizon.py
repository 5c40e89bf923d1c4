"""The batched engine's event-horizon sizing and macro-step replay.

:meth:`~repro.xen.engine.BatchedEngine.compute_horizon` promises that
no discrete event fires strictly inside a batch: no Credit tick, no
sampling boundary, no wake or phase change, and no burst or phase
expiry except on the batch-final epoch.  These tests check those
structural invariants on every horizon decision of real runs (by
wrapping the sizing call), pin down the fault-stall cap, and verify
that every kind of horizon — with idle PCPUs, a single epoch long, or
with nothing running at all — goes through the one replay path
without changing a single simulated bit.  The last class pins down the
per-VCPU replay records the plans are assembled from: aliased drift on
the placements' live lists, invalidation on migration and phase
change, and a bounded memo.
"""

import math
from functools import partial

import pytest

from repro.audit import rng_states
from repro.experiments.scenarios import (
    SCHEDULER_NAMES,
    ScenarioConfig,
    build_machine,
    make_scheduler,
    overhead_scenario,
    solo_scenario,
    spec_scenario,
)
from repro.faults.plan import DomainCrash, FaultPlan
from repro.metrics.collectors import summarize
from repro.obs.manifest import canonical_dumps
from repro.recovery.checkpoint import load_checkpoint, save_checkpoint
from repro.util.rng import RngStreams
from repro.workloads.appmodel import VcpuWorkload
from repro.workloads.generators import scaled_profile
from repro.workloads.suites import get_profile
from repro.xen.domain import Domain
from repro.xen import engine as engine_module
from repro.xen.engine import BatchedEngine
from repro.xen.memalloc import place_interleaved
from repro.xen.simulator import Machine
from repro.xen.vcpu import VcpuState


def _batched_run(monkeypatch, check, **cfg_kw):
    """Run the loaded soplex scenario on the batched engine for 1 s.

    ``check(engine, e0, now, kb)`` is invoked after every horizon
    decision (installed via ``monkeypatch`` on the class).
    """
    orig = BatchedEngine.compute_horizon

    def checked(self, now, limit):
        e0 = self.machine.epoch_index
        kb = orig(self, now, limit)
        check(self, e0, now, kb)
        return kb

    monkeypatch.setattr(BatchedEngine, "compute_horizon", checked)
    cfg = ScenarioConfig(
        work_scale=0.15, seed=0, engine="batched", **cfg_kw
    )
    machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
    machine.run(max_time_s=1.0)
    return machine


class TestHorizonInvariants:
    """Structural checks on every horizon decision of a real run."""

    def test_every_horizon_respects_event_boundaries(self, monkeypatch):
        decisions = []

        def check(engine, e0, now, kb):
            machine = engine.machine
            epoch = engine.epoch
            eps = machine._epochs_per_sample
            assert kb >= 1
            # A horizon never crosses a sampling boundary (vProbe's
            # partitioning pass runs there).
            assert kb <= eps - (e0 % eps)
            if kb > 1:
                # Burst expiries are inclusive: an incumbent's budget may
                # reach zero only on the batch-final epoch.  Replay the
                # exact subtraction chain the progress pass performs.
                for pcpu in machine.pcpus:
                    cur = pcpu.current
                    if cur is None:
                        continue
                    x = cur.run_burst_remaining_s
                    for _ in range(kb - 1):
                        x -= epoch
                        assert x > 0.0
                # No wake and no phase change strictly inside the batch
                # (phase changes may land on the batch-final epoch end).
                wake = (
                    engine.wake_heap[0][0]
                    if engine.wake_heap
                    else math.inf
                )
                phase = (
                    engine.phase_heap[0][0]
                    if engine.phase_heap
                    else math.inf
                )
                t = now
                for _ in range(1, kb):
                    t = t + epoch
                    assert wake > t
                    assert phase > t
            decisions.append(kb)

        machine = _batched_run(monkeypatch, check)
        assert decisions and max(decisions) > 1
        stats = machine._engine.horizon_stats()
        assert stats["batches"] < stats["epochs"]

    def test_classic_sizing_never_crosses_a_tick(self, monkeypatch):
        """Every Credit tick terminates the horizon."""
        spans = []

        def check(engine, e0, now, kb):
            ept = engine.machine._epochs_per_tick
            assert kb <= ept - (e0 % ept)
            spans.append(kb)

        _batched_run(monkeypatch, check)
        assert spans and max(spans) > 1


class TestFaultStalls:
    def test_pending_stalls_cap_horizons(self, monkeypatch):
        """stall_rate > 0: no horizon runs past the next stall epoch."""
        capped = []

        def check(engine, e0, now, kb):
            next_stall = engine.machine.faults.next_stall_epoch()
            if next_stall is not None and kb > 1:
                assert e0 + kb <= next_stall
                capped.append(kb)

        machine = _batched_run(
            monkeypatch,
            check,
            faults=FaultPlan(stall_rate=0.05, stall_epochs=5),
        )
        assert capped
        assert machine.faults.stalls_injected > 0


def _summary(build, scheduler, engine, work_scale, seed=1):
    cfg = ScenarioConfig(work_scale=work_scale, seed=seed, engine=engine)
    machine = build(make_scheduler(scheduler), cfg)
    machine.run()
    return _canonical(machine)


def _canonical(machine):
    summary = summarize(machine).to_dict()
    # An execution-strategy field, not a simulated one.
    summary.pop("horizon_stats", None)
    return canonical_dumps(summary)


class TestFusedReplay:
    """Every horizon goes through advance_batch and the one replay."""

    @pytest.mark.parametrize("scheduler", ["credit", "vprobe"])
    def test_idle_pcpu_horizons_use_fused_replay(self, monkeypatch, scheduler):
        # One VM x 2 VCPUs on 8 PCPUs: most PCPUs idle all run, so
        # every macro-step has idle PCPUs whose per-epoch steal attempts
        # the engine draws in one idle_steals call.
        idle_calls = []
        orig = BatchedEngine._advance_replay_fused

        def wrapped(self, *args, **kwargs):
            if any(p.current is None for p in self.machine.pcpus):
                idle_calls.append(args[2])
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(BatchedEngine, "_advance_replay_fused", wrapped)
        build = partial(overhead_scenario, 1)
        batched = _summary(build, scheduler, "batched", 0.02)
        assert idle_calls, "no idle-PCPU horizon took the fused replay"
        assert _summary(build, scheduler, "reference", 0.02) == batched

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES + ("vprobe-h",))
    def test_interior_idle_steals_are_one_batched_draw(self, scheduler):
        # Idle PCPUs' interior steals collapse into idle_steals calls:
        # far fewer real steal calls, the same summary and the same
        # end state of every RNG stream.
        def run(engine):
            cfg = ScenarioConfig(work_scale=0.05, seed=3, engine=engine)
            machine = overhead_scenario(1, make_scheduler(scheduler), cfg)
            calls = []
            steal = machine.policy.steal

            def counted(*args, **kwargs):
                calls.append(1)
                return steal(*args, **kwargs)

            machine.policy.steal = counted
            machine.run()
            return _canonical(machine), rng_states(machine), len(calls)

        summary, rngs, calls = run("batched")
        ref_summary, ref_rngs, ref_calls = run("reference")
        assert summary == ref_summary
        assert rngs == ref_rngs
        assert 3 * calls <= ref_calls

    def test_single_epoch_horizons_use_fused_replay(self, monkeypatch):
        # The loaded NPB lu scenario has many one-epoch horizons (wakes
        # and tick-adjacent bursts), and its VCPUs finish inside the run.
        single = []
        finished = []
        orig = BatchedEngine._advance_replay_fused

        def wrapped(self, end_batch, epoch, kb, plan):
            vcpus = [row[12] for row in plan[1]]
            end = orig(self, end_batch, epoch, kb, plan)
            if kb == 1:
                single.append(end)
                finished.extend(v for v in vcpus if v.finish_time is not None)
            return end

        monkeypatch.setattr(BatchedEngine, "_advance_replay_fused", wrapped)
        build = partial(spec_scenario, "lu")
        batched = _summary(build, "credit", "batched", 0.05, seed=0)
        assert len(single) > 10, "one-epoch horizons skipped the replay"
        assert finished, "no completion landed on a one-epoch horizon"
        assert _summary(build, "credit", "reference", 0.05, seed=0) == batched

    def test_idle_machine_horizons_commit_batched_decay(self, monkeypatch):
        # One pinned VCPU that blocks now and then: while it sleeps no
        # PCPU runs anything, and such a horizon must commit its K
        # epochs of warmth decay in one batched step per LLC.
        idle_horizons = []
        decay_steps = []
        orig_batch = BatchedEngine.advance_batch
        orig_commit = BatchedEngine._commit_warmth

        def batch(self, now, epoch, kb):
            if kb > 1 and all(p.current is None for p in self.machine.pcpus):
                idle_horizons.append(kb)
            return orig_batch(self, now, epoch, kb)

        def commit(self, kb, nodes):
            for members, _shares in nodes:
                if not members and kb > 1:
                    decay_steps.append(kb)
            return orig_commit(self, kb, nodes)

        monkeypatch.setattr(BatchedEngine, "advance_batch", batch)
        monkeypatch.setattr(BatchedEngine, "_commit_warmth", commit)
        build = partial(solo_scenario, "lu")
        batched = _summary(build, "vprobe", "batched", 0.05, seed=0)
        assert idle_horizons, "no fully idle horizon longer than one epoch"
        # Both LLCs see every idle horizon (member-less sockets of busy
        # horizons add more empty-key steps, so this is a sub-multiset).
        for kb in set(idle_horizons):
            assert decay_steps.count(kb) >= 2 * idle_horizons.count(kb)
        assert _summary(build, "vprobe", "reference", 0.05, seed=0) == batched


def _shared_slice_machine(engine):
    """One VM whose two CPU-heavy VCPUs both work on slice 0.

    Real runs reach a shared slice through slice rotation on a phase
    change; here it holds from the start.  On an otherwise idle
    machine the two VCPUs run side by side, and the shared row starts
    evenly split across the sockets, so both of an epoch's drift
    updates move it: a lost update cannot hide at a fixed point.
    """
    cfg = ScenarioConfig(work_scale=0.05, seed=2, engine=engine)
    rng = RngStreams(cfg.seed)
    profile = scaled_profile(get_profile("soplex"), cfg.work_scale)
    assert profile.touch_rate > 0
    workloads = [
        VcpuWorkload(profile, rng.get(f"vm.v{i}"), slice_id=0, num_slices=2)
        for i in range(2)
    ]
    domain = Domain(
        "vm", 2 * 1024**3, place_interleaved(2, 2), workloads,
        first_touch_init=False,
    )
    return build_machine(make_scheduler("credit"), cfg, [domain])


class TestReplayRecords:
    """Plans assembled from per-(VCPU, node) records and node plans."""

    def test_shared_slice_drift_replays_on_live_lists(self, monkeypatch):
        # Both VCPUs drift one live slice row and the domain's `overall`
        # list inside every epoch: each must read the other's update
        # from the same epoch, exactly as the reference interleaves them.
        aliased = []
        orig = BatchedEngine._advance_replay_fused

        def wrapped(self, end_batch, epoch, kb, plan):
            if len(plan[1]) == 2:
                a, b = plan[1]  # progress rows
                if a[0] is b[0] and a[10] > 0:
                    aliased.append(kb)
            return orig(self, end_batch, epoch, kb, plan)

        monkeypatch.setattr(BatchedEngine, "_advance_replay_fused", wrapped)
        machine = _shared_slice_machine("batched")
        machine.run(max_time_s=1.0)
        ref = _shared_slice_machine("reference")
        ref.run(max_time_s=1.0)
        assert len(aliased) > 50, "the two VCPUs never drifted one row"
        assert max(aliased) > 1
        assert _canonical(machine) == _canonical(ref)
        assert rng_states(machine) == rng_states(ref)
        assert (
            machine.domains[0].placement.rows
            == ref.domains[0].placement.rows
        )

    def test_migration_and_phase_change_get_fresh_records(self, monkeypatch):
        # Every replayed row must carry the constants of the node its
        # VCPU runs on now and of the VCPU's current phase: a migrated
        # VCPU needs its other node's record, a phase change (new rpi,
        # possibly a rotated slice) a rebuilt one.
        moved = set()
        rebuilt = set()
        last_node = {}
        orig = BatchedEngine._advance_replay_fused

        def wrapped(self, end_batch, epoch, kb, plan):
            for row in plan[1]:  # progress rows
                vcpu, pcpu = row[12], row[18]
                assert pcpu.current is vcpu
                w = vcpu.workload
                node = pcpu.node
                assert row[0] is vcpu.domain.placement.rows[w.slice_id]
                assert row[2] == (
                    w.profile.refs_per_instruction * w.intensity_multiplier
                )
                assert row[5] == self.node_clock[node]
                assert row[6] == self.node_ns2c[node]
                assert row[8] == (node == 0)
                if last_node.setdefault(vcpu.key, node) != node:
                    moved.add(vcpu.key)
                last_node[vcpu.key] = node
                if self.key_gen[vcpu.key] > 1:
                    rebuilt.add(vcpu.key)
            return orig(self, end_batch, epoch, kb, plan)

        monkeypatch.setattr(BatchedEngine, "_advance_replay_fused", wrapped)

        def run(engine):
            cfg = ScenarioConfig(work_scale=0.15, seed=1, engine=engine)
            machine = spec_scenario("soplex", make_scheduler("credit"), cfg)
            machine.run(max_time_s=1.5)
            return machine

        machine = run("batched")
        assert moved, "no VCPU migrated across sockets"
        assert rebuilt, "no VCPU ran after a phase change"
        ref = run("reference")
        assert _canonical(machine) == _canonical(ref)
        assert rng_states(machine) == rng_states(ref)

    def test_record_memo_is_bounded(self, monkeypatch):
        # The seed-0 loaded soplex cell (24 VCPUs on 8 PCPUs, vProbe,
        # 25 simulated seconds): records are kept per (VCPU, node) and
        # a stale one is replaced in place, so the memo needs no safety
        # valve, and a record is built far less often than a horizon.
        builds = 0
        build_record = BatchedEngine._record

        def counting_record(self, key, node):
            nonlocal builds
            builds += 1
            return build_record(self, key, node)

        monkeypatch.setattr(BatchedEngine, "_record", counting_record)
        cfg = ScenarioConfig(work_scale=1.0, seed=0, engine="batched")
        machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
        machine.run(max_time_s=25.0)
        engine = machine._engine
        held = [rec for pair in engine._records for rec in pair if rec]
        assert len(held) <= 2 * len(machine.vcpus)
        horizons = engine.horizon_stats()["horizons"]
        assert 0 < builds < 0.1 * horizons

    def test_phase_change_of_a_descheduled_vcpu_leaves_the_plan(self):
        # A VCPU that blocks at a batch end and changes phase at that
        # same boundary: its PCPU idles and its slot is dropped, so the
        # next plan must not reuse the old one that still replays it.
        machine = _loaded_soplex("batched")
        machine.run(max_time_s=0.05)
        engine = machine._engine
        engine._plan_for()
        pcpu = next(p for p in machine.pcpus if p.current is not None)
        vcpu = pcpu.current
        pcpu.current = None
        engine.refresh_vcpu(vcpu)
        assert all(row[12] is not vcpu for row in engine._plan_for()[1])

    def test_equal_demand_sets_share_one_plan(self, monkeypatch):
        # The seed-0 loaded soplex cell for 2 simulated seconds: node
        # plans are keyed by the members' demands, not their keys, so
        # co-runner sets with equal demands share one waterfill, and a
        # phase change (a new demand) evicts nothing yet replays exactly.
        sets_of = {}
        waterfills = []
        build_entry = BatchedEngine._node_entry
        waterfill = engine_module.waterfill_shares

        def recording_entry(self, node, members):
            entry = build_entry(self, node, members)
            fills = tuple(self.llc_fill[key] for key in members)
            shares = entry[1]
            sets_of.setdefault(id(shares), (shares, set()))[1].add(
                (node, members, fills)
            )
            return entry

        def counting_waterfill(*args):
            waterfills.append(args)
            return waterfill(*args)

        monkeypatch.setattr(BatchedEngine, "_node_entry", recording_entry)
        monkeypatch.setattr(engine_module, "waterfill_shares", counting_waterfill)
        def build(engine):
            cfg = ScenarioConfig(work_scale=1.0, seed=0, engine=engine)
            return spec_scenario("soplex", make_scheduler("vprobe"), cfg)

        machine = build("batched")
        machine.run(max_time_s=2.0)
        engine = machine._engine
        assert sum(gen > 1 for gen in engine.key_gen) >= 2, "too few phase changes"
        distinct = set().union(*(uses for _, uses in sets_of.values()))
        assert len(engine._shares_memo) == len(waterfills) < len(distinct) / 2
        shared = [(s, uses) for s, uses in sets_of.values() if len(uses) > 1]
        assert shared, "no two co-runner sets shared a plan"
        for shares, uses in shared:
            # Every set served by one plan has the same demands, and the
            # plan holds exactly what their own waterfill gives.
            assert len({(node, fills) for node, _, fills in uses}) == 1
            for node, _, fills in uses:
                allocs = waterfill(
                    machine.caches[node].capacity_bytes,
                    [weight for weight, _ in fills],
                    [ws for _, ws in fills],
                )
                assert shares == [
                    min(1.0, alloc / ws) if ws > 0 else 0.0
                    for alloc, (_, ws) in zip(allocs, fills)
                ]
        _assert_reference_parity(machine, build)

    def test_shares_memo_is_bounded(self, monkeypatch):
        # With room for one demand set the memo is cleared before almost
        # every waterfill; the shares are a pure function of their key,
        # so the seed-0 loaded cell still replays exactly.
        waterfills = []
        waterfill = engine_module.waterfill_shares

        def counting_waterfill(*args):
            waterfills.append(args)
            return waterfill(*args)

        def build(engine):
            cfg = ScenarioConfig(work_scale=1.0, seed=0, engine=engine)
            return spec_scenario("soplex", make_scheduler("vprobe"), cfg)

        monkeypatch.setattr(engine_module, "waterfill_shares", counting_waterfill)
        build("batched").run(max_time_s=2.0)
        unbounded = len(waterfills)
        waterfills.clear()
        monkeypatch.setattr(BatchedEngine, "SHARES_MEMO_SIZE", 1)
        machine = build("batched")
        machine.run(max_time_s=2.0)
        assert len(machine._engine._shares_memo) == 1
        assert len(waterfills) > 2 * unbounded
        _assert_reference_parity(machine, build)


def _loaded_soplex(engine, seed=0, **cfg_kw):
    cfg = ScenarioConfig(work_scale=0.15, seed=seed, engine=engine, **cfg_kw)
    return spec_scenario("soplex", make_scheduler("vprobe"), cfg)


def _assert_reference_parity(machine, build):
    ref = build("reference")
    ref.run(max_time_s=machine.time)
    assert ref.time == machine.time
    assert _canonical(machine) == _canonical(ref)
    assert rng_states(machine) == rng_states(ref)


class TestReplaySlots:
    """Per-PCPU replay slots across the boundary phases that touch them.

    A slot persists while its PCPU keeps running the same VCPU, and the
    replay charges the live PCPU, VCPU, workload and PMU bank in place.
    Each case drives a boundary write into a running slot on the loaded
    soplex cell and checks the batched run against the reference loop,
    summary and RNG end states alike.
    """

    def test_repick_after_tick_preemption_restarts_the_slice(self, monkeypatch):
        # A tick preempts a VCPU whose slice expired and the scheduling
        # pass re-picks it on the same PCPU at the same instant: a new
        # run, so its slice restarts from zero.
        repicks = []
        preempted = {}
        orig_preempt = Machine.preempt
        orig_switch = Machine._switch_in

        def preempt(self, pcpu, now):
            preempted[id(self), pcpu.pcpu_id] = (pcpu.current, now)
            return orig_preempt(self, pcpu, now)

        def switch_in(self, pcpu, vcpu, now):
            if self._engine is not None and preempted.get(
                (id(self), pcpu.pcpu_id)
            ) == (vcpu, now):
                repicks.append(now)
            return orig_switch(self, pcpu, vcpu, now)

        monkeypatch.setattr(Machine, "preempt", preempt)
        monkeypatch.setattr(Machine, "_switch_in", switch_in)
        machine = _loaded_soplex("batched")
        machine.run(max_time_s=1.5)
        assert repicks, "no VCPU was re-picked on the PCPU that preempted it"
        _assert_reference_parity(machine, _loaded_soplex)

    def test_fault_stall_charges_a_running_pcpu(self, monkeypatch):
        # A stall lands as overhead on a PCPU whose slot carries on into
        # the next horizon: the replay must spend that budget.
        charged = []
        orig = Machine.charge_overhead

        def charge(self, source, pcpu, seconds):
            if (
                self._engine is not None
                and source == "fault_stall"
                and pcpu.current is not None
            ):
                charged.append(pcpu.pcpu_id)
            return orig(self, source, pcpu, seconds)

        monkeypatch.setattr(Machine, "charge_overhead", charge)
        build = partial(
            _loaded_soplex, faults=FaultPlan(stall_rate=0.02, stall_epochs=3)
        )
        machine = build("batched")
        machine.run(max_time_s=1.5)
        assert charged, "no stall hit a running PCPU"
        _assert_reference_parity(machine, build)

    def test_crash_restart_returns_to_its_old_pcpu(self, monkeypatch):
        # A crash with lost progress deschedules the domain; after the
        # restart a VCPU runs again on the PCPU it ran on before, from
        # zero retired instructions.
        returned = []
        old_pcpu = {}
        orig_crash = Machine.crash_domain
        orig_switch = Machine._switch_in

        def crash(self, domain_name, now, downtime_s, lose_progress=True):
            if self._engine is not None:
                for v in self.domain(domain_name).vcpus:
                    if v.state is VcpuState.RUNNING:
                        old_pcpu[v.key] = v.pcpu
            return orig_crash(self, domain_name, now, downtime_s, lose_progress)

        def switch_in(self, pcpu, vcpu, now):
            if self._engine is not None and old_pcpu.get(vcpu.key) == pcpu.pcpu_id:
                returned.append(vcpu.key)
            return orig_switch(self, pcpu, vcpu, now)

        monkeypatch.setattr(Machine, "crash_domain", crash)
        monkeypatch.setattr(Machine, "_switch_in", switch_in)
        plan = FaultPlan(
            crashes=(DomainCrash("vm1", at_time_s=0.5, downtime_s=0.1),)
        )
        build = partial(_loaded_soplex, faults=plan)
        machine = build("batched")
        machine.run(max_time_s=1.5)
        assert old_pcpu, "the crash found no running VCPU"
        assert returned, "no restarted VCPU came back to its old PCPU"
        _assert_reference_parity(machine, build)

    def test_checkpoint_mid_run_resumes_bitwise(self, tmp_path):
        # A checkpoint drops the engine and its slots; the resumed run
        # rebuilds them from the restored machine.
        machine = _loaded_soplex("batched")
        polls = iter(range(10**9))
        result = machine.run(
            max_time_s=1.5, stop_check=lambda: next(polls) >= 150
        )
        assert result.interrupted
        assert any(slot is not None for slot in machine._engine._slots)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(machine, path)
        restored = load_checkpoint(path)
        assert restored._engine is None
        restored.run(max_time_s=1.5)
        _assert_reference_parity(restored, _loaded_soplex)
