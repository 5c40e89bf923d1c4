"""The batched engine's fused event-horizon sizing.

:meth:`~repro.xen.engine.BatchedEngine.compute_horizon` promises that
no discrete event fires strictly inside a batch, that every Credit
tick a horizon spans is recorded in the fuse plan, and that burst and
phase expiries may land only on the batch-final epoch.  These tests
check those structural invariants on every horizon decision of real
runs (by wrapping the sizing call), pin down the conservative-refusal
paths (fault stalls, the hardened vProbe), and verify the
``fuse_ticks=False`` opt-out changes execution strategy without
changing a single simulated bit.
"""

import math

import pytest

from repro.baselines.brm import BRMScheduler
from repro.core.vprobe import vprobe, vprobe_hardened
from repro.experiments.scenarios import (
    ScenarioConfig,
    make_scheduler,
    spec_scenario,
)
from repro.faults.plan import FaultPlan
from repro.metrics.collectors import summarize
from repro.xen.credit import CreditScheduler, SchedulerPolicy
from repro.xen.engine import BatchedEngine


def _batched_run(
    monkeypatch=None,
    check=None,
    scheduler="vprobe",
    max_time_s=1.0,
    **cfg_kw,
):
    """Run the loaded soplex scenario on the batched engine.

    ``check(engine, e0, now, kb)`` is invoked after every horizon
    decision when given (installed via ``monkeypatch`` on the class).
    """
    if check is not None:
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
    machine = spec_scenario("soplex", make_scheduler(scheduler), cfg)
    machine.run(max_time_s=max_time_s)
    return machine


class TestHorizonInvariants:
    """Structural checks on every horizon decision of a real run."""

    def test_every_horizon_respects_event_boundaries(self, monkeypatch):
        decisions = []

        def check(engine, e0, now, kb):
            machine = engine.machine
            epoch = engine.epoch
            eps = machine._epochs_per_sample
            ept = machine._epochs_per_tick
            assert kb >= 1
            # Fused or not, a horizon never crosses a sampling boundary
            # (vProbe's partitioning pass runs there).
            assert kb <= eps - (e0 % eps)
            if kb > 1:
                plan = engine._fuse_plan or []
                # Every Credit tick interior to the batch must have been
                # proven quiescent and planned for replay; ticks outside
                # the plan must not exist.
                interior_ticks = {
                    j for j in range(1, kb) if (e0 + j) % ept == 0
                }
                assert {entry[0] for entry in plan} == interior_ticks
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

        _batched_run(monkeypatch, check)
        assert decisions and max(decisions) > 1

    def test_fused_ticks_engage_on_loaded_scenario(self):
        machine = _batched_run()
        stats = machine._engine.horizon_stats()
        assert stats["fused_ticks"] > 0
        assert stats["batches"] < stats["epochs"]

    def test_classic_sizing_never_crosses_a_tick(self, monkeypatch):
        """With fusion off, every tick terminates the horizon."""

        def check(engine, e0, now, kb):
            ept = engine.machine._epochs_per_tick
            assert kb <= ept - (e0 % ept)
            assert engine._fuse_plan is None

        machine = _batched_run(monkeypatch, check, fuse_ticks=False)
        assert machine._engine.horizon_stats()["fused_ticks"] == 0


class TestQuiescenceRefusals:
    """Conservative-False paths of the tick-quiescence contract."""

    def test_policy_contract_defaults(self):
        assert not SchedulerPolicy().tick_is_quiescent(7)
        assert CreditScheduler().tick_is_quiescent(7)
        assert vprobe().tick_is_quiescent(7)
        assert not BRMScheduler().tick_is_quiescent(7)

    def test_hardened_vprobe_refuses_every_tick(self, monkeypatch):
        hardened = vprobe_hardened()
        assert all(not hardened.tick_is_quiescent(i) for i in range(32))

        # End to end: the hardened policy's horizons stop at every tick,
        # exactly like the classic sizing.
        def check(engine, e0, now, kb):
            ept = engine.machine._epochs_per_tick
            assert kb <= ept - (e0 % ept)

        machine = _batched_run(monkeypatch, check, scheduler="vprobe-h")
        assert machine._engine.horizon_stats()["fused_ticks"] == 0

    def test_pending_stalls_disable_fusion(self, monkeypatch):
        """stall_rate > 0 keeps the classic stall-capped sizing."""

        def check(engine, e0, now, kb):
            assert engine._fuse_plan is None

        machine = _batched_run(
            monkeypatch,
            check,
            faults=FaultPlan(stall_rate=0.05, stall_epochs=5),
        )
        stats = machine._engine.horizon_stats()
        assert stats["fused_ticks"] == 0
        assert stats["fused_repicks"] == 0


def _summary(**cfg_kw):
    cfg = ScenarioConfig(work_scale=0.15, seed=0, **cfg_kw)
    machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
    machine.run(max_time_s=1.0)
    return summarize(machine)


class TestExecutionStrategyOptOuts:
    """fuse_ticks changes scheduling of work, not results."""

    def test_fuse_ticks_false_is_bitwise_identical(self):
        reference = _summary(engine="reference")
        fused = _summary(engine="batched")
        unfused = _summary(engine="batched", fuse_ticks=False)
        assert fused == reference
        assert unfused == reference


class TestReplayBreakEven:
    """The scalar-replay/kernel dispatch edge is a pure perf choice."""

    def test_default_break_even(self):
        # Break-even measured on the loaded scenario: the fused scalar
        # replay beats the 2D kernel for every horizon up to ~16 epochs
        # (the kernel's dispatch overhead dominates at small k).
        assert BatchedEngine._REPLAY_MAX == 16

    @pytest.mark.parametrize("replay_max", [1, 16, 10**9])
    def test_dispatch_edge_is_bitwise_neutral(self, monkeypatch, replay_max):
        reference = _summary(engine="reference")
        monkeypatch.setattr(BatchedEngine, "_REPLAY_MAX", replay_max)
        assert _summary(engine="batched") == reference
