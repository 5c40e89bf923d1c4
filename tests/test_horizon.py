"""The batched engine's event-horizon sizing and macro-step replay.

:meth:`~repro.xen.engine.BatchedEngine.compute_horizon` promises that
no discrete event fires strictly inside a batch: no Credit tick, no
sampling boundary, no wake or phase change, and no burst or phase
expiry except on the batch-final epoch.  These tests check those
structural invariants on every horizon decision of real runs (by
wrapping the sizing call), pin down the fault-stall cap, and verify
that idle-PCPU horizons go through the fused scalar replay without
changing a single simulated bit.
"""

import math

import pytest

from repro.experiments.scenarios import (
    ScenarioConfig,
    make_scheduler,
    overhead_scenario,
    spec_scenario,
)
from repro.faults.plan import FaultPlan
from repro.metrics.collectors import summarize
from repro.obs.manifest import canonical_dumps
from repro.xen.engine import BatchedEngine


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


def _idle_summary(scheduler, engine):
    cfg = ScenarioConfig(work_scale=0.02, seed=1, engine=engine)
    machine = overhead_scenario(1, make_scheduler(scheduler), cfg)
    machine.run()
    summary = summarize(machine).to_dict()
    # Host wall-clock and execution-strategy fields, not simulated ones.
    summary.pop("phase_profile", None)
    summary.pop("horizon_stats", None)
    return canonical_dumps(summary)


class TestIdleReplay:
    """Idle-PCPU horizons: steals made up front, then the fused replay."""

    @pytest.mark.parametrize("scheduler", ["credit", "vprobe"])
    def test_idle_pcpu_horizons_use_fused_replay(self, monkeypatch, scheduler):
        # One VM x 2 VCPUs on 8 PCPUs: most PCPUs idle all run, so
        # every macro-step has idle PCPUs making per-epoch steal calls.
        idle_calls = []
        orig = BatchedEngine._advance_replay_fused

        def wrapped(self, *args, **kwargs):
            if any(p.current is None for p in self.machine.pcpus):
                idle_calls.append(args[2])
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(BatchedEngine, "_advance_replay_fused", wrapped)
        batched = _idle_summary(scheduler, "batched")
        assert idle_calls, "no idle-PCPU horizon took the fused replay"
        assert _idle_summary(scheduler, "reference") == batched
