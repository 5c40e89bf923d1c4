"""Tests for repro.recovery: checkpoints, the result store a report
resumes from, deadlines, shutdown.

The contract under test is the one DESIGN.md states: a run is a
deterministic function of (builder, scheduler, config), and its state
at any epoch boundary is a complete description of the rest of the
run.  Everything here follows from that — resume parity, a resumed
report served from its store, quarantine instead of grid failure, and
the resumable exit.
"""

import gc
import json
import os
import pathlib
import pickle
import signal
import threading
import time
from functools import partial

import pytest

import repro
from repro.experiments.parallel import GridIncompleteError, ParallelRunner
from repro.experiments.runner import execute_cell
from repro.experiments.scenarios import ScenarioConfig, solo_scenario
from repro.faults.plan import fault_preset
from repro.cache.keys import CACHE_SCHEMA, result_key
from repro.cache.serialize import summary_to_payload
from repro.cache.store import ResultCache
from repro.obs.manifest import canonical_dumps, config_hash
from repro.recovery import (
    CheckpointError,
    DeadlinePolicy,
    GracefulShutdown,
    Quarantine,
    ShutdownRequested,
    EXIT_RESUMABLE,
    checkpoint_path_for,
    execute_cell_resumable,
    inspect_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.recovery.checkpoint import read_header
from repro.recovery import deadline as deadline_module
from repro.recovery.deadline import CellDeadlineExceeded, cell_stop_check
from repro.xen.simulator import SimulationTimeout

CFG = ScenarioConfig(work_scale=0.02, seed=1)
BUILDER = partial(solo_scenario, "lu")

ENGINES = ("batched", "reference")
SCHEDULERS = ("credit", "vprobe", "vcpu-p", "lb", "brm")
FAULTS = ("none", "chaos")


def canonical_result(summary) -> str:
    """The comparison form: canonical JSON minus the horizon statistics."""
    payload = summary_to_payload(summary)
    payload.pop("horizon_stats", None)
    return canonical_dumps(payload)


def build_machine(scheduler: str = "credit", cfg: ScenarioConfig = CFG):
    from repro.experiments.scenarios import make_scheduler

    return BUILDER(make_scheduler(scheduler), cfg)


def run_partially(machine, epochs_of_polls: int = 3):
    """Advance a machine a few steps, stopping at an epoch boundary."""
    polls = iter(range(10**9))
    result = machine.run(stop_check=lambda: next(polls) >= epochs_of_polls)
    assert result.interrupted
    return machine


class StopAfter:
    """A picklable stop_check that fires on its Nth poll."""

    def __init__(self, polls: int) -> None:
        self.polls = polls
        self.count = 0

    def __call__(self) -> bool:
        self.count += 1
        return self.count >= self.polls


# ----------------------------------------------------------------------
# Checkpoint files
# ----------------------------------------------------------------------
class TestCheckpointFile:
    def test_save_header_and_inspect(self, tmp_path):
        machine = run_partially(build_machine())
        path = tmp_path / "m.ckpt"
        header = save_checkpoint(machine, path)
        assert header["schema"] == "repro.checkpoint/v6"
        assert header["config_hash"] == config_hash(machine.config)
        assert header["epoch_index"] == machine.epoch_index
        assert read_header(path) == header
        assert inspect_checkpoint(path) == header

    def test_load_restores_epoch_state(self, tmp_path):
        machine = run_partially(build_machine())
        path = tmp_path / "m.ckpt"
        save_checkpoint(machine, path)
        restored = load_checkpoint(
            path, expect_config_hash=config_hash(machine.config)
        )
        assert restored.epoch_index == machine.epoch_index
        assert restored.time == machine.time

    def test_truncated_payload_detected(self, tmp_path):
        machine = run_partially(build_machine())
        path = tmp_path / "m.ckpt"
        save_checkpoint(machine, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(CheckpointError, match="digest mismatch"):
            inspect_checkpoint(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x00\x01 not a checkpoint\n")
        with pytest.raises(CheckpointError):
            read_header(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "other.ckpt"
        path.write_text('{"schema": "something.else/v9"}\n')
        with pytest.raises(CheckpointError, match="schema"):
            read_header(path)

    def test_previous_schema_rejected(self, tmp_path):
        # A v5 snapshot pickled the placement's ndarray layout; the
        # v6 reader refuses it before unpickling a byte.
        machine = run_partially(build_machine())
        path = tmp_path / "m.ckpt"
        save_checkpoint(machine, path)
        header_line, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(header_line)
        header["schema"] = "repro.checkpoint/v5"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
        with pytest.raises(CheckpointError, match="schema"):
            inspect_checkpoint(path)

    def test_stale_version_rejected(self, tmp_path, monkeypatch):
        machine = run_partially(build_machine())
        path = tmp_path / "m.ckpt"
        save_checkpoint(machine, path)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        with pytest.raises(CheckpointError, match="stale snapshot"):
            inspect_checkpoint(path)

    def test_config_hash_mismatch_rejected(self, tmp_path):
        machine = run_partially(build_machine())
        path = tmp_path / "m.ckpt"
        save_checkpoint(machine, path)
        with pytest.raises(CheckpointError, match="different run"):
            load_checkpoint(path, expect_config_hash="0" * 64)

    def test_tampered_header_hash_rejected(self, tmp_path):
        # Defense in depth: editing the header's config_hash to match
        # the caller's expectation must still fail, because the
        # restored machine re-derives the hash from its actual config.
        machine = run_partially(build_machine())
        path = tmp_path / "m.ckpt"
        save_checkpoint(machine, path)
        header_line, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(header_line)
        header["config_hash"] = "f" * len(header["config_hash"])
        path.write_bytes(canonical_dumps(header).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="different value"):
            load_checkpoint(path, expect_config_hash=header["config_hash"])

    def test_checkpoint_path_for(self, tmp_path):
        path = checkpoint_path_for(tmp_path, "abc123")
        assert path == tmp_path / "abc123.ckpt"


# ----------------------------------------------------------------------
# Resume parity: the tentpole guarantee
# ----------------------------------------------------------------------
class TestResumeParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("faults", FAULTS)
    def test_interrupt_resume_matches_uninterrupted(
        self, tmp_path, engine, scheduler, faults
    ):
        cfg = ScenarioConfig(
            work_scale=0.02,
            seed=1,
            engine=engine,
            faults=None if faults == "none" else fault_preset(faults),
        )
        baseline = execute_cell(BUILDER, scheduler, cfg)
        key = result_key(BUILDER, scheduler, cfg)
        assert key is not None
        interrupted = execute_cell_resumable(
            BUILDER, scheduler, cfg, tmp_path, key, stop_check=StopAfter(3)
        )
        assert interrupted is None  # the cut actually happened
        ckpt = checkpoint_path_for(tmp_path, key)
        assert ckpt.exists()
        resumed = execute_cell_resumable(BUILDER, scheduler, cfg, tmp_path, key)
        assert resumed is not None
        assert canonical_result(resumed) == canonical_result(baseline)
        assert not ckpt.exists()  # completed runs clean up their snapshot

    def test_stale_snapshot_rebuilds_from_scratch(self, tmp_path):
        key = result_key(BUILDER, "credit", CFG)
        ckpt = checkpoint_path_for(tmp_path, key)
        ckpt.write_bytes(b"garbage that is not a checkpoint\n")
        summary = execute_cell_resumable(BUILDER, "credit", CFG, tmp_path, key)
        assert canonical_result(summary) == canonical_result(
            execute_cell(BUILDER, "credit", CFG)
        )

    def test_keyless_cell_runs_without_persistence(self, tmp_path):
        summary = execute_cell_resumable(BUILDER, "credit", CFG, tmp_path, None)
        assert canonical_result(summary) == canonical_result(
            execute_cell(BUILDER, "credit", CFG)
        )
        assert list(tmp_path.iterdir()) == []  # nothing named, nothing written

    def test_double_interrupt_then_resume(self, tmp_path):
        # Two successive cuts (checkpoint of a checkpointed run) still
        # land on the uninterrupted result.
        baseline = execute_cell(BUILDER, "vprobe", CFG)
        key = result_key(BUILDER, "vprobe", CFG)
        assert (
            execute_cell_resumable(
                BUILDER, "vprobe", CFG, tmp_path, key, stop_check=StopAfter(2)
            )
            is None
        )
        assert (
            execute_cell_resumable(
                BUILDER, "vprobe", CFG, tmp_path, key, stop_check=StopAfter(2)
            )
            is None
        )
        resumed = execute_cell_resumable(BUILDER, "vprobe", CFG, tmp_path, key)
        assert canonical_result(resumed) == canonical_result(baseline)


class TestPmuPickle:
    def test_restored_banks_are_the_ones_the_replay_charges(self):
        # A restored machine's PMU banks (plain-float counters) must be
        # the very objects the rebuilt engine's replay slots charge in
        # place, so what the analyzer later reads is what the replay
        # wrote — no detached copy survives a pickle round trip.
        machine = run_partially(build_machine())
        restored = pickle.loads(pickle.dumps(machine))
        pmu = restored.pmu
        before = {key: pmu.totals(key) for key in pmu}
        restored.run(max_time_s=restored.time + 0.05)
        engine = restored._engine
        assert engine is not None
        rows = engine._plan[0]
        assert rows
        for row in rows:
            vcpu, bank, node_accesses = row[14], row[16], row[17]
            assert bank is pmu.peek(vcpu.key)
            assert node_accesses is bank.node_accesses
        charged = [
            key for key in pmu
            if pmu.peek(key).instructions > before[key].instructions
        ]
        assert charged
        for key in charged:
            now, then = pmu.peek(key), before[key]
            assert sum(now.node_accesses) > sum(then.node_accesses)


# ----------------------------------------------------------------------
# The result store a report keeps its cells in
# ----------------------------------------------------------------------
class TestJournal:
    """A report's record of finished and quarantined cells is its store.

    Every finished cell is one fsynced entry and every quarantine one
    tombstone in a :class:`~repro.cache.store.ResultCache`
    (``<outdir>/cells/`` unless a cache directory is given); these are
    the durability and defensiveness checks a resume relies on.
    """

    def summary(self, scheduler="credit"):
        return execute_cell(BUILDER, scheduler, CFG)

    def test_record_and_reload(self, tmp_path):
        summary = self.summary()
        ResultCache(tmp_path / "cells").put("k1", summary)
        reloaded = ResultCache(tmp_path / "cells")
        assert reloaded.get("k1") == summary
        assert (reloaded.hits, reloaded.misses) == (1, 0)

    def test_fresh_run_discards_stale_journal(self, tmp_path):
        from repro.experiments.report_all import regenerate_all

        outdir = tmp_path / "r"

        def stale_store():
            store = ResultCache(outdir / "cells")
            store.put("k1", self.summary())
            store.put_quarantine("k2", "deadline", 3, "x")

        stale_store()
        regenerate_all(outdir, fast=True, only=("no-such-job",), resume=True)
        kept = ResultCache(outdir / "cells")
        assert kept.get("k1") is not None and kept.get_quarantine("k2") is not None
        regenerate_all(outdir, fast=True, only=("no-such-job",))
        fresh = ResultCache(outdir / "cells")
        assert fresh.get("k1") is None and fresh.get_quarantine("k2") is None

    def test_malformed_lines_invisible(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put("k1", self.summary())
        for key, text in (("k9", "{torn entry"), ("k8", '{"schema": "other/v1"}')):
            store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
            store.path_for(key).write_text(text)
        (tmp_path / "k7").mkdir()
        (tmp_path / "k7" / "k7.quarantine").write_text("{torn tombstone")
        (tmp_path / "k6").mkdir()
        (tmp_path / "k6" / "k6.quarantine").write_text(
            '{"schema": "other/v1", "quarantine": {}}'
        )
        reloaded = ResultCache(tmp_path)
        assert reloaded.get("k1") is not None
        assert reloaded.get("k9") is None and reloaded.get("k8") is None
        assert reloaded.get_quarantine("k7") is None
        assert reloaded.get_quarantine("k6") is None

    def test_resume_truncates_torn_tail_before_appending(self, tmp_path):
        # A torn entry (a crash mid-write on a filesystem that lost the
        # rename's ordering) is a miss, and the next put replaces it.
        store = ResultCache(tmp_path)
        first, second = self.summary(), self.summary("vprobe")
        store.put("k1", first)
        store.put("k2", second)
        path = store.path_for("k2")
        path.write_bytes(path.read_bytes()[:-40])
        resumed = ResultCache(tmp_path)
        assert resumed.get("k1") == first
        assert resumed.get("k2") is None
        resumed.put("k2", second)
        reloaded = ResultCache(tmp_path)
        assert reloaded.get("k2") == second and reloaded.get("k1") == first

    def test_quarantine_roundtrip_and_clear(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put_quarantine("k1", "deadline", 3, "x")
        reloaded = ResultCache(tmp_path)
        assert reloaded.get_quarantine("k1") == {
            "reason": "deadline",
            "strikes": 3,
            "detail": "x",
        }
        assert reloaded.get("k1") is None  # a tombstone is never a hit
        assert reloaded.hits == 0
        # A later success supersedes the quarantine: the entry resolves
        # before the tombstone is consulted, even on resume.
        key = result_key(BUILDER, "credit", CFG)
        store.put_quarantine(key, "deadline", 3, "x")
        store.put(key, self.summary())
        resumed = ParallelRunner(1, cache=ResultCache(tmp_path), resume=True)
        (summary,) = resumed.run_cells([(BUILDER, "credit", CFG)])
        assert summary is not None and resumed.quarantined == []
        # stats and prune read past tombstones; clear removes them.
        assert store.scan().entries == 1
        assert store.prune() == (0, 0)
        assert store.get_quarantine("k1") is not None
        assert store.clear() == 3
        assert store.get_quarantine("k1") is None
        assert store.get_quarantine(key) is None

    def test_file_is_canonical_jsonl(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put("k1", self.summary())
        store.put_quarantine("k2", "sim_timeout", 1, "capped")
        files = [store.path_for("k1"), *tmp_path.glob("??/*.quarantine")]
        assert len(files) == 2
        for path in files:
            text = path.read_text()
            assert text.endswith("\n") and text.count("\n") == 1
            record = json.loads(text)
            assert record["schema"] == CACHE_SCHEMA
            assert canonical_dumps(record) + "\n" == text
        # Tombstones stay outside the entry glob other tools read.
        assert [p.name for p in tmp_path.glob("??/*.json")] == ["k1.json"]

    def test_write_failure_never_raises(self, tmp_path):
        store = ResultCache(tmp_path / "c")
        (tmp_path / "c" / "k1").write_text("")  # a file where a shard must go
        assert store.put("k1a", self.summary()) is False
        assert store.put_quarantine("k1b", "deadline", 1, "d") is False
        assert store.stores == 0


# ----------------------------------------------------------------------
# Deadlines and quarantine
# ----------------------------------------------------------------------
class TestDeadlinePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlinePolicy(deadline_s=0)
        with pytest.raises(ValueError):
            DeadlinePolicy(deadline_s=1, max_strikes=0)
        with pytest.raises(ValueError):
            DeadlinePolicy(deadline_s=1, backoff_base_s=-1)
        with pytest.raises(ValueError):
            DeadlinePolicy(deadline_s=1, backoff_factor=0.5)

    def test_backoff_schedule(self):
        policy = DeadlinePolicy(deadline_s=1, backoff_base_s=0.25, backoff_factor=2)
        assert [policy.backoff_s(k) for k in (1, 2, 3)] == [0.25, 0.5, 1.0]

    def test_coerce(self):
        assert DeadlinePolicy.coerce(None) is None
        policy = DeadlinePolicy(deadline_s=3)
        assert DeadlinePolicy.coerce(policy) is policy
        assert DeadlinePolicy.coerce(2.5) == DeadlinePolicy(deadline_s=2.5)


class TestAlarmGuard:
    """A deadline is a cooperative ``stop_check``: no signal, no timer."""

    def test_fires_on_overrun(self):
        check = cell_stop_check(0.05)
        assert check() is False
        time.sleep(0.06)
        with pytest.raises(CellDeadlineExceeded) as err:
            check()
        assert err.value.deadline_s == 0.05

    def test_noop_without_deadline(self, monkeypatch):
        monkeypatch.setattr(
            deadline_module,
            "monotonic",
            lambda: pytest.fail("a clock was read without a deadline"),
        )
        assert cell_stop_check(None) is None
        flag = lambda: False  # noqa: E731
        assert cell_stop_check(None, flag) is flag
        ParallelRunner(1).run_cells([(BUILDER, "credit", CFG)])

    def test_noop_off_main_thread(self):
        # Nothing thread-bound is installed, so off the main thread a
        # deadline neither errors nor goes unenforced.
        outcome = {}

        def body():
            try:
                runner = ParallelRunner(1, deadline=30.0)
                outcome["summary"] = runner.run_cells([(BUILDER, "credit", CFG)])[0]
                check = cell_stop_check(0.01)
                time.sleep(0.02)
                check()
            except CellDeadlineExceeded as exc:
                outcome["fired"] = exc.deadline_s
            except BaseException as exc:  # pragma: no cover - the failure mode
                outcome["error"] = exc

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert outcome.get("fired") == 0.01 and "error" not in outcome
        assert canonical_result(outcome["summary"]) == canonical_result(
            execute_cell(BUILDER, "credit", CFG)
        )

    def test_restores_previous_handler(self):
        # There is nothing to restore: a cell under a deadline runs with
        # the process's own SIGALRM disposition and no interval timer.
        previous = signal.getsignal(signal.SIGALRM)
        _SIGNAL_PROBE.clear()
        runner = ParallelRunner(1, deadline=30.0, checkpoint_dir=None)
        (summary,) = runner.run_cells([(_probing_builder, "credit", CFG)])
        assert summary is not None
        assert _SIGNAL_PROBE == {
            "handler": previous,
            "itimer": (0.0, 0.0),
        }
        assert signal.getsignal(signal.SIGALRM) is previous


_SIGNAL_PROBE = {}


def _probing_builder(policy, cfg):
    """Records the SIGALRM state seen inside a cell, then builds it."""
    _SIGNAL_PROBE["handler"] = signal.getsignal(signal.SIGALRM)
    _SIGNAL_PROBE["itimer"] = signal.getitimer(signal.ITIMER_REAL)
    return solo_scenario("lu", policy, cfg)


class TestCooperativeDeadline:
    def test_deadline_fires_within_one_horizon_of_expiry(self, monkeypatch):
        # The clock reads "expired" from the moment the run reaches
        # epoch 40; the check must raise at the very next horizon
        # boundary, and every horizon is at most one Credit tick long.
        from repro.experiments.scenarios import make_scheduler, spec_scenario

        machine = spec_scenario(
            "soplex", make_scheduler("vprobe"), ScenarioConfig(work_scale=0.02)
        )
        tick_epochs = round(machine.policy.params.tick_s / machine.config.epoch_s)
        expire_at = 40
        monkeypatch.setattr(
            deadline_module,
            "monotonic",
            lambda: 1e9 if machine.epoch_index >= expire_at else 0.0,
        )
        check = cell_stop_check(1.0)
        boundaries = []

        def stop_check():
            boundaries.append(machine.epoch_index)
            return check()

        with pytest.raises(CellDeadlineExceeded):
            machine.run(stop_check=stop_check)
        assert max(b - a for a, b in zip(boundaries, boundaries[1:])) > 1
        assert boundaries[-2] < expire_at <= boundaries[-1]
        assert boundaries[-1] - expire_at < tick_epochs

    def test_shutdown_flag_wins_over_an_expired_deadline(self):
        check = cell_stop_check(1e-9, lambda: True)
        time.sleep(0.001)
        assert check() is True  # stop and checkpoint, not a strike


def _slow_builder(policy, cfg):
    """Module-level (hence picklable) builder that spends longer than
    any sub-second deadline building, so the run's first horizon
    boundary is already past it."""
    time.sleep(0.2)
    return solo_scenario("lu", policy, cfg)


_FLAKY_CALLS = {"count": 0}


def _flaky_slow_builder(policy, cfg):
    """Slow on the first attempt only — the transient-load shape the
    backoff-retry path exists for."""
    _FLAKY_CALLS["count"] += 1
    if _FLAKY_CALLS["count"] == 1:
        time.sleep(0.3)
    return solo_scenario("lu", policy, cfg)


class TestQuarantine:
    def test_sim_timeout_quarantines_serially(self, tmp_path):
        capped = ScenarioConfig(work_scale=0.02, seed=1, max_epochs=50)
        store = ResultCache(tmp_path / "cells")
        runner = ParallelRunner(1, cache=store)
        results = runner.run_cells([(BUILDER, "credit", capped)])
        assert results == [None]
        (q,) = runner.quarantined
        assert q.reason == "sim_timeout"
        assert q.strikes == 1
        assert q.key == result_key(BUILDER, "credit", capped)
        assert store.get_quarantine(q.key) == {
            "reason": "sim_timeout",
            "strikes": 1,
            "detail": q.detail,
        }

    def test_journaled_quarantine_not_retried(self, tmp_path, monkeypatch):
        capped = ScenarioConfig(work_scale=0.02, seed=1, max_epochs=50)
        first = ParallelRunner(1, cache=ResultCache(tmp_path))
        first.run_cells([(BUILDER, "credit", capped)])
        # Resume: the tombstone resolves without any attempt, and so
        # does a repeat of the cell within the first run.
        monkeypatch.setattr(
            "repro.experiments.parallel.execute_cell",
            lambda *a, **k: pytest.fail("quarantined cell was re-executed"),
        )
        assert first.run_cells([(BUILDER, "credit", capped)]) == [None]
        resumed = ParallelRunner(1, cache=ResultCache(tmp_path), resume=True)
        results = resumed.run_cells([(BUILDER, "credit", capped)])
        assert results == [None]
        (q,) = resumed.quarantined
        assert q.reason == "sim_timeout"
        assert (resumed.cache_hits, resumed.cache_misses) == (0, 0)

    def test_deadline_quarantines_after_max_strikes(self):
        policy = DeadlinePolicy(deadline_s=0.05, max_strikes=2, backoff_base_s=0.0)
        runner = ParallelRunner(1, deadline=policy)
        results = runner.run_cells([(_slow_builder, "credit", CFG)])
        assert results == [None]
        (q,) = runner.quarantined
        assert q.reason == "deadline"
        assert q.strikes == 2

    def test_deadline_retry_recovers_transient_overrun(self):
        _FLAKY_CALLS["count"] = 0
        policy = DeadlinePolicy(deadline_s=0.2, max_strikes=3, backoff_base_s=0.0)
        runner = ParallelRunner(1, deadline=policy)
        (summary,) = runner.run_cells([(_flaky_slow_builder, "credit", CFG)])
        assert summary is not None
        assert runner.quarantined == []
        assert _FLAKY_CALLS["count"] == 2

    def test_parallel_sim_timeout_quarantines_without_serial_retry(self):
        capped = ScenarioConfig(work_scale=0.02, seed=1, max_epochs=50)
        cells = [(BUILDER, name, capped) for name in ("credit", "vprobe")]
        runner = ParallelRunner(2)
        results = runner.run_cells(cells)
        assert results == [None, None]
        assert len(runner.quarantined) == 2
        assert {q.reason for q in runner.quarantined} == {"sim_timeout"}
        assert runner.retried_cells == []  # never the full-cost retry path

    def test_mixed_grid_keeps_good_cells(self):
        capped = ScenarioConfig(work_scale=0.02, seed=1, max_epochs=50)
        cells = [
            (BUILDER, "credit", CFG),
            (BUILDER, "credit", capped),
            (BUILDER, "vprobe", CFG),
        ]
        runner = ParallelRunner(2)
        results = runner.run_cells(cells)
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        assert canonical_result(results[0]) == canonical_result(
            execute_cell(BUILDER, "credit", CFG)
        )

    def test_run_grid_raises_grid_incomplete(self):
        from repro.experiments.comparison import WorkloadPoint, run_grid

        capped = ScenarioConfig(work_scale=0.02, seed=1, max_epochs=50)
        with pytest.raises(GridIncompleteError) as err:
            run_grid(
                "t",
                [WorkloadPoint("lu", BUILDER)],
                cfg=capped,
                schedulers=("credit",),
            )
        assert len(err.value.quarantined) == 1
        assert "quarantined" in str(err.value)

    def test_compare_maps_quarantined_to_none(self):
        from repro.experiments.runner import compare

        capped = ScenarioConfig(work_scale=0.02, seed=1, max_epochs=50)
        result = compare(BUILDER, capped, ("credit", "vprobe"))
        assert result == {"credit": None, "vprobe": None}

    def test_fig9_with_quarantined_cell_is_grid_incomplete(self):
        from repro.experiments import fig9_faults

        with pytest.raises(GridIncompleteError):
            fig9_faults.run(
                ScenarioConfig(work_scale=0.02, max_epochs=5),
                rates=(0.0,),
                schedulers=("credit",),
                seeds=1,
            )

    def test_fig8_keeps_the_callers_config(self):
        # The epoch cap must survive the per-period config: a rebuilt
        # config without it would run a full simulated second instead.
        from repro.experiments import fig8

        with pytest.raises(GridIncompleteError):
            fig8.run(
                ScenarioConfig(work_scale=0.02, engine="reference", max_epochs=5),
                periods=(1.0,),
            )

    def test_quarantine_to_dict(self):
        q = Quarantine(cell="c#0", key="k", reason="deadline", strikes=3, detail="d")
        assert q.to_dict() == {
            "cell": "c#0",
            "key": "k",
            "reason": "deadline",
            "strikes": 3,
            "detail": "d",
        }


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_exit_code_is_ex_tempfail(self):
        assert EXIT_RESUMABLE == 75

    def test_signal_raises_outside_deferred(self):
        shutdown = GracefulShutdown()
        with shutdown:
            with pytest.raises(ShutdownRequested) as err:
                signal.raise_signal(signal.SIGINT)
        assert shutdown.requested
        assert err.value.signum == signal.SIGINT

    def test_deferred_sets_flag_then_second_signal_raises(self):
        shutdown = GracefulShutdown()
        with shutdown:
            with shutdown.deferred():
                signal.raise_signal(signal.SIGTERM)
                assert shutdown.requested  # flagged, not raised
                assert shutdown.is_requested()
                with pytest.raises(ShutdownRequested):
                    signal.raise_signal(signal.SIGTERM)

    def test_check_raises_once_requested(self):
        shutdown = GracefulShutdown()
        shutdown.check()  # quiet before any signal
        shutdown.requested = True
        shutdown.signum = signal.SIGTERM
        with pytest.raises(ShutdownRequested):
            shutdown.check()

    def test_handlers_restored_on_exit(self):
        previous = {s: signal.getsignal(s) for s in GracefulShutdown.SIGNALS}
        with GracefulShutdown():
            pass
        for sig, handler in previous.items():
            assert signal.getsignal(sig) is handler

    def test_shutdown_requested_is_base_exception(self):
        # The crash-retry machinery catches Exception; a shutdown must
        # sail through it, not be "recovered" as a failed cell.
        assert not issubclass(ShutdownRequested, Exception)
        assert issubclass(ShutdownRequested, BaseException)


class _ScriptedShutdown:
    """GracefulShutdown stand-in whose signal arrives on the Nth
    stop_check poll — deterministic where a real timer would be flaky."""

    def __init__(self, polls: int) -> None:
        self.polls = polls
        self.count = 0
        self.requested = False
        self.signum = signal.SIGTERM
        self._defer_depth = 0

    def is_requested(self) -> bool:
        self.count += 1
        if self.count >= self.polls:
            self.requested = True
        return self.requested

    def check(self) -> None:
        if self.requested:
            raise ShutdownRequested(self.signum)

    def deferred(self):
        import contextlib

        @contextlib.contextmanager
        def _section():
            self._defer_depth += 1
            try:
                yield self
            finally:
                self._defer_depth -= 1

        return _section()


class TestRunnerShutdown:
    def test_serial_cell_checkpoints_then_resumes(self, tmp_path):
        store_dir = tmp_path / "cells"
        ckpt_dir = tmp_path / "checkpoints"
        key = result_key(BUILDER, "credit", CFG)
        interrupted = ParallelRunner(
            1,
            cache=ResultCache(store_dir),
            shutdown=_ScriptedShutdown(polls=3),
            checkpoint_dir=ckpt_dir,
        )
        with pytest.raises(ShutdownRequested):
            interrupted.run_cells([(BUILDER, "credit", CFG)])
        assert checkpoint_path_for(ckpt_dir, key).exists()
        assert ResultCache(store_dir).get(key) is None
        # Relaunch: the checkpoint finishes the run; parity holds.
        resumed = ParallelRunner(
            1, cache=ResultCache(store_dir), resume=True, checkpoint_dir=ckpt_dir
        )
        (summary,) = resumed.run_cells([(BUILDER, "credit", CFG)])
        assert canonical_result(summary) == canonical_result(
            execute_cell(BUILDER, "credit", CFG)
        )
        assert not checkpoint_path_for(ckpt_dir, key).exists()
        # And a third run resolves purely from the store.
        third = ParallelRunner(1, cache=ResultCache(store_dir), resume=True)
        third.run_cells([(BUILDER, "credit", CFG)])
        assert (third.cache_hits, third.cache.hits) == (1, 1)

    def test_shutdown_before_any_cell_raises_immediately(self, tmp_path):
        shutdown = _ScriptedShutdown(polls=1)
        shutdown.requested = True
        runner = ParallelRunner(1, shutdown=shutdown)
        with pytest.raises(ShutdownRequested):
            runner.run_cells([(BUILDER, "credit", CFG)])


def _never_execute(*args, **kwargs):
    pytest.fail("a stored cell was recomputed")


def _forbid_execution(monkeypatch):
    monkeypatch.setattr("repro.experiments.parallel.execute_cell", _never_execute)
    monkeypatch.setattr(
        "repro.recovery.checkpoint.execute_cell_resumable", _never_execute
    )


# ----------------------------------------------------------------------
# Store-backed runner resume (the --resume fast path)
# ----------------------------------------------------------------------
class TestRunnerJournalResume:
    def test_resume_serves_all_cells_from_journal(self, tmp_path, monkeypatch):
        cells = [(BUILDER, name, CFG) for name in ("credit", "vprobe")]
        first = ParallelRunner(1, cache=ResultCache(tmp_path))
        baseline = first.run_cells(cells)
        _forbid_execution(monkeypatch)
        resumed = ParallelRunner(1, cache=ResultCache(tmp_path), resume=True)
        replay = resumed.run_cells(cells)
        assert (resumed.cache_hits, resumed.cache_misses) == (2, 0)
        assert [canonical_result(s) for s in replay] == [
            canonical_result(s) for s in baseline
        ]


class TestResultStore:
    CELLS = [(BUILDER, name, CFG) for name in ("credit", "vprobe")]

    def test_in_run_repeats_are_not_store_hits(self, tmp_path):
        # A cell asked for again by the same runner (a report's jobs
        # share a few) comes from the runner's memory: the store counts
        # only reads of entries that existed before the run.
        store = ResultCache(tmp_path)
        runner = ParallelRunner(1, cache=store)
        first = runner.run_cells(self.CELLS)
        again = runner.run_cells(self.CELLS)
        assert again == first
        assert (store.hits, store.misses, store.stores) == (0, 2, 2)
        assert (runner.total_cache_hits, runner.total_cache_misses) == (2, 2)

    def test_tombstone_honoured_only_on_resume(self, tmp_path, monkeypatch):
        key = result_key(BUILDER, "credit", CFG)
        ResultCache(tmp_path).put_quarantine(key, "deadline", 3, "overran")
        with monkeypatch.context() as patched:
            _forbid_execution(patched)
            resumed = ParallelRunner(1, cache=ResultCache(tmp_path), resume=True)
            assert resumed.run_cells(self.CELLS[:1]) == [None]
        (q,) = resumed.quarantined
        assert (q.reason, q.strikes, q.detail, q.key) == ("deadline", 3, "overran", key)
        assert q.cell.endswith("#0")
        # A fresh run sharing the store does not inherit the overrun.
        fresh_store = ResultCache(tmp_path)
        fresh = ParallelRunner(1, cache=fresh_store)
        (summary,) = fresh.run_cells(self.CELLS[:1])
        assert summary is not None and fresh.quarantined == []
        assert (fresh_store.hits, fresh_store.misses) == (0, 1)

    def test_put_fsyncs_the_entry_before_replacing(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            return real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, pathlib.Path(dst)))
            return real_replace(src, dst)

        summary = execute_cell(BUILDER, "credit", CFG)
        store = ResultCache(tmp_path)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        assert store.put("k1", summary)
        ((_, synced), (_, replaced, dst)) = events
        assert synced == replaced and dst == store.path_for("k1")


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestCheckpointCli:

    def test_inspect_valid_and_invalid(self, tmp_path, capsys):
        from repro.cli import main

        machine = run_partially(build_machine())
        good = tmp_path / "good.ckpt"
        save_checkpoint(machine, good)
        assert main(["checkpoint", "inspect", str(good)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "config_hash" in out

        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage\n")
        assert main(["checkpoint", "inspect", str(good), str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_inspect_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["checkpoint", "inspect", str(tmp_path / "nope.ckpt")]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestReportResume:
    def test_report_resume_rerenders_done_jobs_byte_identically(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments.report_all import regenerate_all

        outdir = tmp_path / "r"
        regenerate_all(outdir, fast=True, only=("table3",))
        first = {
            p.name: p.read_bytes()
            for p in outdir.glob("*.json")
            if p.stem != "recovery"
        }
        assert first  # the job actually rendered
        _forbid_execution(monkeypatch)
        regenerate_all(outdir, fast=True, only=("table3",), resume=True)
        out = capsys.readouterr().out
        assert "4 hits, 0 misses" in out
        second = {
            p.name: p.read_bytes()
            for p in outdir.glob("*.json")
            if p.stem != "recovery"
        }
        assert second == first  # resume recomputed nothing, bytes identical

    def test_report_jobs_resume_from_journal_without_cache(
        self, tmp_path, monkeypatch
    ):
        # Outputs gone, no cache directory: every cell of the re-rendered
        # jobs must come from <outdir>/cells/ alone.
        from repro.experiments.report_all import regenerate_all

        outdir = tmp_path / "r"
        cold = regenerate_all(outdir, fast=True, only=("fig3", "table3"))
        assert (cold["cache_hits"], cold["cache_misses"]) == (0, 10)
        outputs = [
            p for p in outdir.iterdir() if p.suffix in (".txt", ".json")
            and p.stem != "recovery"
        ]
        first = {p.name: p.read_bytes() for p in outputs}
        assert len(first) == 4
        for path in outputs:
            path.unlink()

        _forbid_execution(monkeypatch)
        stats = regenerate_all(
            outdir, fast=True, only=("fig3", "table3"), resume=True
        )
        # six fig3 + four table3 cells, all hits
        assert (stats["cache_hits"], stats["cache_misses"]) == (10, 0)
        assert {name: (outdir / name).read_bytes() for name in first} == first
        # Every stored cell is named by builder, scheduler and seed.
        cells = [
            json.loads(p.read_text())["meta"]["cell"]
            for p in (outdir / "cells").glob("??/*.json")
        ]
        assert len(cells) == 10
        assert all("_scenario(" in c and c.endswith("/seed=0") for c in cells)

    def test_deadline_quarantines_a_table3_job(self, tmp_path, monkeypatch):
        # A gc callback in play (hypothesis installs one) must not be
        # able to swallow an overrun: nothing runs outside the run loop.
        from repro.experiments.report_all import regenerate_all

        callback = lambda phase, info: None  # noqa: E731
        gc.callbacks.append(callback)
        try:
            outdir = tmp_path / "r"
            stats = regenerate_all(
                outdir,
                fast=True,
                only=("table3",),
                jobs=1,
                deadline=DeadlinePolicy(deadline_s=1e-3, max_strikes=1),
            )
        finally:
            gc.callbacks.remove(callback)
        assert stats["quarantined_jobs"] == 1
        assert stats["quarantined_cells"] == 4
        report = json.loads((outdir / "recovery.json").read_text())
        assert report["jobs"] == {"table3_overhead": "quarantined"}
        assert {q["reason"] for q in report["quarantined_cells"]} == {"deadline"}
        assert not (outdir / "table3_overhead.json").exists()
        # A resume honours the tombstones: nothing is retried.
        _forbid_execution(monkeypatch)
        again = regenerate_all(outdir, fast=True, only=("table3",), resume=True)
        assert (again["quarantined_jobs"], again["quarantined_cells"]) == (1, 4)

    def test_table3_is_host_independent(self, tmp_path):
        # Two independent cold runs (no cache, separate outdir stores):
        # the overhead table carries simulated quantities only, so its
        # rendered and JSON forms must match byte for byte.
        from repro.experiments.report_all import regenerate_all

        runs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            regenerate_all(outdir, fast=True, only=("table3",), cache=None)
            runs.append(
                {
                    suffix: (outdir / f"table3_overhead.{suffix}").read_bytes()
                    for suffix in ("json", "txt")
                }
            )
        assert runs[0] == runs[1]

    def test_recovery_report_written(self, tmp_path):
        from repro.experiments.report_all import regenerate_all

        outdir = tmp_path / "r"
        regenerate_all(outdir, fast=True, only=("table3",))
        report = json.loads((outdir / "recovery.json").read_text())
        assert report["schema"] == "repro.recovery-report/v2"
        assert report["interrupted"] is False
        assert report["counters"] == {
            "cache_hits": 0,
            "cache_misses": 4,
            "retried_cells": 0,
        }
        assert report["jobs"].get("table3_overhead") == "done"
        assert report["quarantined_cells"] == []
