"""Tests for repro.recovery: checkpoints, journal, deadlines, shutdown.

The contract under test is the one DESIGN.md states: a run is a
deterministic function of (builder, scheduler, config), and its state
at any epoch boundary is a complete description of the rest of the
run.  Everything here follows from that — resume parity, journal
replay, quarantine instead of grid failure, and the resumable exit.
"""

import json
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
from repro.cache.keys import result_key
from repro.cache.serialize import summary_to_payload
from repro.obs.manifest import canonical_dumps, config_hash
from repro.recovery import (
    CheckpointError,
    DeadlinePolicy,
    GracefulShutdown,
    GridJournal,
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
from repro.recovery.deadline import CellDeadlineExceeded, alarm_guard
from repro.xen.simulator import SimulationTimeout

CFG = ScenarioConfig(work_scale=0.02, seed=1)
BUILDER = partial(solo_scenario, "lu")

ENGINES = ("batched", "reference")
SCHEDULERS = ("credit", "vprobe", "vcpu-p", "lb", "brm")
FAULTS = ("none", "chaos")


def canonical_result(summary) -> str:
    """The comparison form: canonical JSON minus the wall-clock profile."""
    payload = summary_to_payload(summary)
    payload.pop("phase_profile", None)
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
        assert header["schema"] == "repro.checkpoint/v3"
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
    def test_counter_views_rebound_after_unpickle(self):
        # Regression: numpy does not preserve view/base aliasing through
        # pickle, so a restored PMU's per-vcpu banks would be detached
        # copies of their _node_matrix rows — the batched engine's
        # matrix commits landing in the matrix while every reader kept
        # the frozen copy.  PMU.__setstate__ must rebind the views.
        machine = run_partially(build_machine())
        restored = pickle.loads(pickle.dumps(machine))
        pmu = restored.pmu
        for key, bank in pmu._counters.items():
            assert bank.node_accesses.base is pmu._node_matrix
            row = pmu._row_of[key]
            # A matrix-side write must be visible through the bank view.
            pmu._node_matrix[row, 0] += 1.0
            assert bank.node_accesses[0] == pmu._node_matrix[row, 0]


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestJournal:
    def summary(self, scheduler="credit"):
        return execute_cell(BUILDER, scheduler, CFG)

    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = GridJournal(path)
        summary = self.summary()
        journal.record_cell("k1", "cell#0", summary)
        journal.record_job("fig3")
        reloaded = GridJournal(path, resume=True)
        assert reloaded.loaded_cells == 1
        assert reloaded.loaded_jobs == 1
        assert reloaded.get_cell("k1") == summary
        assert reloaded.job_status("fig3") == "done"

    def test_fresh_run_discards_stale_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        GridJournal(path).record_cell("k1", "cell#0", self.summary())
        fresh = GridJournal(path, resume=False)
        assert fresh.cell_count == 0
        assert not path.exists()

    def test_malformed_lines_invisible(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = GridJournal(path)
        journal.record_cell("k1", "cell#0", self.summary())
        with path.open("a", encoding="utf-8") as fh:
            fh.write("{torn line\n")
            fh.write('{"schema": "other/v1", "kind": "cell"}\n')
            fh.write(
                '{"schema": "repro.journal/v1", "version": "0.0.0", '
                '"kind": "cell", "status": "done", "key": "k9", "summary": {}}\n'
            )
        reloaded = GridJournal(path, resume=True)
        assert reloaded.loaded_cells == 1
        assert reloaded.get_cell("k9") is None

    def test_resume_truncates_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = GridJournal(path)
        journal.record_cell("k1", "cell#0", self.summary())
        journal.record_cell("k2", "cell#1", self.summary("vprobe"))
        data = path.read_bytes()
        path.write_bytes(data[:-40])  # a crash mid-way through record k2
        resumed = GridJournal(path, resume=True)
        assert resumed.loaded_cells == 1
        fresh = self.summary("vprobe")
        resumed.record_cell("k3", "cell#2", fresh)
        reloaded = GridJournal(path, resume=True)
        assert reloaded.get_cell("k3") == fresh
        assert reloaded.get_cell("k1") is not None
        assert reloaded.get_cell("k2") is None

    def test_quarantine_roundtrip_and_clear(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = GridJournal(path)
        info = {"cell": "c#0", "reason": "deadline", "strikes": 3, "detail": "x"}
        journal.record_quarantine("k1", "c#0", info)
        reloaded = GridJournal(path, resume=True)
        assert reloaded.loaded_quarantines == 1
        assert reloaded.get_quarantine("k1") == info
        # A later success supersedes the quarantine.
        reloaded.record_cell("k1", "c#0", self.summary())
        assert reloaded.get_quarantine("k1") is None
        assert GridJournal(path, resume=True).get_quarantine("k1") is None

    def test_job_status_validation(self, tmp_path):
        journal = GridJournal(tmp_path / "j.jsonl")
        with pytest.raises(ValueError):
            journal.record_job("fig3", "exploded")
        journal.record_job("fig3", "quarantined")
        assert journal.job_status("fig3") == "quarantined"

    def test_file_is_canonical_jsonl(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = GridJournal(path)
        journal.record_cell("k1", "cell#0", self.summary())
        journal.record_job("fig3")
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert record["schema"] == "repro.journal/v1"
            assert canonical_dumps(record) == line

    def test_write_failure_never_raises(self, tmp_path):
        journal = GridJournal(tmp_path / "j.jsonl")
        journal.path = tmp_path / "missing" / "deeper" / "j.jsonl"
        journal.path.parent.parent.write_text("")  # a file where a dir must go
        journal.record_job("fig3")  # must not raise
        assert journal.job_status("fig3") == "done"


class TestJournalCache:
    """The cache-protocol adapter that journal-covers run_one jobs."""

    def test_put_then_get_hits_journal(self, tmp_path):
        from repro.recovery.journal import JournalCache

        journal = GridJournal(tmp_path / "j.jsonl")
        adapter = JournalCache(journal)
        summary = execute_cell(BUILDER, "credit", CFG)
        assert adapter.get("k1") is None
        assert adapter.put("k1", summary, meta={"scheduler": "credit"})
        assert adapter.get("k1") == summary
        assert adapter.journal_hits == 1
        # The cell is durably journaled, not just in memory.
        assert GridJournal(tmp_path / "j.jsonl", resume=True).get_cell("k1") == summary

    def test_cache_fallback_written_through_to_journal(self, tmp_path):
        from repro.cache.store import ResultCache
        from repro.recovery.journal import JournalCache

        cache = ResultCache(tmp_path / "cache")
        summary = execute_cell(BUILDER, "credit", CFG)
        key = "a" * 64
        cache.put(key, summary)
        journal = GridJournal(tmp_path / "j.jsonl")
        adapter = JournalCache(journal, cache)
        assert adapter.get(key) == summary  # served by the cache...
        assert adapter.journal_hits == 0
        assert journal.get_cell(key) == summary  # ...and journaled
        assert adapter.get(key) == summary  # now a journal hit
        assert adapter.journal_hits == 1

    def test_run_one_jobs_resume_without_cache(self, tmp_path, monkeypatch):
        # The integration the adapter exists for: a serial report job's
        # cells replay from the journal alone on resume.
        from repro.experiments.runner import run_one
        from repro.recovery.journal import JournalCache

        path = tmp_path / "j.jsonl"
        first = run_one(
            BUILDER, "credit", CFG, cache=JournalCache(GridJournal(path))
        )
        monkeypatch.setattr(
            "repro.experiments.runner.execute_cell",
            lambda *a, **k: pytest.fail("journaled cell was recomputed"),
        )
        adapter = JournalCache(GridJournal(path, resume=True))
        replay = run_one(BUILDER, "credit", CFG, cache=adapter)
        assert adapter.journal_hits == 1
        assert canonical_result(replay) == canonical_result(first)


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
    def test_fires_on_overrun(self):
        with pytest.raises(CellDeadlineExceeded) as err:
            with alarm_guard(0.05):
                time.sleep(5.0)
        assert err.value.deadline_s == 0.05

    def test_noop_without_deadline(self):
        with alarm_guard(None):
            pass

    def test_noop_off_main_thread(self):
        outcome = {}

        def body():
            try:
                with alarm_guard(0.01):
                    time.sleep(0.05)
                outcome["ok"] = True
            except BaseException as exc:  # pragma: no cover - the failure mode
                outcome["error"] = exc

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert outcome == {"ok": True}

    def test_restores_previous_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        with alarm_guard(30.0):
            assert signal.getsignal(signal.SIGALRM) is not previous
        assert signal.getsignal(signal.SIGALRM) is previous


def _slow_builder(policy, cfg):
    """Module-level (hence picklable) builder that blows any sub-second
    wall-clock deadline before the machine is even built."""
    time.sleep(5.0)
    return solo_scenario("lu", policy, cfg)  # pragma: no cover - never reached


_FLAKY_CALLS = {"count": 0}


def _flaky_slow_builder(policy, cfg):
    """Slow on the first attempt only — the transient-load shape the
    backoff-retry path exists for."""
    _FLAKY_CALLS["count"] += 1
    if _FLAKY_CALLS["count"] == 1:
        time.sleep(5.0)  # pragma: no cover - interrupted by the alarm
    return solo_scenario("lu", policy, cfg)


class TestQuarantine:
    def test_sim_timeout_quarantines_serially(self, tmp_path):
        capped = ScenarioConfig(work_scale=0.02, seed=1, max_epochs=50)
        journal = GridJournal(tmp_path / "j.jsonl")
        runner = ParallelRunner(1, journal=journal)
        results = runner.run_cells([(BUILDER, "credit", capped)])
        assert results == [None]
        (q,) = runner.quarantined
        assert q.reason == "sim_timeout"
        assert q.strikes == 1
        assert q.key == result_key(BUILDER, "credit", capped)
        assert journal.get_quarantine(q.key) is not None

    def test_journaled_quarantine_not_retried(self, tmp_path, monkeypatch):
        capped = ScenarioConfig(work_scale=0.02, seed=1, max_epochs=50)
        path = tmp_path / "j.jsonl"
        first = ParallelRunner(1, journal=GridJournal(path))
        first.run_cells([(BUILDER, "credit", capped)])
        # Resume: the journaled quarantine resolves without any attempt.
        monkeypatch.setattr(
            "repro.experiments.parallel.execute_cell",
            lambda *a, **k: pytest.fail("quarantined cell was re-executed"),
        )
        resumed = ParallelRunner(1, journal=GridJournal(path, resume=True))
        results = resumed.run_cells([(BUILDER, "credit", capped)])
        assert results == [None]
        (q,) = resumed.quarantined
        assert q.reason == "sim_timeout"

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
        runner = ParallelRunner(2, chunksize=1)
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
        runner = ParallelRunner(2, chunksize=1)
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
        capped = ScenarioConfig(work_scale=0.02, seed=1, max_epochs=50)
        result = ParallelRunner(1).compare(BUILDER, capped, ("credit", "vprobe"))
        assert result == {"credit": None, "vprobe": None}

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
        journal_path = tmp_path / "journal.jsonl"
        ckpt_dir = tmp_path / "checkpoints"
        key = result_key(BUILDER, "credit", CFG)
        interrupted = ParallelRunner(
            1,
            journal=GridJournal(journal_path),
            shutdown=_ScriptedShutdown(polls=3),
            checkpoint_dir=ckpt_dir,
        )
        with pytest.raises(ShutdownRequested):
            interrupted.run_cells([(BUILDER, "credit", CFG)])
        assert checkpoint_path_for(ckpt_dir, key).exists()
        # Relaunch: the checkpoint finishes the run; parity holds.
        resumed = ParallelRunner(
            1, journal=GridJournal(journal_path, resume=True), checkpoint_dir=ckpt_dir
        )
        (summary,) = resumed.run_cells([(BUILDER, "credit", CFG)])
        assert canonical_result(summary) == canonical_result(
            execute_cell(BUILDER, "credit", CFG)
        )
        assert not checkpoint_path_for(ckpt_dir, key).exists()
        # And a third run resolves purely from the journal.
        third = ParallelRunner(1, journal=GridJournal(journal_path, resume=True))
        third.run_cells([(BUILDER, "credit", CFG)])
        assert third.journal_hits == 1

    def test_shutdown_before_any_cell_raises_immediately(self, tmp_path):
        shutdown = _ScriptedShutdown(polls=1)
        shutdown.requested = True
        runner = ParallelRunner(1, shutdown=shutdown)
        with pytest.raises(ShutdownRequested):
            runner.run_cells([(BUILDER, "credit", CFG)])


# ----------------------------------------------------------------------
# Journal-aware runner resume (the --resume fast path)
# ----------------------------------------------------------------------
class TestRunnerJournalResume:
    def test_resume_serves_all_cells_from_journal(self, tmp_path, monkeypatch):
        path = tmp_path / "journal.jsonl"
        cells = [(BUILDER, name, CFG) for name in ("credit", "vprobe")]
        first = ParallelRunner(1, journal=GridJournal(path))
        baseline = first.run_cells(cells)
        monkeypatch.setattr(
            "repro.experiments.parallel.execute_cell",
            lambda *a, **k: pytest.fail("journaled cell was recomputed"),
        )
        resumed = ParallelRunner(1, journal=GridJournal(path, resume=True))
        replay = resumed.run_cells(cells)
        assert resumed.journal_hits == 2
        assert [canonical_result(s) for s in replay] == [
            canonical_result(s) for s in baseline
        ]

    def test_cache_hits_written_through_to_journal(self, tmp_path):
        from repro.cache.store import ResultCache

        cache = ResultCache(tmp_path / "cache")
        cells = [(BUILDER, "credit", CFG)]
        ParallelRunner(1, cache=cache).run_cells(cells)  # warm the cache
        path = tmp_path / "journal.jsonl"
        warm = ParallelRunner(1, cache=cache, journal=GridJournal(path))
        warm.run_cells(cells)
        assert warm.cache_hits == 1
        # The journal alone (cold cache) now replays the cell.
        resumed = ParallelRunner(1, journal=GridJournal(path, resume=True))
        resumed.run_cells(cells)
        assert resumed.journal_hits == 1


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
    def test_report_resume_skips_done_jobs_byte_identically(self, tmp_path, capsys):
        from repro.experiments.report_all import regenerate_all

        outdir = tmp_path / "r"
        regenerate_all(outdir, fast=True, only=("table3",))
        first = {
            p.name: p.read_bytes()
            for p in outdir.glob("*.json")
            if p.stem != "recovery"
        }
        assert first  # the job actually rendered
        regenerate_all(outdir, fast=True, only=("table3",), resume=True)
        out = capsys.readouterr().out
        assert "resumed" in out
        second = {
            p.name: p.read_bytes()
            for p in outdir.glob("*.json")
            if p.stem != "recovery"
        }
        assert second == first  # resume recomputed nothing, bytes identical

    def test_recovery_report_written(self, tmp_path):
        from repro.experiments.report_all import regenerate_all

        outdir = tmp_path / "r"
        regenerate_all(outdir, fast=True, only=("table3",))
        report = json.loads((outdir / "recovery.json").read_text())
        assert report["schema"] == "repro.recovery-report/v1"
        assert report["interrupted"] is False
        assert report["jobs"].get("table3_overhead") == "done"
        assert report["quarantined_cells"] == []
