"""Tests for repro.experiments.parallel.

The parallel runner must be a drop-in for the serial one: identical
results (each cell is an independent seeded simulation), identical
ordering, identical aggregation — only the wall clock changes.
"""

import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from functools import partial

import pytest

from repro.cache.store import ResultCache
from repro.experiments.parallel import (
    ParallelExecutionError,
    ParallelRunner,
    cell_name,
    default_jobs,
)
from repro.experiments.runner import compare, compare_mean
from repro.experiments.scenarios import ScenarioConfig, solo_scenario
from repro.recovery.shutdown import GracefulShutdown, ShutdownRequested

CFG = ScenarioConfig(work_scale=0.02, seed=0)
BUILDER = partial(solo_scenario, "lu")


class TestParallelRunner:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ParallelRunner(0)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_serial_fallback_is_serial_compare(self):
        serial = compare(BUILDER, CFG, ("credit", "vprobe"))
        runner = compare(BUILDER, CFG, ("credit", "vprobe"), runner=ParallelRunner(1))
        assert serial == runner

    def test_parallel_compare_matches_serial(self):
        serial = compare(BUILDER, CFG, ("credit", "vprobe", "lb"))
        parallel = compare(
            BUILDER, CFG, ("credit", "vprobe", "lb"), runner=ParallelRunner(3)
        )
        assert tuple(parallel) == ("credit", "vprobe", "lb")
        assert parallel == serial

    def test_parallel_compare_mean_matches_serial(self):
        serial = compare_mean(BUILDER, CFG, ("credit", "vprobe"), seeds=(0, 1))
        parallel = compare_mean(
            BUILDER, CFG, ("credit", "vprobe"), seeds=(0, 1), runner=ParallelRunner(4)
        )
        assert parallel == serial

    def test_compare_mean_requires_seeds(self):
        with pytest.raises(ValueError):
            compare_mean(BUILDER, CFG, seeds=(), runner=ParallelRunner(2))

    def test_parallel_identical_across_engines(self):
        """Engine selection changes wall time only, even under a pool.

        The same cells fan out once per engine, the engine carried by
        each cell's config; ``RunSummary.__eq__`` covers every
        simulated quantity (``horizon_stats`` is ``compare=False`` —
        only the batched engine records it), so this pins the engines'
        bitwise contract end-to-end through worker processes.  Unknown
        engine names are rejected by ``SimConfig`` itself
        (``test_simulator.py::TestConfig::test_vector_engine_is_not_selectable``).
        """
        schedulers = ("credit", "vprobe")
        results = {
            engine: compare(
                BUILDER,
                dataclasses.replace(CFG, engine=engine),
                schedulers,
                runner=ParallelRunner(2),
            )
            for engine in ("reference", "batched")
        }
        assert results["batched"] == results["reference"]

    def test_run_grid_parallel_matches_serial(self):
        from repro.experiments import fig5

        serial = fig5.run(CFG, workloads=("lu", "sp"), schedulers=("credit", "vprobe"))
        parallel = fig5.run(
            CFG,
            workloads=("lu", "sp"),
            schedulers=("credit", "vprobe"),
            runner=ParallelRunner(4),
        )
        assert serial == parallel


def _crashing_builder(policy, cfg):
    """Kills the worker process the first time it runs in a pool.

    ``os._exit`` bypasses the executor's exception channel entirely,
    which is exactly how a segfaulting worker looks to the parent:
    the whole pool breaks.  In the parent (serial retry) it behaves.
    """
    import multiprocessing
    import os

    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return solo_scenario("lu", policy, cfg)


def _failing_builder(policy, cfg):
    raise RuntimeError("scenario cannot be built")


class TestCrashRecovery:
    def test_worker_crash_recovered_by_serial_retry(self):
        cells = [
            (_crashing_builder, name, CFG) for name in ("credit", "vprobe")
        ]
        runner = ParallelRunner(2)
        results = runner.run_cells(cells)
        assert runner.retried_cells  # the crash did not pass silently
        clean = ParallelRunner(1).run_cells(
            [(BUILDER, name, CFG) for name in ("credit", "vprobe")]
        )
        assert results == clean

    def test_persistent_failure_aggregates_cell_names(self):
        cells = [
            (_failing_builder, name, CFG) for name in ("credit", "vprobe")
        ]
        with pytest.raises(ParallelExecutionError) as err:
            ParallelRunner(2).run_cells(cells)
        assert len(err.value.failures) == 2
        # Keys carry the grid index so identical-looking cells stay distinct.
        assert "_failing_builder/credit/seed=0#0" in err.value.failures
        assert "_failing_builder/vprobe/seed=0#1" in err.value.failures
        assert "scenario cannot be built" in str(err.value)

    def test_clean_parallel_run_reports_no_retries(self):
        runner = ParallelRunner(2)
        runner.run_cells([(BUILDER, name, CFG) for name in ("credit", "vprobe")])
        assert runner.retried_cells == []


class _SigtermOnFirstStore(ResultCache):
    """A store that signals its own process once the first cell lands,
    while the pool's other worker is still busy."""

    def put(self, *args, **kwargs):
        super().put(*args, **kwargs)
        os.kill(os.getpid(), signal.SIGTERM)


class TestInterruptedPool:
    def test_shutdown_mid_grid_reaps_every_worker(self, tmp_path):
        cells = [
            (BUILDER, name, dataclasses.replace(CFG, seed=seed))
            for seed in range(4)
            for name in ("credit", "vprobe")
        ]
        with GracefulShutdown() as shutdown:
            runner = ParallelRunner(
                2, cache=_SigtermOnFirstStore(tmp_path), shutdown=shutdown
            )
            with pytest.raises(ShutdownRequested):
                runner.run_cells(cells)
        assert multiprocessing.active_children() == []

    def test_worker_reaped_by_the_executor_thread_is_not_left_behind(
        self, monkeypatch, tmp_path
    ):
        # The executor's manager thread reaps workers too.  Under CPU load
        # it can take a worker's exit status and stall before recording
        # it, while the teardown's own join gets ECHILD and takes the
        # worker for alive.  Here the manager thread always reaps first and
        # stalls, so the teardown must wait for it.
        waitpid = os.waitpid

        def manager_first(pid, options):
            main = threading.current_thread() is threading.main_thread()
            if main:
                time.sleep(0.05)
            result = waitpid(pid, options)
            if not main and result[0]:
                time.sleep(0.3)
            return result

        monkeypatch.setattr(os, "waitpid", manager_first)
        self.test_shutdown_mid_grid_reaps_every_worker(tmp_path)

    def test_signal_between_start_and_worker_table_reaps_the_worker(
        self, monkeypatch, tmp_path
    ):
        # The pool forks every worker inside the first submit.  A signal
        # raising right after the last worker's start() — before the
        # executor records it in its worker table — must not leak it.
        start = multiprocessing.process.BaseProcess.start
        started = []

        def start_then_signal(self):
            start(self)
            started.append(self)
            if len(started) == 2:
                os.kill(os.getpid(), signal.SIGTERM)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start_then_signal)
        cells = [(BUILDER, name, CFG) for name in ("credit", "vprobe")]
        with GracefulShutdown() as shutdown:
            runner = ParallelRunner(2, cache=ResultCache(tmp_path), shutdown=shutdown)
            with pytest.raises(ShutdownRequested):
                runner.run_cells(cells)
        assert len(started) == 2
        assert multiprocessing.active_children() == []
        assert all(proc.exitcode is not None for proc in started)

    def test_swallowed_signal_still_stops_the_grid(self, tmp_path):
        # A signal landing in a callback that ignores exceptions (an
        # at-fork hook as the pool starts) only sets the flag; the grid
        # still stores its cells and then reports the shutdown.
        cells = [(BUILDER, name, CFG) for name in ("credit", "vprobe")]
        shutdown = GracefulShutdown()
        shutdown.requested, shutdown.signum = True, signal.SIGTERM
        runner = ParallelRunner(2, cache=ResultCache(tmp_path), shutdown=shutdown)
        with pytest.raises(ShutdownRequested):
            runner.run_cells(cells)
        assert runner.cache_misses == 2
        again = ParallelRunner(2, cache=ResultCache(tmp_path))
        again.run_cells(cells)
        assert again.cache_hits == 2
        assert multiprocessing.active_children() == []


class TestDefaultJobs:
    def test_respects_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert default_jobs() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_jobs() == 6


class TestCellName:
    def test_unwraps_partials(self):
        assert cell_name((BUILDER, "credit", CFG)) == "solo_scenario(lu)/credit/seed=0"

    def test_plain_function(self):
        assert cell_name((_failing_builder, "lb", CFG)) == "_failing_builder/lb/seed=0"


class TestDispatchPayloads:
    """Builder dedupe: a grid hashes each builder fingerprint once."""

    def test_builder_fingerprint_hashed_once_per_grid(self, tmp_path, monkeypatch):
        import repro.cache.keys as keys

        calls = []
        real = keys.builder_fingerprint

        def counting(builder):
            calls.append(builder)
            return real(builder)

        monkeypatch.setattr(keys, "builder_fingerprint", counting)
        cells = [
            (BUILDER, sched, dataclasses.replace(CFG, seed=seed))
            for seed in range(4)
            for sched in ("credit", "vprobe")
        ]
        ParallelRunner(1, cache=ResultCache(tmp_path)).run_cells(cells)
        assert len(calls) == 1
