"""Parallel experiment runner: grid cells across worker processes.

Every comparison in the evaluation is a grid of fully independent
simulations — (workload, scheduler) cells for the figure sweeps,
(seed, scheduler) cells for the averaged tables.  Each cell builds its
own :class:`Machine` from a picklable scenario builder and a seeded
config, so cells can run in separate processes with no shared state:
the pairing guarantee (every scheduler sees the identical workload
randomness for a given seed) is carried entirely by the config's seed,
not by execution order.

:meth:`ParallelRunner.run_cells` is the only code that resolves a
cell from the result store, runs it and stores its result: every
experiment entry point (the figures, Table III, the ablations and
:func:`~repro.experiments.runner.compare`) takes one optional
``runner`` and hands it its cells, and ``repro report`` shares one
runner across all of them.  With ``jobs <= 1`` it runs every cell in
this process (no executor, no pickling), so callers can thread a
``--jobs N`` flag straight through.  Report jobs that cannot render
with holes take their cells through :func:`run_complete`.

**The result store.**  Given a
:class:`~repro.cache.store.ResultCache`, the runner resolves cells *in
the parent process* before any executor exists: a fully warm grid
performs zero pickling and spawns zero workers.  Each cell resolves
from, in order:

1. the runner's own memory of cells it already resolved (a report
   asks for a few cells in more than one job);
2. a store entry;
3. with ``resume=True`` only, a quarantine tombstone — the cell is not
   retried and its slot stays ``None``;
4. otherwise it is a miss and runs.

Each miss's result is stored back the moment it lands (by the parent,
so workers stay store-blind and the worker protocol stays the plain
picklable cell), and the store fsyncs every entry, so a SIGTERM'd
``repro report`` relaunched with ``--resume`` recomputes nothing that
already finished.  Per-call counts land in
:attr:`ParallelRunner.cache_hits` (memory or store) and
:attr:`ParallelRunner.cache_misses` and accumulate in the ``total_*``
counterparts; the store's own ``hits``/``misses`` count only its disk
reads.

**Deadlines and quarantine.**  With a
:class:`~repro.recovery.deadline.DeadlinePolicy`, each attempt runs
under a cooperative wall-clock ``stop_check`` in the process executing
it (:func:`~repro.recovery.deadline.cell_stop_check`); an overrun
cancels the cell at the next horizon boundary, the parent retries with
exponential backoff, and after ``max_strikes`` attempts the cell is
*quarantined* — recorded in :attr:`ParallelRunner.quarantined` (and as
a tombstone in the store) with its slot left ``None`` instead of
failing the grid.
:class:`~repro.xen.simulator.SimulationTimeout` (the simulated epoch
cap) rides the same path but quarantines immediately: it is a
deterministic outcome, so a retry — serial or otherwise — would only
reproduce it at full cost.

**Dispatch.**  Each missing cell is one future on the pool, and its
worker reports a per-cell *outcome* (ok / timeout / error), so one bad
cell never poisons another.

Worker crashes don't lose the grid: any cell whose future fails —
including the :class:`BrokenProcessPool` cascade when one worker dies
and takes every pending future with it — has its cells retried once,
serially, in the parent process.  Because cells are deterministic
functions of (builder, scheduler, config), a serial re-run produces
the exact summary the worker would have; only cells that *also* fail
serially surface, aggregated into one :class:`ParallelExecutionError`
naming them (keyed by cell name *and grid index*, so two lambdas that
render identically cannot silently merge).  Retried cells are recorded
in :attr:`ParallelRunner.retried_cells` so a flaky pool never passes
silently.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import pathlib

    from repro.cache.store import ResultCache
    from repro.recovery.shutdown import GracefulShutdown

from repro.experiments.runner import ScenarioBuilder, execute_cell
from repro.experiments.scenarios import ScenarioConfig
from repro.metrics.collectors import RunSummary
from repro.recovery.deadline import (
    CellDeadlineExceeded,
    DeadlinePolicy,
    Quarantine,
    cell_stop_check,
    run_cell_guarded,
)
from repro.xen.simulator import SimulationTimeout

__all__ = [
    "ParallelRunner",
    "ParallelExecutionError",
    "GridIncompleteError",
    "default_jobs",
    "run_complete",
]

#: One grid cell: (builder, scheduler name, config).
Cell = Tuple[ScenarioBuilder, str, ScenarioConfig]

#: Distinguishes "not memoized yet" from a memoized ``None``.
_UNSET = object()

#: Failures spelled out in a ParallelExecutionError message before the
#: rest collapse into "... and N more" (each repeats the cell name and
#: exception text; hundreds of them would bury the signal).
_MAX_FAILURE_DETAIL = 8


def default_jobs() -> int:
    """A sensible ``--jobs`` default: all *usable* cores, at least one.

    Containers and batch schedulers often pin the process to a subset
    of the machine (cgroup cpusets, ``taskset``); ``os.cpu_count()``
    ignores that and would oversubscribe the allowance, so the affinity
    mask wins where the platform exposes one.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return max(1, os.cpu_count() or 1)


def cell_name(cell: Cell) -> str:
    """A stable human-readable id: ``builder(args)/scheduler/seed=N``.

    Not guaranteed unique — distinct lambda/closure builders all render
    as ``<lambda>`` — so anything that *keys* on cells must combine
    this with the grid index (see :func:`indexed_cell_name`).
    """
    builder, scheduler, cfg = cell
    fn = builder
    bound: List[str] = []
    while isinstance(fn, partial):
        bound.extend(str(a) for a in fn.args)
        bound.extend(f"{k}={v}" for k, v in sorted(fn.keywords.items()))
        fn = fn.func
    base = getattr(fn, "__name__", repr(fn))
    label = f"{base}({', '.join(bound)})" if bound else base
    return f"{label}/{scheduler}/seed={cfg.seed}"


def indexed_cell_name(cell: Cell, index: int) -> str:
    """Collision-proof cell id: the readable name plus the grid index."""
    return f"{cell_name(cell)}#{index}"


class ParallelExecutionError(RuntimeError):
    """Cells that failed both in a worker and on the serial retry.

    ``failures`` maps each failing cell's :func:`indexed_cell_name` to
    the exception its serial retry raised (the worker-side error is
    often just the pool-collapse cascade; the serial one is the real
    cause).  The rendered message lists at most
    ``_MAX_FAILURE_DETAIL`` of them; the full mapping is always on the
    exception object.
    """

    def __init__(self, failures: Dict[str, BaseException], total: int) -> None:
        self.failures = dict(failures)
        shown = list(failures.items())[:_MAX_FAILURE_DETAIL]
        detail = "; ".join(
            f"{name}: {type(exc).__name__}: {exc}" for name, exc in shown
        )
        if len(failures) > len(shown):
            detail += f"; ... and {len(failures) - len(shown)} more"
        super().__init__(
            f"{len(failures)} of {total} cells failed even after serial retry: {detail}"
        )


class GridIncompleteError(RuntimeError):
    """A grid finished with quarantined (hence missing) cells.

    Raised by :func:`run_complete` for report jobs that need *every*
    cell to render their result; ``report_all`` catches it, records the
    whole job as quarantined in ``recovery.json`` and carries on with
    the remaining jobs.
    """

    def __init__(self, quarantined: Sequence[Quarantine], total: int) -> None:
        self.quarantined = list(quarantined)
        shown = [q.cell for q in self.quarantined[:_MAX_FAILURE_DETAIL]]
        detail = ", ".join(shown)
        if len(self.quarantined) > len(shown):
            detail += f", ... and {len(self.quarantined) - len(shown)} more"
        super().__init__(
            f"{len(self.quarantined)} of {total} cells quarantined: {detail}"
        )


def _worker_signals() -> None:
    """Pool worker initializer: die on SIGTERM, leave SIGINT to the parent.

    An inherited shutdown handler would turn the parent's terminate()
    into a cell outcome the worker reports and survives."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class ParallelRunner:
    """Fans independent experiment cells across a process pool.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) runs every cell in
        this process, bit-for-bit the serial runner.
    cache:
        Optional :class:`~repro.cache.store.ResultCache`; hits resolve
        in the parent, misses run (and are stored back) as usual, and
        quarantines leave a tombstone.  ``None`` disables the store
        entirely.
    resume:
        ``True`` honours the store's quarantine tombstones, so a cell
        quarantined by an interrupted run is not retried.  A fresh run
        ignores them: a deadline overrun is environmental, and a run
        sharing a cache directory must not inherit it.
    deadline:
        Optional :class:`~repro.recovery.deadline.DeadlinePolicy` (or
        bare seconds).  Overrunning attempts are cancelled, retried
        with exponential backoff and eventually quarantined.
    shutdown:
        Optional :class:`~repro.recovery.shutdown.GracefulShutdown`.
        The runner checks it between cells so a SIGTERM exits
        at a clean point, and serial cells run in its *deferred* mode
        so they can checkpoint at an epoch boundary first.
    checkpoint_dir:
        Directory for in-flight serial-cell snapshots.  Only consulted
        on the serial path (workers are sacrificial — their cells are
        simply re-dispatched on resume); an interrupted serial cell is
        checkpointed there and resumed by the next run.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional["ResultCache"] = None,
        resume: bool = False,
        deadline: "DeadlinePolicy | float | None" = None,
        shutdown: Optional["GracefulShutdown"] = None,
        checkpoint_dir: "pathlib.Path | str | None" = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.resume = resume
        self.deadline = DeadlinePolicy.coerce(deadline)
        self.shutdown = shutdown
        self.checkpoint_dir = checkpoint_dir
        #: cell names recovered by serial retry in the latest
        #: :meth:`run_cells` call (empty on a clean parallel run)
        self.retried_cells: List[str] = []
        #: cells resolved without running (from memory or the store)
        #: and cells that ran, in the latest :meth:`run_cells` call
        self.cache_hits = 0
        self.cache_misses = 0
        #: cells quarantined (now, or by a tombstone on resume)
        #: during the latest :meth:`run_cells` call
        self.quarantined: List[Quarantine] = []
        #: every cell this runner resolved, by store key: its summary,
        #: or its quarantine (kept only when there is a store)
        self._resolved: Dict[str, "RunSummary | Quarantine"] = {}
        #: per-run_cells memos: builder fingerprints keyed by object
        #: identity (one hash per distinct builder per grid — not one
        #: per cell) and full cache keys keyed by (fingerprint,
        #: scheduler, config identity)
        self._fid_memo: Dict[int, Optional[str]] = {}
        self._key_memo: Dict[Tuple[str, str, int], str] = {}
        #: lifetime accumulators across every :meth:`run_cells` call
        self.total_retried_cells: List[str] = []
        self.total_cache_hits = 0
        self.total_cache_misses = 0
        self.total_quarantined: List[Quarantine] = []

    # ------------------------------------------------------------------
    # Store plumbing
    # ------------------------------------------------------------------
    def _builder_fid(self, builder: ScenarioBuilder) -> Optional[str]:
        """Memoized :func:`~repro.cache.keys.builder_fingerprint`.

        Keyed by object identity, which is stable for the duration of
        one :meth:`run_cells` call (the cells hold the references): a
        grid of N seeds × M schedulers over one builder fingerprints it
        once, not N×M times.
        """
        from repro.cache.keys import builder_fingerprint

        marker = self._fid_memo.get(id(builder), _UNSET)
        if marker is _UNSET:
            marker = builder_fingerprint(builder)
            self._fid_memo[id(builder)] = marker
        return marker

    def _cell_key(self, cell: Cell) -> Optional[str]:
        """Memoized :func:`~repro.cache.keys.result_key` for one cell.

        The config hash is likewise deduplicated by object identity —
        :func:`~repro.experiments.runner.compare_mean` shares one
        config object across a seed's scheduler row, so the row pays
        one config hash, not one per scheduler.
        """
        from repro.cache.keys import scenario_key

        builder, scheduler, cfg = cell
        fid = self._builder_fid(builder)
        if fid is None:
            return None
        memo_key = (fid, scheduler, id(cfg))
        key = self._key_memo.get(memo_key)
        if key is None:
            key = scenario_key(fid, scheduler, cfg)
            self._key_memo[memo_key] = key
        return key

    def _lookup(
        self, cells: Sequence[Cell], results: List[Optional[RunSummary]]
    ) -> Tuple[List[Optional[str]], List[int]]:
        """Resolve cells in-place from memory or the store; (keys, misses).

        Resolution order per cell: this runner's memory, store entry,
        tombstone (``resume=True`` only; slot stays ``None``), miss.
        """
        keys: List[Optional[str]] = [None] * len(cells)
        if self.cache is None:
            return keys, list(range(len(cells)))

        misses: List[int] = []
        for index, cell in enumerate(cells):
            key = keys[index] = self._cell_key(cell)
            if key is not None:
                hit = self._resolved.get(key)
                if hit is None:
                    hit = self.cache.get(key)
                    if hit is None and self.resume:
                        info = self.cache.get_quarantine(key)
                        if info is not None:
                            hit = Quarantine(cell="", key=key, **info)
                if isinstance(hit, Quarantine):
                    self._resolved[key] = hit
                    self.quarantined.append(
                        dataclasses.replace(hit, cell=indexed_cell_name(cell, index))
                    )
                    continue
                if hit is not None:
                    results[index] = self._resolved[key] = hit
                    self.cache_hits += 1
                    continue
            self.cache_misses += 1
            misses.append(index)
        return keys, misses

    def _finish(
        self,
        index: int,
        cell: Cell,
        key: Optional[str],
        summary: RunSummary,
        results: List[Optional[RunSummary]],
    ) -> None:
        """Land one computed summary: result slot, memory, store."""
        results[index] = summary
        if self.cache is None or key is None:
            return
        self._resolved[key] = summary
        _, scheduler, cfg = cell
        self.cache.put(
            key,
            summary,
            meta={
                "cell": cell_name(cell),
                "scheduler": scheduler,
                "seed": cfg.seed,
            },
        )

    def _quarantine(
        self,
        index: int,
        cell: Cell,
        key: Optional[str],
        reason: str,
        strikes: int,
        detail: str,
    ) -> None:
        """Remove one cell from the grid instead of failing it."""
        record = Quarantine(
            cell=indexed_cell_name(cell, index),
            key=key,
            reason=reason,
            strikes=strikes,
            detail=detail,
        )
        self.quarantined.append(record)
        if self.cache is not None and key is not None:
            self._resolved[key] = record
            self.cache.put_quarantine(key, reason, strikes, detail)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[Cell]) -> List[Optional[RunSummary]]:
        """Run cells (in order); parallel when jobs and cells allow.

        Builders must be picklable for ``jobs > 1`` — module-level
        functions or :func:`functools.partial` over them, which is what
        every figure module provides.

        Cells whose worker fails (an exception in the cell, or a crash
        that breaks the whole pool) are re-run serially in this process
        — determinism makes the retry result identical to what the
        worker would have produced.  Cells failing the retry too raise
        one aggregated :class:`ParallelExecutionError`.

        Timeout-class failures never take that path: a cell that blew
        the simulated epoch cap (:class:`SimulationTimeout`) or
        repeatedly blew its wall-clock deadline is *quarantined* — its
        slot in the returned list is ``None`` and the details land in
        :attr:`quarantined` (and a tombstone, when there is a store).
        Grids without deadlines, caps or faults keep the historical
        all-summaries guarantee.
        """
        self.retried_cells = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.quarantined = []
        self._fid_memo = {}
        self._key_memo = {}
        results: List[Optional[RunSummary]] = [None] * len(cells)
        try:
            keys, misses = self._lookup(cells, results)
            if self.jobs <= 1 or len(misses) <= 1:
                for index in misses:
                    self._check_shutdown()
                    summary = self._attempt_cell(index, cells[index], keys[index])
                    if summary is not None:
                        self._finish(index, cells[index], keys[index], summary, results)
            else:
                self._run_parallel(cells, keys, misses, results)
            # A signal whose exception was swallowed (one landing in an
            # at-fork hook while the pool starts) only set the flag.
            self._check_shutdown()
        finally:
            self.total_cache_hits += self.cache_hits
            self.total_cache_misses += self.cache_misses
            self.total_retried_cells.extend(self.retried_cells)
            self.total_quarantined.extend(self.quarantined)
        return results

    def _check_shutdown(self) -> None:
        if self.shutdown is not None:
            self.shutdown.check()

    def _execute_attempt(self, cell: Cell, key: Optional[str]) -> RunSummary:
        """One in-parent attempt at a cell, deadline- and shutdown-aware."""
        builder, scheduler, cfg = cell
        deadline_s = self.deadline.deadline_s if self.deadline is not None else None
        if self.checkpoint_dir is None:
            return execute_cell(
                builder, scheduler, cfg, stop_check=cell_stop_check(deadline_s)
            )
        from repro.recovery.checkpoint import execute_cell_resumable
        from repro.recovery.shutdown import ShutdownRequested

        # With a shutdown, the cell runs deferred: a signal sets the
        # flag, the run loop stops at the next horizon boundary, and the
        # cell checkpoints itself before we surface the shutdown.
        shutdown = self.shutdown
        with shutdown.deferred() if shutdown is not None else contextlib.nullcontext():
            summary = execute_cell_resumable(
                builder,
                scheduler,
                cfg,
                self.checkpoint_dir,
                key,
                stop_check=cell_stop_check(
                    deadline_s, shutdown.is_requested if shutdown is not None else None
                ),
            )
        if summary is None:  # interrupted; snapshot is on disk
            raise ShutdownRequested(shutdown.signum or 15)
        return summary

    def _attempt_cell(
        self,
        index: int,
        cell: Cell,
        key: Optional[str],
        prior_strikes: int = 0,
    ) -> Optional[RunSummary]:
        """Run one cell in the parent with the full strike discipline.

        Returns the summary, or ``None`` after quarantining the cell.
        Non-timeout exceptions propagate (callers decide whether that
        is fatal or feeds the crash-retry bookkeeping).
        """
        policy = self.deadline
        max_strikes = policy.max_strikes if policy is not None else 1
        strikes = prior_strikes
        while True:
            try:
                return self._execute_attempt(cell, key)
            except SimulationTimeout as exc:
                self._quarantine(
                    index, cell, key, "sim_timeout", strikes + 1, str(exc)
                )
                return None
            except CellDeadlineExceeded as exc:
                strikes += 1
                if strikes >= max_strikes:
                    self._quarantine(index, cell, key, "deadline", strikes, str(exc))
                    return None
                time.sleep(policy.backoff_s(strikes))
                self._check_shutdown()

    def _run_parallel(
        self,
        cells: Sequence[Cell],
        keys: List[Optional[str]],
        misses: List[int],
        results: List[Optional[RunSummary]],
    ) -> None:
        """Dispatch one future per missing cell over a pool; fill ``results``.

        Each future runs :func:`~repro.recovery.deadline.run_cell_guarded`,
        which reports the cell's outcome, so quarantine, deadline
        retries and crash retries are all decided per cell here.
        """
        workers = min(self.jobs, len(misses))
        deadline_s = self.deadline.deadline_s if self.deadline is not None else None
        failed: List[int] = []
        timeouts: Dict[int, Tuple[str, str]] = {}
        children = set(multiprocessing.active_children())
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_worker_signals)
        try:
            futures: Dict[int, object] = {}
            for index in misses:
                builder, scheduler, cfg = cells[index]
                try:
                    futures[index] = pool.submit(
                        run_cell_guarded, builder, scheduler, cfg, deadline_s
                    )
                except BrokenProcessPool:
                    # The pool died while we were still submitting;
                    # everything not yet submitted goes to the retry.
                    failed.append(index)
            for index, future in futures.items():
                try:
                    status, payload = future.result()
                except Exception:
                    failed.append(index)
                    continue
                if status == "ok":
                    self._finish(index, cells[index], keys[index], payload, results)
                elif status == "timeout":
                    timeouts[index] = payload
                else:
                    failed.append(index)
            pool.shutdown(wait=True)
        except BaseException:
            # Prompt teardown (ShutdownRequested, KeyboardInterrupt): cancel
            # what has not started and kill every child the pool started,
            # in its worker table or not (a signal in the first submit can
            # land between a fork and its record).  The manager thread reaps
            # workers too, and one it is reaping looks alive to our join.
            manager = getattr(pool, "_executor_manager_thread", None)
            pool.shutdown(wait=False, cancel_futures=True)
            procs = [p for p in multiprocessing.active_children() if p not in children]
            for proc in procs:
                proc.terminate()
            if manager is not None:
                manager.join(5.0)
            for proc in procs:
                proc.join(5.0)
                if proc.exitcode is None:  # pragma: no cover - ignored SIGTERM
                    proc.kill()
                    proc.join()
            raise

        # Timeout-class outcomes: quarantine path, never full-cost
        # serial retries.  A deterministic SimulationTimeout quarantines
        # immediately; a wall-clock overrun gets its remaining strikes
        # (with backoff) in the parent.
        for index in sorted(timeouts):
            type_name, detail = timeouts[index]
            cell = cells[index]
            if (
                type_name == "CellDeadlineExceeded"
                and self.deadline is not None
                and self.deadline.max_strikes > 1
            ):
                self._check_shutdown()
                time.sleep(self.deadline.backoff_s(1))
                summary = self._attempt_cell(index, cell, keys[index], prior_strikes=1)
                if summary is not None:
                    self._finish(index, cell, keys[index], summary, results)
            else:
                reason = "sim_timeout" if type_name == "SimulationTimeout" else "deadline"
                self._quarantine(index, cell, keys[index], reason, 1, detail)

        failed.sort()
        failures: Dict[str, BaseException] = {}
        for index in failed:
            self._check_shutdown()
            name = indexed_cell_name(cells[index], index)
            self.retried_cells.append(name)
            try:
                summary = self._attempt_cell(index, cells[index], keys[index])
            except Exception as exc:
                failures[name] = exc
            else:
                if summary is not None:
                    self._finish(index, cells[index], keys[index], summary, results)
        if failures:
            raise ParallelExecutionError(failures, total=len(cells))


def run_complete(
    cells: Sequence[Cell], runner: Optional[ParallelRunner] = None
) -> List[RunSummary]:
    """Every cell's summary, or :class:`GridIncompleteError`.

    For report jobs that cannot render with holes (a comparison figure
    normalises against Credit, a sweep plots every point): if
    ``runner`` (default: a fresh serial, uncached one) quarantined any
    cell, this raises naming them, and ``report_all`` quarantines the
    whole job rather than the whole report.
    """
    runner = runner if runner is not None else ParallelRunner()
    summaries = runner.run_cells(cells)
    if any(s is None for s in summaries):
        raise GridIncompleteError(runner.quarantined, total=len(cells))
    return summaries
