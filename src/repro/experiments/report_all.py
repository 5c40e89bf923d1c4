"""Regenerate every table and figure in one command.

``python -m repro.experiments.report_all [args]`` is ``python -m repro
report [args]`` (see :mod:`repro.cli` for the flags).  It runs the
whole evaluation (Figs. 1, 3-9 and Table III plus the ablations) and
writes each rendered table to ``outdir`` (default ``./results``).
``--fast`` uses very small scales for a minutes-long smoke pass; the
default scales match the benchmark harness.  ``--jobs N`` fans each
comparison grid's cells across N worker processes (results are
identical — every cell reruns the same seeded scenario); the default
is one worker per core.

**One result store.**  Every cell a report finishes is stored, fsynced,
the moment it lands: in the cache directory (``--cache-dir`` or
``REPRO_CACHE_DIR``) when one is given, otherwise in
``<outdir>/cells/``, which a fresh run empties first.  A cache
directory is shared across runs, so a warm rerun does no simulation
at all.  SIGINT/SIGTERM exit with code 75
(:data:`~repro.recovery.shutdown.EXIT_RESUMABLE`) after checkpointing
any in-flight serial cell to ``<outdir>/checkpoints/``; relaunching
with ``--resume`` reruns the report against the same store, so every
finished cell is a hit and the final report is byte-identical to an
uninterrupted run.  ``--deadline S`` arms a per-cell wall-clock
deadline: overrunning cells are retried with backoff and eventually
*quarantined* (a tombstone in the store, listed in ``recovery.json``)
instead of failing the report; a resumed run does not retry them.

This is the scripted equivalent of
``pytest benchmarks/ --benchmark-only`` without the timing machinery —
useful on machines where pytest-benchmark is unavailable.
"""

from __future__ import annotations

import pathlib
import shutil
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.experiments import (
    ScenarioConfig,
    ablation,
    fig1,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9_faults,
    table3,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import ResultCache
    from repro.experiments.parallel import ParallelRunner
    from repro.recovery.deadline import DeadlinePolicy
    from repro.recovery.shutdown import GracefulShutdown

__all__ = ["regenerate_all", "main"]

#: Schema of the <outdir>/recovery.json run summary.
RECOVERY_SCHEMA = "repro.recovery-report/v2"


def _jobs(
    fast: bool, runner: "Optional[ParallelRunner]" = None
) -> Tuple[Tuple[str, Callable[[], object]], ...]:
    scale = 0.05 if fast else 0.18
    svc_scale = 0.04 if fast else 0.1
    cfg = lambda ws, seed: ScenarioConfig(work_scale=ws, seed=seed)
    return (
        ("fig1_remote_ratios", lambda: fig1.run(cfg(scale * 0.8, 0), runner=runner)),
        ("fig3_llc_missrate_rpti", lambda: fig3.run(cfg(0.05, 0), runner=runner)),
        ("fig4_spec_cpu2006", lambda: fig4.run(cfg(scale, 1), runner=runner)),
        ("fig5_npb", lambda: fig5.run(cfg(scale, 2), runner=runner)),
        (
            "fig6_memcached",
            lambda: fig6.run(
                cfg(svc_scale, 3), concurrencies=(16, 48, 80, 112), runner=runner
            ),
        ),
        (
            "fig7_redis",
            lambda: fig7.run(
                cfg(scale, 4), connections=(2000, 6000, 10000), runner=runner
            ),
        ),
        ("fig8_sampling_period", lambda: fig8.run(cfg(scale, 0), runner=runner)),
        (
            "fig9_fault_degradation",
            lambda: fig9_faults.run(
                cfg(scale, 0), seeds=3 if fast else 5, runner=runner
            ),
        ),
        ("table3_overhead", lambda: table3.run(cfg(scale, 0), runner=runner)),
        (
            "ablation_dynamic_bounds",
            lambda: ablation.run_bounds_ablation(cfg(scale, 5), runner=runner),
        ),
        (
            "ablation_page_migration",
            lambda: ablation.run_page_migration_ablation(cfg(scale, 5), runner=runner),
        ),
    )


def _write_recovery_report(
    outdir: pathlib.Path,
    runner: "ParallelRunner",
    counters: Dict[str, int],
    job_status: Dict[str, str],
    interrupted: bool,
) -> None:
    """Publish <outdir>/recovery.json (best effort, never fatal)."""
    from repro import __version__
    from repro.obs.manifest import canonical_dumps

    payload = {
        "schema": RECOVERY_SCHEMA,
        "version": __version__,
        "interrupted": interrupted,
        "jobs": job_status,
        "quarantined_cells": [q.to_dict() for q in runner.total_quarantined],
        "counters": counters,
    }
    try:
        (outdir / "recovery.json").write_text(
            canonical_dumps(payload) + "\n", encoding="utf-8"
        )
    except OSError:  # pragma: no cover - defensive
        pass


def regenerate_all(
    outdir: pathlib.Path,
    fast: bool = False,
    only: "tuple[str, ...] | None" = None,
    jobs: int = 1,
    cache: "Optional[ResultCache]" = None,
    resume: bool = False,
    deadline: "DeadlinePolicy | float | None" = None,
    shutdown: "Optional[GracefulShutdown]" = None,
) -> Dict[str, int]:
    """Run every experiment; write one .txt and one .json per result.

    The ``.txt`` is the rendered table (unchanged); the ``.json`` is
    the schema-versioned ``to_json()`` envelope for machine consumers.
    ``only`` optionally restricts to jobs whose name starts with one of
    the given prefixes (used by smoke tests).  Every job runs its cells
    through one shared :class:`~repro.experiments.parallel.ParallelRunner`
    (``jobs > 1`` fans them across worker processes), so hit/miss,
    retry and quarantine counts aggregate across the whole report.

    The run has exactly one result store: ``cache`` when given,
    otherwise ``<outdir>/cells/``, which a fresh run (``resume=False``)
    empties first.  A stored payload round-trips exactly, so the
    ``.json`` outputs of a warm or resumed run are byte-identical to a
    cold one.  ``resume=True`` reruns every job against that store:
    finished cells are hits, and cells an earlier run quarantined stay
    quarantined.  A ``deadline`` policy quarantines pathological cells
    rather than failing the run: the affected *job* is recorded as
    quarantined (its outputs are withheld — a comparison figure cannot
    render with holes) and every other job still completes.  When a
    :class:`~repro.recovery.shutdown.GracefulShutdown` is supplied the
    run stops at a clean point on SIGINT/SIGTERM, writes
    ``recovery.json`` and lets
    :class:`~repro.recovery.shutdown.ShutdownRequested` propagate so
    the CLI can exit with code 75.

    Returns the run's accounting: ``cache_hits`` (store entries that
    existed before this run), ``cache_misses``, ``retried_cells``,
    ``quarantined_cells`` and ``quarantined_jobs``.  A cell that several
    jobs share is resolved once and counted once.
    """
    from repro.cache.store import ResultCache
    from repro.experiments.jsonreport import dump_report
    from repro.experiments.parallel import GridIncompleteError, ParallelRunner

    outdir.mkdir(parents=True, exist_ok=True)
    if cache is None:
        if not resume:
            shutil.rmtree(outdir / "cells", ignore_errors=True)
        cache = ResultCache(outdir / "cells")
    runner = ParallelRunner(
        jobs,
        cache=cache,
        resume=resume,
        deadline=deadline,
        shutdown=shutdown,
        checkpoint_dir=outdir / "checkpoints",
    )
    hits0, misses0 = cache.hits, cache.misses
    job_status: Dict[str, str] = {}

    def accounting() -> Dict[str, Any]:
        return {
            "cache_hits": cache.hits - hits0,
            "cache_misses": cache.misses - misses0,
            "retried_cells": len(runner.total_retried_cells),
        }

    interrupted = False
    try:
        for name, job in _jobs(fast, runner):
            if only is not None and not any(name.startswith(p) for p in only):
                continue
            start = time.perf_counter()
            try:
                result = job()
            except GridIncompleteError as exc:
                job_status[name] = "quarantined"
                print(f"[quarantine] {name}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            text = result.format()
            (outdir / f"{name}.txt").write_text(text + "\n")
            (outdir / f"{name}.json").write_text(dump_report(result.to_json()) + "\n")
            job_status[name] = "done"
            print(f"[{elapsed:7.1f}s] {name}")
            print(text)
            print()
    except BaseException:
        interrupted = True
        raise
    finally:
        _write_recovery_report(outdir, runner, accounting(), job_status, interrupted)
    stats = {
        **accounting(),
        "quarantined_cells": len(runner.total_quarantined),
        "quarantined_jobs": sum(
            1 for s in job_status.values() if s == "quarantined"
        ),
    }
    print(
        f"cache ({cache.root}): {stats['cache_hits']} hits, "
        f"{stats['cache_misses']} misses; "
        f"retried cells: {stats['retried_cells']}"
    )
    if stats["quarantined_cells"]:
        print(
            f"quarantined: {stats['quarantined_cells']} cells "
            f"({stats['quarantined_jobs']} jobs withheld) — see recovery.json"
        )
    return stats


def main(argv: "list[str] | None" = None) -> int:
    """``python -m repro report``, under its historical module name."""
    import sys

    from repro.cli import main as cli_main

    return cli_main(["report", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
