"""Experiment runner: paired runs across scheduling approaches.

Every comparison in the paper holds the workload fixed and swaps the
scheduler.  The runner reproduces that pairing: all schedulers see the
same scenario built from the same seed, so workload randomness (phase
changes, service bursts) is identical across policies and differences
are attributable to scheduling alone.

:func:`execute_cell` runs one (builder, scheduler, config) cell and is
all a worker process ever executes.  :func:`compare` and
:func:`compare_mean` lay out paired cells and hand them to a
:class:`~repro.experiments.parallel.ParallelRunner` — the one place
that resolves cells from the journal or cache, runs them and stores
the results.  Without a ``runner`` they get a fresh serial, uncached
one.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence

from repro.experiments.scenarios import (
    SCHEDULER_NAMES,
    ScenarioConfig,
    make_scheduler,
)
from repro.metrics.collectors import RunSummary, summarize
from repro.xen.credit import SchedulerPolicy
from repro.xen.simulator import Machine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import ParallelRunner

__all__ = [
    "ScenarioBuilder",
    "execute_cell",
    "compare",
    "compare_mean",
    "aggregate_mean_stats",
    "MeanStats",
]

#: A scenario builder: (policy, config) -> ready-to-run machine.
ScenarioBuilder = Callable[[SchedulerPolicy, ScenarioConfig], Machine]


def execute_cell(
    builder: ScenarioBuilder,
    scheduler: str,
    cfg: ScenarioConfig,
    audit: object = None,
) -> RunSummary:
    """Build and run one scenario under one scheduler, cache-blind.

    This is the function worker processes execute: it never touches a
    cache (the parent resolves hits and stores results), so workers
    need no shared state beyond the picklable cell itself.

    ``audit`` attaches a runtime invariant checker
    (:class:`~repro.audit.invariants.InvariantChecker`, or ``True``
    for the default one) for the whole run; checks are read-only, so
    the summary is bitwise what it is without them.
    """
    policy = make_scheduler(scheduler)
    machine = builder(policy, cfg)
    machine.run(audit=audit)
    return summarize(machine)


def _default_runner(runner: Optional["ParallelRunner"]) -> "ParallelRunner":
    if runner is not None:
        return runner
    from repro.experiments.parallel import ParallelRunner

    return ParallelRunner()


def compare(
    builder: ScenarioBuilder,
    cfg: ScenarioConfig,
    schedulers: Optional[Iterable[str]] = None,
    runner: Optional["ParallelRunner"] = None,
) -> Dict[str, Optional[RunSummary]]:
    """Run the same scenario under several schedulers (paired seeds).

    Returns summaries keyed by scheduler name, in the requested order.
    A cell the runner quarantined maps its scheduler to ``None`` (only
    possible when deadlines or epoch caps are in play).
    """
    names = tuple(schedulers) if schedulers is not None else SCHEDULER_NAMES
    summaries = _default_runner(runner).run_cells(
        [(builder, name, cfg) for name in names]
    )
    return dict(zip(names, summaries))


@dataclasses.dataclass(frozen=True, slots=True)
class MeanStats:
    """Seed-averaged headline metrics for one scheduler."""

    scheduler: str
    seeds: int
    mean_runtime_s: float
    stdev_runtime_s: float
    mean_remote_ratio: float

    @property
    def relative_stdev(self) -> float:
        """Runtime noise level (stdev over mean; 0 for one seed)."""
        if self.mean_runtime_s <= 0:
            return 0.0
        return self.stdev_runtime_s / self.mean_runtime_s


def compare_mean(
    builder: ScenarioBuilder,
    cfg: ScenarioConfig,
    schedulers: Optional[Iterable[str]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    domain: str = "vm1",
    runner: Optional["ParallelRunner"] = None,
) -> Dict[str, MeanStats]:
    """Seed-averaged comparison: smooths initial-placement luck.

    Every scheduler sees every seed (fully paired): the whole (seed x
    scheduler) product goes to the runner at once, each cell's config
    carrying its seed.  Quarantined cells drop out of the averages.
    Use for reporting; single-seed :func:`compare` remains the right
    tool when the full :class:`RunSummary` is needed.
    """
    if not seeds:
        raise ValueError("at least one seed required")
    names = tuple(schedulers) if schedulers is not None else SCHEDULER_NAMES
    cells = []
    for seed in seeds:
        seeded = dataclasses.replace(cfg, seed=seed)
        cells.extend((builder, name, seeded) for name in names)
    summaries = _default_runner(runner).run_cells(cells)
    return aggregate_mean_stats(names, seeds, summaries, domain)


def aggregate_mean_stats(
    names: Sequence[str],
    seeds: Sequence[int],
    summaries: Sequence[Optional[RunSummary]],
    domain: str = "vm1",
) -> Dict[str, MeanStats]:
    """Fold flat run summaries into per-scheduler :class:`MeanStats`.

    ``summaries`` must be in seed-major, scheduler-minor order — the
    order :func:`compare_mean` lays its cells out in.
    ``None`` entries (cells the runner quarantined) drop out
    of that scheduler's averages; :attr:`MeanStats.seeds` reports the
    seeds that actually contributed.  A scheduler with *no* surviving
    cells gets NaN means so downstream tables render visibly rather
    than crash.
    """
    if len(summaries) != len(seeds) * len(names):
        raise ValueError(
            f"expected {len(seeds) * len(names)} summaries, got {len(summaries)}"
        )
    runtimes: Dict[str, List[float]] = {n: [] for n in names}
    remotes: Dict[str, List[float]] = {n: [] for n in names}
    it = iter(summaries)
    for _seed in seeds:
        for name in names:
            summary = next(it)
            if summary is None:
                continue
            stats = summary.domain(domain)
            runtimes[name].append(stats.mean_finish_time_s or float("nan"))
            remotes[name].append(stats.remote_ratio)
    return {
        name: MeanStats(
            scheduler=name,
            seeds=len(runtimes[name]),
            mean_runtime_s=(
                statistics.fmean(runtimes[name]) if runtimes[name] else float("nan")
            ),
            stdev_runtime_s=(
                statistics.stdev(runtimes[name])
                if len(runtimes[name]) > 1
                else 0.0
            ),
            mean_remote_ratio=(
                statistics.fmean(remotes[name]) if remotes[name] else float("nan")
            ),
        )
        for name in names
    }
