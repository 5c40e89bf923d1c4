"""Figure 9 (extension): graceful degradation under telemetry faults.

The paper's evaluation assumes the PMU always tells the truth.  This
sweep asks what each scheduler does when it doesn't: the ``mix``
workload runs with a :class:`~repro.faults.plan.FaultPlan` whose
severity scales with a fault rate ``r`` from 0 to 1, under

* **credit** — never looks at the PMU; its runtime is the flat,
  fault-immune baseline;
* **vprobe** — the paper's scheduler, trusting every sample: corrupted
  counters flip Eq. 3 classifications, so Algorithm 1 migrates VCPUs
  on garbage while dropout starves it of corrections;
* **vprobe-h** — the hardened variant: type hysteresis debounces the
  flips, and once a VCPU's confidence decays below the threshold the
  scheduler reverts to Credit decisions for it.

The expected shape: at ``r=0`` both vProbes beat Credit identically
(hardening costs nothing while telemetry is healthy); as ``r`` grows,
naive vProbe degrades while vProbe-h stays at or below it at every
swept rate, converging toward (not through) the Credit baseline.

Single-seed runtimes of this scenario are chaotic — placement luck
moves a run by up to a second — so every (scheduler, rate) point is
the mean over ``seeds`` paired seeds.  Each (rate, scheduler, seed)
cell is an independent simulation, so the grid fans out on a
:class:`~repro.experiments.parallel.ParallelRunner`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.parallel import ParallelRunner, run_complete
from repro.experiments.scenarios import ScenarioConfig, mix_scenario
from repro.faults.plan import FaultPlan
from repro.metrics.report import format_table

__all__ = [
    "FIG9_RATES",
    "FIG9_SCHEDULERS",
    "FIG9_SEEDS",
    "fault_plan_for_rate",
    "Fig9Result",
    "run",
]

#: Fault-rate sweep: fraction of sampling windows affected.
FIG9_RATES: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Baseline, the paper's scheduler, and the hardened variant.
FIG9_SCHEDULERS: Tuple[str, ...] = ("credit", "vprobe", "vprobe-h")

#: Seeds averaged per sweep point (single seeds are chaotic).
FIG9_SEEDS: int = 10


def fault_plan_for_rate(rate: float) -> FaultPlan:
    """The swept plan: occasional heavy corruption plus some dropout.

    ``rate`` is the probability that a surviving sampling window is
    corrupted with heavy log-normal counter noise (std 2.5 — a wild
    reading, not gentle jitter: real PMU faults are multiplexing
    glitches and overflow, which produce garbage values, not small
    ones).  A fifth of the rate additionally drops windows outright.
    At ``rate=0`` the plan is null and runs are bitwise-identical to
    fault-free ones.
    """
    return FaultPlan(drop_rate=0.2 * rate, noise_std=2.5, noise_rate=rate)


@dataclass(frozen=True, slots=True)
class Fig9Result:
    """Seed-averaged VM1 runtime per (scheduler, fault rate)."""

    rates: Tuple[float, ...]
    schedulers: Tuple[str, ...]
    seeds: int
    #: scheduler -> mean runtime per rate, aligned with ``rates``
    runtime_s: Dict[str, Tuple[float, ...]]
    #: scheduler -> mean injected fault events per rate (0 for credit:
    #: it never opens PMU windows, so there is nothing to drop)
    fault_events: Dict[str, Tuple[float, ...]]

    def runtime(self, scheduler: str, rate: float) -> float:
        """Mean runtime of one point of the sweep."""
        for r, t in zip(self.rates, self.runtime_s[scheduler]):
            if abs(r - rate) < 1e-12:
                return t
        raise KeyError(f"rate {rate} was not swept")

    def format(self) -> str:
        """Render the sweep as a table, one row per fault rate."""
        headers = ["fault rate"] + [f"{s} runtime (s)" for s in self.schedulers]
        rows = []
        for i, rate in enumerate(self.rates):
            rows.append(
                [rate] + [self.runtime_s[s][i] for s in self.schedulers]
            )
        table = format_table(headers, rows, float_fmt="{:.3f}")
        return f"{table}\n(mean over {self.seeds} seeds per point)"

    def to_json(self) -> dict:
        """Schema-versioned machine-readable result."""
        from repro.experiments.jsonreport import report

        return report(
            "fig9",
            {
                "rates": list(self.rates),
                "schedulers": list(self.schedulers),
                "seeds": self.seeds,
                "runtime_s": {s: list(t) for s, t in self.runtime_s.items()},
                "fault_events": {s: list(t) for s, t in self.fault_events.items()},
            },
        )


def _seed_mean(values: Sequence[float]) -> float:
    """Mean over paired seeds, summed left to right from 0.0: the same
    bits on every Python version (the builtin ``sum`` of floats is
    compensated from 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def run(
    cfg: Optional[ScenarioConfig] = None,
    rates: Sequence[float] = FIG9_RATES,
    schedulers: Sequence[str] = FIG9_SCHEDULERS,
    seeds: int = FIG9_SEEDS,
    runner: Optional[ParallelRunner] = None,
) -> Fig9Result:
    """Sweep fault rates across schedulers on the ``mix`` workload.

    Each sweep point averages ``seeds`` runs seeded ``cfg.seed + i``;
    the same seeds pair across schedulers and rates.
    """
    base = cfg or ScenarioConfig(work_scale=0.25)
    cells = []
    for rate in rates:
        plan = fault_plan_for_rate(rate)
        for name in schedulers:
            for i in range(seeds):
                config = dataclasses.replace(
                    base,
                    seed=base.seed + i,
                    faults=None if plan.is_null() else plan,
                    label=f"fig9 mix faults={rate:g} seed={base.seed + i}",
                )
                cells.append((mix_scenario, name, config))
    summaries = run_complete(cells, runner)
    runtime: Dict[str, list] = {name: [] for name in schedulers}
    events: Dict[str, list] = {name: [] for name in schedulers}
    at = 0
    for _rate in rates:
        for name in schedulers:
            group = summaries[at : at + seeds]
            at += seeds
            runtime[name].append(
                _seed_mean([s.domain("vm1").mean_finish_time_s for s in group])
            )
            events[name].append(
                _seed_mean(
                    [s.fault_stats.total_events if s.fault_stats else 0 for s in group]
                )
            )
    return Fig9Result(
        rates=tuple(rates),
        schedulers=tuple(schedulers),
        seeds=seeds,
        runtime_s={k: tuple(v) for k, v in runtime.items()},
        fault_events={k: tuple(v) for k, v in events.items()},
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point; ``--smoke`` runs a seconds-scale CI check."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=FIG9_SEEDS)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload and a coarse rate grid (CI smoke run)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        cfg = ScenarioConfig(work_scale=0.02, seed=args.seed, max_time_s=30.0)
        rates: Sequence[float] = (0.0, 0.5, 1.0)
        seeds = 2
    else:
        cfg = ScenarioConfig(work_scale=args.work_scale, seed=args.seed)
        rates = FIG9_RATES
        seeds = args.seeds
    result = run(cfg, rates=rates, seeds=seeds, runner=ParallelRunner(args.jobs))
    print(result.format())


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
