"""Figure 8: sampling-period sensitivity (§V-C2).

The ``mix`` workload runs under vProbe with the sampling period swept
from 0.1 s to 10 s; the metric is the workload's absolute runtime.
The paper finds a U-shape: short periods suffer from per-period costs
(every partitioning pass preempts and migrates VCPUs, and the greedy
fill of Algorithm 1 can flip marginal assignments period to period,
ping-ponging VCPUs across sockets with cold caches), long periods
suffer from stale memory-access characteristics (phases move a VCPU's
hot slice but the scheduler keeps using last period's affinity).  The
paper picks 1 s; the sweep validates that choice.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.experiments.parallel import ParallelRunner, run_complete
from repro.experiments.scenarios import ScenarioConfig, mix_scenario
from repro.metrics.report import format_table

__all__ = ["FIG8_PERIODS", "Fig8Result", "run"]

#: Sampling periods swept (seconds); the paper's axis is 0.1-10 s.
FIG8_PERIODS: Tuple[float, ...] = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)


@dataclass(frozen=True, slots=True)
class Fig8Result:
    """Runtime of the mix workload per sampling period."""

    periods: Tuple[float, ...]
    runtime_s: Tuple[float, ...]
    scheduler: str

    def best_period(self) -> float:
        """The sampling period with the lowest runtime."""
        idx = min(range(len(self.periods)), key=lambda i: self.runtime_s[i])
        return self.periods[idx]

    def runtime_at(self, period: float) -> float:
        """Runtime measured at one swept period."""
        for p, t in zip(self.periods, self.runtime_s):
            if abs(p - period) < 1e-12:
                return t
        raise KeyError(f"period {period} was not swept")

    def format(self) -> str:
        """Render the sweep as a table."""
        rows = list(zip(self.periods, self.runtime_s))
        return format_table(
            ["sampling period (s)", "mix runtime (s)"], rows, float_fmt="{:.3f}"
        )

    def to_json(self) -> dict:
        """Schema-versioned machine-readable result."""
        from repro.experiments.jsonreport import report

        return report(
            "fig8",
            {
                "scheduler": self.scheduler,
                "periods": list(self.periods),
                "runtime_s": list(self.runtime_s),
                "best_period": self.best_period(),
            },
        )


def run(
    cfg: Optional[ScenarioConfig] = None,
    periods: Sequence[float] = FIG8_PERIODS,
    scheduler: str = "vprobe",
    runner: Optional[ParallelRunner] = None,
) -> Fig8Result:
    """Sweep the sampling period for the mix workload."""
    base = cfg or ScenarioConfig(work_scale=0.25)
    summaries = run_complete(
        [
            (mix_scenario, scheduler, dataclasses.replace(base, sample_period_s=p))
            for p in periods
        ],
        runner,
    )
    runtimes = [
        summary.domain("vm1").mean_finish_time_s or float("nan")
        for summary in summaries
    ]
    return Fig8Result(
        periods=tuple(periods), runtime_s=tuple(runtimes), scheduler=scheduler
    )
