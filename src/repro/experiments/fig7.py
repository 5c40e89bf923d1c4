"""Figure 7: redis under redis-benchmark ``get`` load (§V-B4).

Four redis server instances run in VM1 and VM2; the client sweeps
2 000-10 000 parallel connections.  Unlike Figs. 4-6 the first panel is
*throughput* (operations per second), higher is better.

Published headlines: the best case is 26.0 % over Credit at 2 000
connections; VCPU-P outperforms LB throughout because LLC contention is
redis's dominant degradation factor; BRM lands near Credit.
"""

from __future__ import annotations

from functools import partial

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.experiments.comparison import ComparisonResult, WorkloadPoint, run_grid
from repro.experiments.scenarios import ScenarioConfig, redis_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import ParallelRunner
from repro.metrics.report import format_table
from repro.workloads.services import REDIS_INSTR_PER_OP

__all__ = ["FIG7_CONNECTIONS", "Fig7Result", "points", "run"]

#: The paper's Fig. 7 x-axis: parallel client connections.
FIG7_CONNECTIONS: Tuple[int, ...] = (2000, 4000, 6000, 8000, 10000)


@dataclass(frozen=True, slots=True)
class Fig7Result:
    """Fig. 7 grid plus redis-specific throughput accessors."""

    grid: ComparisonResult

    def throughput(self, workload: str, scheduler: str) -> float:
        """Panel (a): VM1 aggregate ``get`` operations per second."""
        cell = self.grid.cell(workload, scheduler)
        if cell.exec_time_s <= 0:
            return 0.0
        return cell.instructions / REDIS_INSTR_PER_OP / cell.exec_time_s

    def throughput_table(self) -> str:
        """Render the throughput panel."""
        rows = [
            [w] + [self.throughput(w, s) for s in self.grid.schedulers]
            for w in self.grid.workloads
        ]
        return format_table(
            ["connections"] + list(self.grid.schedulers), rows, float_fmt="{:.0f}"
        )

    def format(self) -> str:
        """Render throughput plus the two access panels."""
        return "\n\n".join(
            (
                f"{self.grid.name} (throughput, ops/s)\n{self.throughput_table()}",
                f"{self.grid.name} (normalized total memory accesses)\n"
                f"{self.grid.panel_table('total')}",
                f"{self.grid.name} (normalized remote memory accesses)\n"
                f"{self.grid.panel_table('remote')}",
            )
        )

    def to_json(self) -> dict:
        """Schema-versioned machine-readable result."""
        from repro.experiments.jsonreport import report

        payload = self.grid.to_payload()
        payload["throughput_ops"] = {
            w: {s: self.throughput(w, s) for s in self.grid.schedulers}
            for w in self.grid.workloads
        }
        return report("fig7", payload)


def points(connections: Sequence[int] = FIG7_CONNECTIONS) -> list[WorkloadPoint]:
    """Workload points for the Fig. 7 sweep."""
    return [
        WorkloadPoint(
            f"n={conn}", partial(redis_scenario, conn)
        )
        for conn in connections
    ]


def run(
    cfg: Optional[ScenarioConfig] = None,
    connections: Sequence[int] = FIG7_CONNECTIONS,
    schedulers: Optional[Sequence[str]] = None,
    runner: Optional["ParallelRunner"] = None,
) -> Fig7Result:
    """Run the Fig. 7 sweep (``runner`` fans cells across processes)."""
    grid = run_grid(
        "Figure 7: redis",
        points(connections),
        cfg,
        schedulers,
        runner=runner,
    )
    return Fig7Result(grid=grid)
