"""Figure 4: SPEC CPU2006 comparison (§V-B1).

Five workloads — four identical-instance workloads (soplex,
libquantum, mcf, milc; mcf split 6/2 between VM1/VM2) plus the
four-application ``mix`` — under the five scheduling approaches.
Panels: normalised execution time, total and remote memory accesses.

Published headline: on soplex, vProbe improves 32.5 % over Credit,
16.6 % over VCPU-P and 10.2 % over LB; BRM lands at or below Credit
despite reducing both access counts (lock contention).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.experiments.comparison import ComparisonResult, WorkloadPoint, run_grid
from repro.experiments.scenarios import ScenarioConfig, mix_scenario, spec_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import ParallelRunner

__all__ = ["FIG4_WORKLOADS", "points", "run"]

#: The paper's Fig. 4 x-axis, in order.
FIG4_WORKLOADS: Tuple[str, ...] = ("soplex", "libquantum", "mcf", "milc", "mix")


def points(workloads: Sequence[str] = FIG4_WORKLOADS) -> list[WorkloadPoint]:
    """Workload points for the Fig. 4 grid."""
    pts = []
    for name in workloads:
        if name == "mix":
            pts.append(WorkloadPoint("mix", mix_scenario))
        else:
            pts.append(
                WorkloadPoint(
                    name, partial(spec_scenario, name)
                )
            )
    return pts


def run(
    cfg: Optional[ScenarioConfig] = None,
    workloads: Sequence[str] = FIG4_WORKLOADS,
    schedulers: Optional[Sequence[str]] = None,
    runner: Optional["ParallelRunner"] = None,
) -> ComparisonResult:
    """Run the Fig. 4 grid (``runner`` fans cells across processes)."""
    return run_grid(
        "Figure 4: SPEC CPU2006",
        points(workloads),
        cfg,
        schedulers,
        runner=runner,
    )
