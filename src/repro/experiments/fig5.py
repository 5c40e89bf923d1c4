"""Figure 5: NPB comparison (§V-B2).

Five four-threaded NPB kernels (bt, cg, lu, mg, sp) run identically in
VM1 and VM2 under the five scheduling approaches; VM1 is measured.

Published headline: on sp, vProbe improves 45.2 % over Credit, 15.7 %
over VCPU-P and 9.6 % over LB; LB raises the *total* access count on
bt, lu and sp (it ignores LLC contention) yet still beats VCPU-P
because it preserves locality between sampling periods.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.experiments.comparison import ComparisonResult, WorkloadPoint, run_grid
from repro.experiments.scenarios import ScenarioConfig, npb_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import ParallelRunner

__all__ = ["FIG5_WORKLOADS", "points", "run"]

#: The paper's Fig. 5 x-axis, in order.
FIG5_WORKLOADS: Tuple[str, ...] = ("bt", "cg", "lu", "mg", "sp")


def points(workloads: Sequence[str] = FIG5_WORKLOADS) -> list[WorkloadPoint]:
    """Workload points for the Fig. 5 grid."""
    return [
        WorkloadPoint(name, partial(npb_scenario, name))
        for name in workloads
    ]


def run(
    cfg: Optional[ScenarioConfig] = None,
    workloads: Sequence[str] = FIG5_WORKLOADS,
    schedulers: Optional[Sequence[str]] = None,
    runner: Optional["ParallelRunner"] = None,
) -> ComparisonResult:
    """Run the Fig. 5 grid (``runner`` fans cells across processes)."""
    return run_grid(
        "Figure 5: NPB",
        points(workloads),
        cfg,
        schedulers,
        runner=runner,
    )
