"""Figure 6: memcached under memslap load (§V-B3).

Memcached servers (eight worker ports) run in VM1 and VM2; memslap
drives them with 16-112 concurrent calls.  Panels mirror Fig. 4.

Published headlines: the best case is 31.3 % over Credit at 80
concurrent calls; LB beats VCPU-P at low concurrency (locality
dominates while LLC contention is mild) and the relation flips as
concurrency — and with it the servers' cache footprint — grows.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.experiments.comparison import ComparisonResult, WorkloadPoint, run_grid
from repro.experiments.scenarios import ScenarioConfig, memcached_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import ParallelRunner

__all__ = ["FIG6_CONCURRENCY", "points", "run"]

#: The paper's Fig. 6 x-axis: concurrent memslap calls.
FIG6_CONCURRENCY: Tuple[int, ...] = (16, 32, 48, 64, 80, 96, 112)


def points(concurrencies: Sequence[int] = FIG6_CONCURRENCY) -> list[WorkloadPoint]:
    """Workload points for the Fig. 6 sweep."""
    return [
        WorkloadPoint(
            f"c={conc}", partial(memcached_scenario, conc)
        )
        for conc in concurrencies
    ]


def run(
    cfg: Optional[ScenarioConfig] = None,
    concurrencies: Sequence[int] = FIG6_CONCURRENCY,
    schedulers: Optional[Sequence[str]] = None,
    runner: Optional["ParallelRunner"] = None,
) -> ComparisonResult:
    """Run the Fig. 6 sweep (``runner`` fans cells across processes)."""
    return run_grid(
        "Figure 6: memcached",
        points(concurrencies),
        cfg,
        schedulers,
        runner=runner,
    )
