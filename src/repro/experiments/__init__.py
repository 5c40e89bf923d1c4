"""Experiment harness: one module per table/figure of the paper.

=================  ====================================================
Module             Reproduces
=================  ====================================================
``fig1``           §II-B remote-access ratios under Credit (Fig. 1)
``fig3``           §IV-A solo LLC miss rate / RPTI calibration (Fig. 3)
``fig4``           §V-B1 SPEC CPU2006 comparison (Fig. 4a-c)
``fig5``           §V-B2 NPB comparison (Fig. 5a-c)
``fig6``           §V-B3 memcached concurrency sweep (Fig. 6a-c)
``fig7``           §V-B4 redis connection sweep (Fig. 7a-c)
``table3``         §V-C1 overhead-time percentages (Table III)
``fig8``           §V-C2 sampling-period sweep (Fig. 8)
``fig9_faults``    fault-rate sweep: hardened vs naive vProbe vs Credit
                   (robustness extension, not in the paper)
=================  ====================================================
"""

from functools import partial
from typing import Dict, Iterable, Optional

from repro.experiments import (
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
from repro.experiments.comparison import ComparisonResult, WorkloadPoint, run_grid
from repro.experiments.parallel import ParallelRunner, default_jobs
from repro.experiments.runner import (
    MeanStats,
    ScenarioBuilder,
    compare,
    compare_mean,
    execute_cell,
)
from repro.experiments.scenarios import (
    SCHEDULER_NAMES,
    ScenarioConfig,
    make_scheduler,
    memcached_scenario,
    mix_scenario,
    motivation_scenario,
    npb_scenario,
    overhead_scenario,
    redis_scenario,
    solo_scenario,
    spec_scenario,
)

__all__ = [
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9_faults",
    "table3",
    "ablation",
    "ComparisonResult",
    "WorkloadPoint",
    "run_grid",
    "ScenarioBuilder",
    "ScenarioConfig",
    "SCHEDULER_NAMES",
    "make_scheduler",
    "execute_cell",
    "compare",
    "compare_mean",
    "MeanStats",
    "ParallelRunner",
    "default_jobs",
    "quick_comparison",
    "spec_scenario",
    "mix_scenario",
    "npb_scenario",
    "memcached_scenario",
    "redis_scenario",
    "solo_scenario",
    "motivation_scenario",
    "overhead_scenario",
]


def quick_comparison(
    app: str,
    schedulers: Optional[Iterable[str]] = None,
    work_scale: float = 0.05,
    seed: int = 0,
) -> Dict[str, float]:
    """Run one SPEC/NPB workload under several schedulers.

    Returns VM1's mean execution time per scheduler — the quickest way
    to see the headline effect (``vprobe`` < ``credit``).
    """
    from repro.workloads.suites import NPB_PROFILES

    cfg = ScenarioConfig(work_scale=work_scale, seed=seed)
    if app in NPB_PROFILES:
        builder: ScenarioBuilder = partial(npb_scenario, app)
    else:
        builder = partial(spec_scenario, app)
    summaries = compare(builder, cfg, schedulers or ("credit", "vprobe"))
    return {
        name: summary.domain("vm1").mean_finish_time_s or float("nan")
        for name, summary in summaries.items()
    }
