"""Ablations beyond the paper's own (VCPU-P / LB are in Figs. 4-7).

Three studies for the design choices DESIGN.md calls out, each a pair
of vProbe variants on the ``mix`` workload:

* **Dynamic bounds** (§VI future work): static Eq. 3 bounds vs the
  quantile-tracking adaptation of :mod:`repro.core.bounds`, on the mix
  workload whose pressure distribution straddles the static bounds.
* **Classification value**: vProbe with the standard classes vs with
  bounds so extreme every VCPU looks LLC-FR (partitioning disabled in
  effect), isolating the value of treating memory-intensive VCPUs
  specially.
* **Page migration** (§VI combined strategy): plain vProbe vs vProbe
  that also migrates the hot pages of forced-remote VCPUs to their
  assigned node, paying the copy cost.

Every variant is a scheduler name that
:func:`~repro.experiments.scenarios.make_scheduler` builds
(``vprobe``, ``vprobe-dynamic-bounds``, ``vprobe-all-friendly``,
``vprobe-page-migration``), so the variants are ordinary grid cells
run through a :class:`~repro.experiments.parallel.ParallelRunner`.
The plain-vProbe baseline the studies share is one cell: a shared
runner with a result store simulates it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.parallel import ParallelRunner, run_complete
from repro.experiments.scenarios import ScenarioConfig, mix_scenario
from repro.metrics.report import format_table

__all__ = [
    "AblationResult",
    "run_bounds_ablation",
    "run_classification_ablation",
    "run_page_migration_ablation",
]


@dataclass(frozen=True, slots=True)
class AblationResult:
    """Mix-workload runtime per ablation variant."""

    runtime_s: Dict[str, float]
    remote_ratio: Dict[str, float]

    def format(self) -> str:
        """Render variants side by side."""
        rows = [
            (name, self.runtime_s[name], self.remote_ratio[name] * 100.0)
            for name in self.runtime_s
        ]
        return format_table(
            ["variant", "mix runtime (s)", "remote (%)"], rows, float_fmt="{:.3f}"
        )

    def to_json(self) -> dict:
        """Schema-versioned machine-readable result."""
        from repro.experiments.jsonreport import report

        return report(
            "ablation",
            {
                "runtime_s": dict(self.runtime_s),
                "remote_ratio": dict(self.remote_ratio),
            },
        )


def _run_study(
    cfg: Optional[ScenarioConfig],
    variants: Dict[str, str],
    runner: Optional[ParallelRunner],
) -> AblationResult:
    """Run each variant label's scheduler on the mix workload."""
    config = cfg or ScenarioConfig(work_scale=0.2)
    summaries = run_complete(
        [(mix_scenario, scheduler, config) for scheduler in variants.values()],
        runner,
    )
    runtime: Dict[str, float] = {}
    remote: Dict[str, float] = {}
    for label, summary in zip(variants, summaries):
        stats = summary.domain("vm1")
        runtime[label] = stats.mean_finish_time_s or float("nan")
        remote[label] = stats.remote_ratio
    return AblationResult(runtime_s=runtime, remote_ratio=remote)


def run_bounds_ablation(
    cfg: Optional[ScenarioConfig] = None,
    runner: Optional[ParallelRunner] = None,
) -> AblationResult:
    """Static vs dynamic classification bounds on the mix workload."""
    return _run_study(
        cfg,
        {"static-bounds": "vprobe", "dynamic-bounds": "vprobe-dynamic-bounds"},
        runner,
    )


def run_page_migration_ablation(
    cfg: Optional[ScenarioConfig] = None,
    runner: Optional[ParallelRunner] = None,
) -> AblationResult:
    """Plain vProbe vs the §VI combined VCPU+page migration strategy."""
    return _run_study(
        cfg,
        {"vcpu-only": "vprobe", "vcpu+page-migration": "vprobe-page-migration"},
        runner,
    )


def run_classification_ablation(
    cfg: Optional[ScenarioConfig] = None,
    runner: Optional[ParallelRunner] = None,
) -> AblationResult:
    """Standard classes vs 'everything looks friendly' bounds.

    With both bounds pushed above any observable pressure, no VCPU is
    ever memory-intensive: partitioning becomes a no-op and only the
    NUMA-aware balancer remains — quantifying what classification buys.
    """
    return _run_study(
        cfg,
        {"standard-classes": "vprobe", "all-friendly": "vprobe-all-friendly"},
        runner,
    )
