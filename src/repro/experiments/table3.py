"""Table III: vProbe's overhead time (§V-C1).

One to four VMs, each with 2 VCPUs and two soplex instances, run under
vProbe; the measured quantity is the percentage of "overhead time" —
PMU collection around context switches and 10 ms refreshes plus the
periodic partitioning pass — relative to guest busy time.

The paper reports 0.008-0.016 %, rising with VM count but *dipping* at
4 VMs: with 8 VCPUs on 8 PCPUs nothing queues, so context switches
(and with them collection events) become rare.  The reproduction
tracks both the magnitude (well under 0.1 %) and that shape.
"""

from __future__ import annotations

from functools import partial

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.parallel import ParallelRunner, run_complete
from repro.experiments.scenarios import ScenarioConfig, overhead_scenario
from repro.metrics.report import format_table

__all__ = ["TABLE3_VM_COUNTS", "Table3Result", "run", "PAPER_OVERHEAD_PCT"]

#: VM counts of the paper's Table III.
TABLE3_VM_COUNTS: Tuple[int, ...] = (1, 2, 3, 4)

#: Published "overhead time" percentages.
PAPER_OVERHEAD_PCT: Dict[int, float] = {
    1: 0.00847,
    2: 0.01206,
    3: 0.01619,
    4: 0.01062,
}


@dataclass(frozen=True, slots=True)
class Table3Result:
    """Overhead-time percentage per VM count."""

    vm_counts: Tuple[int, ...]
    overhead_pct: Tuple[float, ...]
    breakdown: Tuple[Dict[str, float], ...]  #: per-source seconds

    def overhead_at(self, num_vms: int) -> float:
        """Overhead percentage measured for a VM count."""
        for n, pct in zip(self.vm_counts, self.overhead_pct):
            if n == num_vms:
                return pct
        raise KeyError(f"vm count {num_vms} was not measured")

    def format(self) -> str:
        """Render the table with the paper's values alongside."""
        rows = [
            (n, pct, PAPER_OVERHEAD_PCT.get(n, float("nan")))
            for n, pct in zip(self.vm_counts, self.overhead_pct)
        ]
        return format_table(
            ["VMs", "overhead time (%)", "paper (%)"], rows, float_fmt="{:.5f}"
        )

    def to_json(self) -> dict:
        """Schema-versioned machine-readable result."""
        from repro.experiments.jsonreport import report

        return report(
            "table3",
            {
                "vm_counts": list(self.vm_counts),
                "overhead_pct": list(self.overhead_pct),
                "paper_overhead_pct": {
                    str(n): PAPER_OVERHEAD_PCT[n] for n in self.vm_counts
                },
                "breakdown_s": [dict(b) for b in self.breakdown],
            },
        )


def run(
    cfg: Optional[ScenarioConfig] = None,
    vm_counts: Sequence[int] = TABLE3_VM_COUNTS,
    scheduler: str = "vprobe",
    runner: Optional[ParallelRunner] = None,
) -> Table3Result:
    """Measure vProbe's overhead-time percentage per VM count."""
    config = cfg or ScenarioConfig(work_scale=0.1)
    summaries = run_complete(
        [(partial(overhead_scenario, n), scheduler, config) for n in vm_counts],
        runner,
    )
    pcts = []
    breakdowns = []
    for summary in summaries:
        stats = summary.machine_stats
        pcts.append(stats.overhead_fraction * 100.0)
        breakdowns.append(dict(stats.overhead_s))
    return Table3Result(
        vm_counts=tuple(vm_counts),
        overhead_pct=tuple(pcts),
        breakdown=tuple(breakdowns),
    )
