"""Figure 3: solo LLC miss rate and RPTI per application (§IV-A).

The calibration experiment behind the classification bounds: one VM
with a single VCPU pinned to its local node runs each application
alone; the PMU reports the LLC miss rate (Fig. 3a) and LLC references
per thousand instructions (Fig. 3b).  The paper reads off low = 3 and
high = 20 from the gap between the LLC-FR pair (povray 0.48, ep 2.01),
the LLC-FI pair (lu 15.38, mg 16.33) and the LLC-T pair (milc 21.68,
libquantum 22.41).

Because our profiles are calibrated to those published RPTI values,
this experiment doubles as a model self-check: the measured RPTI must
match the paper to two decimals and each application must classify
into its published category under the default bounds.
"""

from __future__ import annotations

from functools import partial

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.classify import Bounds, classify
from repro.experiments.parallel import ParallelRunner, run_complete
from repro.experiments.scenarios import ScenarioConfig, solo_scenario
from repro.metrics.report import format_table
from repro.xen.vcpu import VcpuType

__all__ = ["FIG3_APPS", "PAPER_RPTI", "Fig3Row", "Fig3Result", "run"]

#: Applications in the paper's Fig. 3, in its order.
FIG3_APPS: Tuple[str, ...] = ("povray", "ep", "lu", "mg", "milc", "libquantum")

#: Published Fig. 3(b) RPTI values (the calibration anchors).
PAPER_RPTI: Dict[str, float] = {
    "povray": 0.48,
    "ep": 2.01,
    "lu": 15.38,
    "mg": 16.33,
    "milc": 21.68,
    "libquantum": 22.41,
}

#: Published classification per application.
PAPER_CLASS: Dict[str, VcpuType] = {
    "povray": VcpuType.LLC_FR,
    "ep": VcpuType.LLC_FR,
    "lu": VcpuType.LLC_FI,
    "mg": VcpuType.LLC_FI,
    "milc": VcpuType.LLC_T,
    "libquantum": VcpuType.LLC_T,
}


@dataclass(frozen=True, slots=True)
class Fig3Row:
    """One application's solo measurements."""

    app: str
    miss_rate: float  #: LLC misses / references (Fig. 3a)
    rpti: float  #: LLC references per kilo-instruction (Fig. 3b)
    vcpu_type: VcpuType  #: classification under the given bounds
    paper_rpti: float  #: published anchor


@dataclass(frozen=True, slots=True)
class Fig3Result:
    """Solo-run calibration table."""

    rows: Tuple[Fig3Row, ...]
    bounds: Bounds

    def format(self) -> str:
        """Render Fig. 3(a)+(b) as one table."""
        table = [
            (r.app, r.miss_rate * 100.0, r.rpti, r.paper_rpti, r.vcpu_type.value)
            for r in self.rows
        ]
        return format_table(
            ["application", "miss rate (%)", "RPTI", "paper RPTI", "class"],
            table,
            float_fmt="{:.2f}",
        )

    def row(self, app: str) -> Fig3Row:
        """Look up one application's row."""
        for r in self.rows:
            if r.app == app:
                return r
        raise KeyError(f"no row for {app!r}")

    def to_json(self) -> dict:
        """Schema-versioned machine-readable result."""
        from repro.experiments.jsonreport import report

        return report(
            "fig3",
            {
                "bounds": {"low": self.bounds.low, "high": self.bounds.high},
                "rows": [
                    {
                        "app": r.app,
                        "miss_rate": r.miss_rate,
                        "rpti": r.rpti,
                        "vcpu_type": r.vcpu_type.value,
                        "paper_rpti": r.paper_rpti,
                    }
                    for r in self.rows
                ],
            },
        )


def run(
    cfg: Optional[ScenarioConfig] = None,
    apps: Sequence[str] = FIG3_APPS,
    bounds: Optional[Bounds] = None,
    runner: Optional[ParallelRunner] = None,
) -> Fig3Result:
    """Run the solo calibration for each application."""
    config = cfg or ScenarioConfig(work_scale=0.05)
    b = bounds or Bounds()
    summaries = run_complete(
        [(partial(solo_scenario, app), "credit", config) for app in apps], runner
    )
    rows = []
    for app, summary in zip(apps, summaries):
        stats = summary.domain("vm1")
        rows.append(
            Fig3Row(
                app=app,
                miss_rate=stats.llc_miss_rate,
                rpti=stats.rpti,
                vcpu_type=classify(stats.rpti, b),
                paper_rpti=PAPER_RPTI.get(app, float("nan")),
            )
        )
    return Fig3Result(rows=tuple(rows), bounds=b)
