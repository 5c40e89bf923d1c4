"""The benchmark's workloads and end-to-end metrics.

Shared by the parent (``run.py``) and the per-repeat child (``child.py``).
Importing this module does not import ``repro``: the parent never loads
the package it measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["Workload", "WORKLOADS", "E2E_METRICS"]


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs.

    A *cell* workload builds ``cells`` — ``(scenario builder in
    repro.experiments.scenarios, its bound argument, scheduler)`` — from
    the run's seed and simulates each for ``sim_s`` simulated seconds.
    A *report* workload calls ``regenerate_all(fast=True)`` against a
    fresh (``"cold"``) or already filled (``"warm"``) result cache; its
    grid is fixed, so the seed does not reach it.
    """

    name: str
    why: str
    repeats: int
    cells: Tuple[Tuple[str, object, str], ...] = ()
    work_scale: float = 1.0
    sim_s: Optional[float] = None
    report: Optional[str] = None
    only: Optional[Tuple[str, ...]] = None


# The cell windows stop before the earliest finish seen over 33 seeds
# (soplex loaded 28.9 s, Table III idle 12.4 s simulated), so every
# seed simulates the same number of epochs and host time stays
# comparable across seeds.  Run to completion, the epoch count varies
# by up to 14% (loaded) and 20% (idle) with the seed.
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "cell-loaded",
        "the roadmap's defining loaded cell: SPEC soplex, 24 VCPUs on 8 PCPUs, "
        "vProbe; time goes to the epoch kernel",
        repeats=5,
        cells=(("spec_scenario", "soplex", "vprobe"),),
        sim_s=25.0,
    ),
    Workload(
        "cell-idle",
        "Table III overhead scenario, 1 VM x 2 VCPUs on 8 PCPUs, Credit and "
        "vProbe; idle PCPUs spend the run in the steal path",
        repeats=5,
        cells=(("overhead_scenario", 1, "credit"), ("overhead_scenario", 1, "vprobe")),
        sim_s=11.0,
    ),
    Workload(
        "report-cold",
        "repro report --fast on an empty cache: every scheduler and scenario, "
        "grid dispatch, cache writes and journal appends",
        repeats=3,
        report="cold",
    ),
    Workload(
        "report-warm",
        "repro report --fast on a full cache: no simulation, only cache reads, "
        "journal write-through and report output",
        repeats=5,
        report="warm",
    ),
)

#: (name, unit, better) for every end-to-end metric, in print order.
E2E_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("epochs_per_cpu_s", "epoch/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

