"""Differential scenario fuzzing across the two engines.

The engine-parity contract says reference and batched runs of the same
scenario are *bitwise identical*.  The unit suite checks that
on a handful of hand-picked scenarios; this module generates seeded
random ones — topologies beyond the paper's 2x4, mixed application
profiles, fault presets, mid-run domain churn — and runs each under
both engines with every runtime invariant enabled
(:mod:`repro.audit.invariants`), then diffs the canonical
:class:`~repro.metrics.collectors.RunSummary` JSON.

A scenario is a frozen, JSON-round-trippable description
(:class:`FuzzScenario`), so any failure can be shrunk
(:mod:`repro.audit.shrink`) and committed as a literal in a regression
test.  Workload RNG streams are keyed by *structural* slot tags
(``d{i}.v{j}``), never by domain display names, so renaming domains
replays the same draws — the property the metamorphic relabeling
relation (:mod:`repro.audit.metamorphic`) relies on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.audit.invariants import InvariantChecker, InvariantViolation
from repro.experiments.scenarios import ScenarioConfig, build_machine, make_scheduler
from repro.faults.plan import DomainCrash, FaultPlan, fault_preset
from repro.hardware.topology import GIB, symmetric_topology
from repro.metrics.collectors import summarize
from repro.obs.manifest import canonical_dumps
from repro.util.rng import RngStreams
from repro.workloads.appmodel import VcpuWorkload
from repro.workloads.generators import scaled_profile
from repro.workloads.suites import get_profile, hungry_loop
from repro.xen.domain import Domain
from repro.xen.memalloc import place_interleaved, place_single_node, place_split

__all__ = [
    "ENGINES",
    "FuzzScenario",
    "DifferentialResult",
    "generate_scenario",
    "build_fuzz_machine",
    "run_differential",
]

#: The engine-parity set; the first entry is the diff baseline.
ENGINES: Tuple[str, ...] = ("reference", "batched")

#: Topologies worth fuzzing: the paper's 2x4 plus smaller/odd shapes
#: that exercise single-node degenerate paths and >2-node scan orders.
#: The batched engine exists only for two-node hosts, so the non-dual
#: shapes run the reference loop on both sides of the diff: they check
#: scheduler invariants, while the fused replay's differential coverage
#: comes from the 2-node draws (as it always did).
_TOPOLOGIES: Tuple[Tuple[int, int], ...] = ((2, 4), (2, 2), (1, 4), (3, 2), (4, 2))

#: Application pool spanning the type space: memory-intensive SPEC
#: (soplex/libquantum/mcf/milc), cache-friendly (povray/gcc), NPB
#: kernels (ep/lu/mg) and the pure CPU hungry loop.
_PROFILES: Tuple[str, ...] = (
    "povray",
    "soplex",
    "libquantum",
    "mcf",
    "milc",
    "ep",
    "lu",
    "mg",
    "gcc",
    "hungry",
)

#: Every scheduler the repo ships, including the hardened variant.
_SCHEDULERS: Tuple[str, ...] = ("credit", "vprobe", "vprobe-h", "vcpu-p", "lb", "brm")

#: Fault environments; "none" is over-weighted so most scenarios probe
#: the clean engine contract, and "churn" is the custom mid-run
#: crash-and-restart of domain 0 (the presets' crash targets "vm2",
#: which a generated scenario need not contain).
_FAULTS: Tuple[str, ...] = (
    "none",
    "none",
    "none",
    "drop50",
    "drop100",
    "noisy",
    "saturate",
    "stall",
    "churn",
)


@dataclass(frozen=True)
class FuzzScenario:
    """One generated scenario, fully described by plain values.

    Frozen and JSON-round-trippable (:meth:`to_dict` /
    :meth:`from_dict`) so shrunken failures can be embedded as literals
    in regression tests.  Per-domain sequences (``profiles``,
    ``vcpus``, ``active``, ``placements``) are index-aligned; a
    placement is ``"split"``, ``"interleaved"`` or ``"node<J>"``.
    """

    seed: int
    num_nodes: int = 2
    pcpus_per_node: int = 4
    scheduler: str = "vprobe"
    profiles: Tuple[str, ...] = ("soplex",)
    vcpus: Tuple[int, ...] = (4,)
    active: Tuple[int, ...] = (4,)
    placements: Tuple[str, ...] = ("split",)
    work_scale: float = 0.05
    sample_period_s: float = 0.5
    max_time_s: float = 0.8
    fault: str = "none"
    churn_at_s: float = 0.0
    churn_downtime_s: float = 0.2

    def __post_init__(self) -> None:
        n = len(self.profiles)
        for name in ("vcpus", "active", "placements"):
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"{name} has {len(getattr(self, name))} entries "
                    f"for {n} domains"
                )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (tuples become lists)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzScenario":
        """Rebuild from :meth:`to_dict` output (lists become tuples)."""
        fixed = dict(data)
        for name in ("profiles", "vcpus", "active", "placements"):
            fixed[name] = tuple(fixed[name])
        return cls(**fixed)


def generate_scenario(seed: int) -> FuzzScenario:
    """Draw one scenario from the seeded distribution.

    The same ``seed`` always yields the same scenario; the generator
    stream is decoupled from the simulation seed (which is ``seed``
    itself) so scenario shape and run randomness vary independently.
    """
    rng = np.random.default_rng(np.uint64(seed) + np.uint64(0x5EED))
    num_nodes, per_node = _TOPOLOGIES[int(rng.integers(len(_TOPOLOGIES)))]
    total_pcpus = num_nodes * per_node

    placements_pool = ["split", "interleaved"] + [
        f"node{j}" for j in range(num_nodes)
    ]
    profiles: List[str] = []
    vcpus: List[int] = []
    active: List[int] = []
    placements: List[str] = []
    for _ in range(int(rng.integers(1, 4))):
        profiles.append(_PROFILES[int(rng.integers(len(_PROFILES)))])
        nv = int(rng.integers(1, min(8, total_pcpus) + 1))
        vcpus.append(nv)
        active.append(int(rng.integers(1, nv + 1)))
        placements.append(placements_pool[int(rng.integers(len(placements_pool)))])

    max_time_s = float((0.6, 0.9, 1.2)[int(rng.integers(3))])
    fault = _FAULTS[int(rng.integers(len(_FAULTS)))]
    return FuzzScenario(
        seed=seed,
        num_nodes=num_nodes,
        pcpus_per_node=per_node,
        scheduler=_SCHEDULERS[int(rng.integers(len(_SCHEDULERS)))],
        profiles=tuple(profiles),
        vcpus=tuple(vcpus),
        active=tuple(active),
        placements=tuple(placements),
        work_scale=float((0.02, 0.05, 0.1)[int(rng.integers(3))]),
        sample_period_s=float((0.25, 0.5, 1.0)[int(rng.integers(3))]),
        max_time_s=max_time_s,
        fault=fault,
        churn_at_s=round(0.4 * max_time_s, 3) if fault == "churn" else 0.0,
    )


def _placement(kind: str, num_slices: int, num_nodes: int):
    if kind == "split":
        return place_split(num_slices, num_nodes)
    if kind == "interleaved":
        return place_interleaved(num_slices, num_nodes)
    if kind.startswith("node"):
        return place_single_node(num_slices, num_nodes, node=int(kind[4:]) % num_nodes)
    raise ValueError(f"unknown placement kind {kind!r}")


def _fault_plan(scenario: FuzzScenario, names: Sequence[str]) -> Optional[FaultPlan]:
    if scenario.fault == "none":
        return None
    if scenario.fault == "churn":
        return FaultPlan(
            crashes=(
                DomainCrash(
                    names[0],
                    at_time_s=scenario.churn_at_s,
                    downtime_s=scenario.churn_downtime_s,
                ),
            )
        )
    return fault_preset(scenario.fault)


def default_names(n: int) -> List[str]:
    """The domain names a scenario gets unless the caller renames them."""
    return [f"vm{i + 1}" for i in range(n)]


def build_fuzz_machine(
    scenario: FuzzScenario,
    engine: str,
    names: Optional[Sequence[str]] = None,
    work_scale: Optional[float] = None,
):
    """Assemble the machine for one scenario under one engine.

    ``names`` renames the domains (metamorphic relabeling); the
    workload RNG streams stay keyed by structural slot tags, so renamed
    runs replay the exact same draws.  ``work_scale`` overrides the
    scenario's scale (metamorphic work doubling).
    """
    if names is None:
        names = default_names(len(scenario.profiles))
    scale = scenario.work_scale if work_scale is None else work_scale
    topo = symmetric_topology(scenario.num_nodes, scenario.pcpus_per_node)
    cfg = ScenarioConfig(
        work_scale=scale,
        seed=scenario.seed,
        sample_period_s=scenario.sample_period_s,
        max_time_s=scenario.max_time_s,
        engine=engine,
        faults=_fault_plan(scenario, names),
        # Generosity, not slack: a fuzz scenario must never spin.
        max_epochs=4 * int(round(scenario.max_time_s / 1e-3)) + 64,
        label=f"fuzz-{scenario.seed}",
    )
    rng = RngStreams(cfg.seed)
    domains = []
    for i, pname in enumerate(scenario.profiles):
        if pname == "hungry":
            profile = hungry_loop()
        else:
            profile = scaled_profile(get_profile(pname), scale)
        nv, na = scenario.vcpus[i], scenario.active[i]
        workloads = [
            VcpuWorkload(
                profile,
                rng.get(f"d{i}.v{j}"),
                slice_id=j,
                num_slices=nv,
                active=j < na,
            )
            for j in range(nv)
        ]
        domains.append(
            Domain(
                names[i],
                (1 + i) * GIB,
                _placement(scenario.placements[i], nv, scenario.num_nodes),
                workloads,
            )
        )
    return build_machine(make_scheduler(scenario.scheduler), cfg, domains, topo)


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of one scenario run under every engine.

    ``kind`` is ``"ok"``, ``"invariant"`` (an
    :class:`~repro.audit.invariants.InvariantViolation` fired),
    ``"divergence"`` (engines disagree on the canonical summary) or
    ``"error"`` (a run crashed outright — also a finding).  ``engine``
    names the offender, ``detail`` carries the violation message or the
    first differing region of the summaries.
    """

    scenario: FuzzScenario
    ok: bool
    kind: str
    engine: Optional[str] = None
    detail: str = ""
    checks_run: int = 0
    summaries: Dict[str, str] = field(default_factory=dict, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (summaries omitted: they are large)."""
        return {
            "scenario": self.scenario.to_dict(),
            "ok": self.ok,
            "kind": self.kind,
            "engine": self.engine,
            "detail": self.detail,
            "checks_run": self.checks_run,
        }


def _first_difference(a: str, b: str, context: int = 60) -> str:
    """Locate and excerpt the first differing region of two strings."""
    limit = min(len(a), len(b))
    idx = limit
    for i in range(limit):
        if a[i] != b[i]:
            idx = i
            break
    lo = max(0, idx - context)
    return (
        f"first difference at char {idx}: "
        f"...{a[lo:idx + context]!r} != ...{b[lo:idx + context]!r}"
    )


def run_differential(
    scenario: FuzzScenario,
    engines: Sequence[str] = ENGINES,
    every: int = 1,
    invariants: Optional[Sequence[str]] = None,
) -> DifferentialResult:
    """Run one scenario under each engine, invariants on, and diff.

    Invariants default to *all* of them at every boundary
    (``every=1``); the summaries are compared in canonical JSON with
    the wall-clock profile excluded (``to_dict(include_profile=False)``
    is the engine-parity comparison form).
    """
    texts: Dict[str, str] = {}
    checks = 0
    for engine in engines:
        checker = InvariantChecker(enabled=invariants, every=every)
        try:
            machine = build_fuzz_machine(scenario, engine)
            machine.run(audit=checker)
        except InvariantViolation as exc:
            return DifferentialResult(
                scenario,
                ok=False,
                kind="invariant",
                engine=engine,
                detail=str(exc),
                checks_run=checks + checker.checks_run,
            )
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            return DifferentialResult(
                scenario,
                ok=False,
                kind="error",
                engine=engine,
                detail=f"{type(exc).__name__}: {exc}",
                checks_run=checks + checker.checks_run,
            )
        checks += checker.checks_run
        texts[engine] = canonical_dumps(
            summarize(machine).to_dict(include_profile=False)
        )

    base = engines[0]
    for engine in engines[1:]:
        if texts[engine] != texts[base]:
            return DifferentialResult(
                scenario,
                ok=False,
                kind="divergence",
                engine=engine,
                detail=(
                    f"{engine} summary differs from {base}: "
                    + _first_difference(texts[base], texts[engine])
                ),
                checks_run=checks,
                summaries=texts,
            )
    return DifferentialResult(
        scenario, ok=True, kind="ok", checks_run=checks, summaries=texts
    )
