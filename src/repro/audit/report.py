"""The ``repro audit`` run: fuzz, check relations, shrink, report.

:func:`run_audit` drives the whole audit campaign — seeded
differential scenarios (:mod:`repro.audit.fuzz`) plus metamorphic
relations (:mod:`repro.audit.metamorphic`), with every failure shrunk
to a minimal repro (:mod:`repro.audit.shrink`) — and packages the
outcome as a ``repro.audit/v1`` JSON report, validated by the same
mini-validator as traces and experiment reports
(:func:`repro.obs.schema.validate_audit_report`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit.fuzz import (
    ENGINES,
    DifferentialResult,
    generate_scenario,
    run_differential,
)
from repro.audit.metamorphic import MetamorphicResult, run_metamorphic
from repro.audit.shrink import repro_source, shrink
from repro.obs.manifest import canonical_dumps
from repro.obs.schema import AUDIT_SCHEMA

__all__ = ["AuditFailure", "AuditReport", "run_audit"]


@dataclass(frozen=True)
class AuditFailure:
    """One fuzzer finding: the original failure, its shrunken form and
    a ready-to-commit pytest repro."""

    original: DifferentialResult
    shrunk: DifferentialResult
    repro: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {
            "original": self.original.to_dict(),
            "shrunk": self.shrunk.to_dict(),
            "repro": self.repro,
        }


@dataclass(frozen=True)
class AuditReport:
    """Everything one audit campaign produced."""

    seeds: Tuple[int, ...]
    engines: Tuple[str, ...]
    results: Tuple[DifferentialResult, ...]
    metamorphic: Tuple[Tuple[int, MetamorphicResult], ...]
    failures: Tuple[AuditFailure, ...]
    checks_run: int
    elapsed_s: float
    budget_exhausted: bool = False
    skipped_seeds: Tuple[int, ...] = field(default=())

    @property
    def engine_comparisons(self) -> int:
        """Scenario runs diffed across engines (non-dual hosts have none)."""
        return sum(r.comparisons for r in self.results)

    @property
    def ok(self) -> bool:
        """True when every scenario and relation held."""
        return all(r.ok for r in self.results) and all(
            m.ok for _, m in self.metamorphic
        )

    def to_dict(self) -> Dict[str, Any]:
        """The ``repro.audit/v1`` report envelope."""
        return {
            "schema": AUDIT_SCHEMA,
            "kind": "audit",
            "payload": {
                "ok": self.ok,
                "seeds": list(self.seeds),
                "engines": list(self.engines),
                "checks_run": self.checks_run,
                "engine_comparisons": self.engine_comparisons,
                "elapsed_s": self.elapsed_s,
                "budget_exhausted": self.budget_exhausted,
                "skipped_seeds": list(self.skipped_seeds),
                "results": [r.to_dict() for r in self.results],
                "metamorphic": [
                    dict(m.to_dict(), seed=seed) for seed, m in self.metamorphic
                ],
                "failures": [f.to_dict() for f in self.failures],
            },
        }

    def to_json(self) -> str:
        """Canonical JSON text of :meth:`to_dict`."""
        return canonical_dumps(self.to_dict())


def run_audit(
    seeds: int = 25,
    budget_s: Optional[float] = None,
    base_seed: int = 0,
    engines: Sequence[str] = ENGINES,
    metamorphic: bool = True,
    shrink_failures: bool = True,
    invariants: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> AuditReport:
    """Run the audit campaign.

    Parameters
    ----------
    seeds:
        Number of generated scenarios (seeds ``base_seed ..
        base_seed+seeds-1``).
    budget_s:
        Optional wall-clock budget; when exceeded, remaining seeds are
        skipped and the report says so (``budget_exhausted``) instead
        of silently passing on less coverage.
    engines:
        Engines to diff (first is the baseline).
    metamorphic:
        Also run the metamorphic relations on every third scenario
        (they cost several extra runs each).
    shrink_failures:
        Shrink each differential failure to a minimal repro.
    invariants:
        Restrict runtime invariants to this subset (default: all).
    progress:
        Optional callback receiving one line per scenario.
    """
    start = time.monotonic()
    results: List[DifferentialResult] = []
    failures: List[AuditFailure] = []
    relations: List[Tuple[int, MetamorphicResult]] = []
    skipped: List[int] = []
    checks = 0
    exhausted = False

    for i in range(seeds):
        seed = base_seed + i
        if budget_s is not None and time.monotonic() - start > budget_s:
            exhausted = True
            skipped.append(seed)
            continue
        scenario = generate_scenario(seed)
        result = run_differential(scenario, engines=engines, invariants=invariants)
        checks += result.checks_run
        results.append(result)
        if progress is not None:
            progress(
                f"seed {seed}: {result.kind}"
                + (f" on {result.engine}" if result.engine else "")
                + f" ({scenario.scheduler}, {scenario.num_nodes}x"
                f"{scenario.pcpus_per_node}, fault={scenario.fault})"
            )
        if not result.ok:
            shrunk = (
                shrink(result)
                if shrink_failures
                else result
            )
            failures.append(
                AuditFailure(
                    original=result,
                    shrunk=shrunk,
                    repro=repro_source(shrunk, f"test_fuzz_repro_seed_{seed}"),
                )
            )
            continue
        if metamorphic and i % 3 == 0:
            for rel in run_metamorphic(scenario):
                relations.append((seed, rel))
                if progress is not None and not rel.ok:
                    progress(f"seed {seed}: metamorphic {rel.relation} FAILED")

    return AuditReport(
        seeds=tuple(range(base_seed, base_seed + seeds)),
        engines=tuple(engines),
        results=tuple(results),
        metamorphic=tuple(relations),
        failures=tuple(failures),
        checks_run=checks,
        elapsed_s=time.monotonic() - start,
        budget_exhausted=exhausted,
        skipped_seeds=tuple(skipped),
    )
