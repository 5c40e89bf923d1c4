"""Simulation audit subsystem: runtime invariants + differential fuzzing.

Two complementary layers of defence for the engine-parity and
correctness contracts:

* :mod:`repro.audit.invariants` — cheap, toggleable runtime assertions
  checked at epoch and sample-period boundaries inside a live run
  (credit conservation, placement uniqueness, work conservation, PMU
  sanity, Algorithm-1 even spread, Algorithm-2 steal locality).
  Attach with ``machine.run(audit=True)`` or
  ``execute_cell(..., audit=InvariantChecker(...))``.
* :mod:`repro.audit.fuzz` / :mod:`repro.audit.metamorphic` — seeded
  random scenarios run under both engines with invariants on, their
  summaries, RNG and LLC warmth end states diffed, plus metamorphic
  relations (relabel, work-scale doubling, restricted node permutation).
* :mod:`repro.audit.shrink` — delta-debugging of failures into minimal
  scenarios emitted as ready-to-commit pytest repros.
* :mod:`repro.audit.report` — the ``repro audit`` campaign driver and
  its ``repro.audit/v1`` JSON report.
"""

from repro.audit.fuzz import (
    ENGINES,
    DifferentialResult,
    FuzzScenario,
    build_fuzz_machine,
    generate_scenario,
    rng_states,
    run_differential,
    warmth_tables,
)
from repro.audit.invariants import (
    INVARIANT_NAMES,
    InvariantChecker,
    InvariantViolation,
    state_digest,
)
from repro.audit.metamorphic import (
    MetamorphicResult,
    NodePermSpec,
    check_node_permutation,
    check_relabel,
    check_work_scale,
    generate_node_perm_spec,
    run_metamorphic,
)
from repro.audit.report import AuditFailure, AuditReport, run_audit
from repro.audit.shrink import repro_source, shrink

__all__ = [
    "ENGINES",
    "INVARIANT_NAMES",
    "AuditFailure",
    "AuditReport",
    "DifferentialResult",
    "FuzzScenario",
    "InvariantChecker",
    "InvariantViolation",
    "MetamorphicResult",
    "NodePermSpec",
    "build_fuzz_machine",
    "check_node_permutation",
    "check_relabel",
    "check_work_scale",
    "generate_node_perm_spec",
    "generate_scenario",
    "repro_source",
    "rng_states",
    "run_audit",
    "run_differential",
    "run_metamorphic",
    "shrink",
    "state_digest",
    "warmth_tables",
]
