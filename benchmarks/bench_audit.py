"""Benchmark guard for the runtime invariant checker.

The audit layer's contract (see :mod:`repro.audit.invariants`) has
three measurable clauses, each pinned here:

* **enabled is cheap** — a checker at its default cadence (``every=32``)
  costs less than 5 % of the steady-state epoch loop.  A naive A/B
  wall-clock comparison cannot resolve a few-percent effect on a
  shared host (epoch cost drifts with simulated state and run-to-run
  noise is larger than the effect), so
  the guard times the two stable quantities instead: the amortised
  cost of the per-epoch hook calls (a tight loop over
  ``after_schedule``/``after_epoch`` on frozen machine state, which
  includes one full five-check boundary per ``every`` calls) plus the
  forced sampling-boundary checks, divided by the measured epoch
  cost.  Numbers go to ``benchmarks/BENCH_audit.json``;
* **disabled is free** — a checker with every invariant disabled
  performs *exactly zero* checks over a whole run (the epoch hooks may
  fire, but no invariant is ever evaluated);
* **reads only** — an audited run's summary is bitwise identical to an
  unaudited one, so attaching the checker can never change a result.

The guard times with ``time.perf_counter`` directly, so it still runs
under ``--benchmark-disable``.
"""

import json
import pathlib
import time

from repro.audit.invariants import InvariantChecker
from repro.experiments import ScenarioConfig, make_scheduler, spec_scenario
from repro.metrics.collectors import summarize
from repro.obs.manifest import canonical_dumps

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_audit.json"

#: Allowed overhead of default-cadence auditing on the epoch microbench.
MAX_OVERHEAD_FRACTION = 0.05

ENGINES = ("batched",)


def _steady_machine(engine: str):
    """A warmed-up machine (past initial placement) on ``engine``."""
    cfg = ScenarioConfig(work_scale=1.0, seed=0, engine=engine, label="bench audit")
    machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
    machine.run(max_time_s=0.05)
    return machine


def _us_per_epoch(machine, epochs: int) -> float:
    """Wall time per steady-state simulated epoch, in us."""
    step = machine._step_epoch
    start_epoch = machine.epoch_index
    start = time.perf_counter()
    while machine.epoch_index - start_epoch < epochs:
        step()
    elapsed = time.perf_counter() - start
    return elapsed / (machine.epoch_index - start_epoch) * 1e6


def _amortized_hook_us(machine, checker, iterations: int) -> float:
    """Amortised cost of one epoch's audit hook calls, in us.

    Calls the two hooks on frozen machine state: the checker's own
    cadence counter makes one call in ``every`` a full five-check
    boundary, exactly the real per-epoch mix.
    """
    start = time.perf_counter()
    for _ in range(iterations):
        checker.after_schedule(machine)
        checker.after_epoch(machine, False)
    return (time.perf_counter() - start) / iterations * 1e6


def test_audit_overhead_under_5pct():
    """Default-cadence invariant checking costs < 5% per epoch."""
    rounds = 3
    epochs = 2000
    hook_iters = 20_000

    record = {
        "scenario": "spec soplex, 24 VCPUs / 8 PCPUs, vprobe",
        "cadence": InvariantChecker().every,
        "budget_fraction": MAX_OVERHEAD_FRACTION,
        "engines": {},
    }
    failures = []
    for engine in ENGINES:
        machine = _steady_machine(engine)
        epoch_us = float("inf")
        for _ in range(rounds):
            epoch_us = min(epoch_us, _us_per_epoch(machine, epochs))

        # Hook costs on a frozen steady state (machine paused mid-run).
        hooked = _steady_machine(engine)
        checker = InvariantChecker()  # default cadence, every invariant
        cadence_us = min(
            _amortized_hook_us(hooked, checker, hook_iters) for _ in range(rounds)
        )
        # Sampling-period boundaries force a full check regardless of
        # cadence; bill them at their real per-epoch frequency.
        boundary = InvariantChecker(every=1)
        boundary_us = min(
            _amortized_hook_us(hooked, boundary, hook_iters // 10)
            for _ in range(rounds)
        )
        overhead_us = cadence_us + boundary_us / hooked._epochs_per_sample
        overhead = overhead_us / epoch_us

        record["engines"][engine] = {
            "epoch_us": round(epoch_us, 2),
            "cadence_us_per_epoch": round(cadence_us, 3),
            "boundary_us": round(boundary_us, 3),
            "epochs_per_sample": hooked._epochs_per_sample,
            "checks_run": checker.checks_run,
            "overhead_fraction": round(overhead, 5),
        }
        if overhead >= MAX_OVERHEAD_FRACTION:
            failures.append(
                f"{engine}: default-cadence auditing costs {overhead * 100.0:.2f}% "
                f"of the epoch loop ({overhead_us:.2f} of {epoch_us:.2f} us/epoch)"
            )
        assert checker.checks_run > 0, f"{engine}: auditor never ran a check"

    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    assert not failures, (
        "; ".join(failures) + f"; budget is {MAX_OVERHEAD_FRACTION * 100.0:.0f}%"
    )


def test_disabled_audit_runs_exactly_zero_checks():
    """All-disabled checker over a full run: checks_run stays 0."""
    cfg = ScenarioConfig(work_scale=0.05, seed=0, max_time_s=0.5)
    machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
    checker = InvariantChecker(enabled=())
    machine.run(audit=checker)
    assert checker.checks_run == 0


def test_audited_summary_bitwise_identical():
    """Attaching the checker never changes a run's result bytes."""
    texts = {}
    for label, audit in (("plain", None), ("audited", InvariantChecker(every=1))):
        cfg = ScenarioConfig(work_scale=0.05, seed=0, max_time_s=0.5)
        machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
        machine.run(audit=audit)
        texts[label] = canonical_dumps(
            summarize(machine).to_dict(include_profile=False)
        )
    assert texts["plain"] == texts["audited"]
