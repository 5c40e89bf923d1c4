"""Benchmark guard for the runtime invariant checker.

The audit layer's contract (see :mod:`repro.audit.invariants`) has
three measurable clauses, each pinned here:

* **enabled is cheap** — a checker at its default cadence (``every=128``)
  costs less than 5 % of the steady-state run it audits.  A naive A/B
  wall-clock comparison cannot resolve a few-percent effect on a
  shared host (run-to-run noise is larger than the effect), so the
  guard times the checker itself: every hook the machine calls on it
  (``after_schedule``/``after_epoch`` once per event horizon — the
  batched engine advances several epochs per horizon — the forced
  sampling-boundary checks, and the algorithm hooks) is timed over one
  audited stretch of the run, and their sum is divided by the time an
  unaudited machine takes for the same epochs from the same state.  The
  timer's own cost — what it records around a no-op call beyond the
  call itself, calibrated in the same process — is taken off each
  call.  Numbers go to ``benchmarks/BENCH_audit.json``;
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

#: Allowed overhead of default-cadence auditing on the steady-state run.
MAX_OVERHEAD_FRACTION = 0.05

ENGINES = ("batched",)

#: Every checker method the machine and the scheduler's algorithms call.
HOOKS = ("after_schedule", "after_epoch", "check_partition", "check_steal")


def _steady_machine(engine: str):
    """A warmed-up machine (past initial placement) on ``engine``."""
    cfg = ScenarioConfig(work_scale=1.0, seed=0, engine=engine, label="bench audit")
    machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
    machine.run(max_time_s=0.05)
    return machine


def _run_epochs(machine, epochs: int):
    """Step ``machine`` through ``epochs`` epochs: (seconds, boundaries)."""
    step = machine._step_epoch
    start_epoch = machine.epoch_index
    boundaries = 0
    start = time.perf_counter()
    while machine.epoch_index - start_epoch < epochs:
        step()
        boundaries += 1
    return time.perf_counter() - start, boundaries


def _timed(hook, sink: list):
    """``hook``, adding each call's time to ``sink[0]`` and one to ``sink[1]``."""

    def call(*args, **kwargs):
        start = time.perf_counter()
        try:
            return hook(*args, **kwargs)
        finally:
            sink[0] += time.perf_counter() - start
            sink[1] += 1

    return call


def _timed_checker():
    """A default checker whose hooks add up their time in ``checker.spent``."""
    checker = InvariantChecker()
    checker.spent = [0.0, 0]
    for name in HOOKS:
        setattr(checker, name, _timed(getattr(checker, name), checker.spent))
    return checker


def _timer_cost_s(calls: int = 50_000) -> float:
    """Time ``_timed`` records per call beyond the cost of the call itself."""

    def noop(*args, **kwargs):
        return None

    sink = [0.0, 0]
    timed = _timed(noop, sink)
    start = time.perf_counter()
    for _ in range(calls):
        noop(None)
    bare = time.perf_counter() - start
    for _ in range(calls):
        timed(None)
    return max(0.0, (sink[0] - bare) / calls)


def test_audit_overhead_under_5pct():
    """Default-cadence invariant checking costs < 5% of the run it audits."""
    rounds = 3
    epochs = 4000

    record = {
        "scenario": "spec soplex, 24 VCPUs / 8 PCPUs, vprobe",
        "cadence": InvariantChecker().every,
        "budget_fraction": MAX_OVERHEAD_FRACTION,
        "engines": {},
    }
    failures = []
    # The smallest estimate takes the least off: a conservative correction.
    timer_s = min(_timer_cost_s() for _ in range(rounds))
    for engine in ENGINES:
        plain_s = hook_s = float("inf")
        for _ in range(rounds):
            elapsed, boundaries = _run_epochs(_steady_machine(engine), epochs)
            plain_s = min(plain_s, elapsed)
            audited = _steady_machine(engine)
            checker = audited.auditor = _timed_checker()
            _run_epochs(audited, epochs)
            spent_s, calls = checker.spent
            hook_s = min(hook_s, spent_s - calls * timer_s)
            assert checker.checks_run > 0, f"{engine}: auditor never ran a check"
        overhead = hook_s / plain_s

        record["engines"][engine] = {
            "epochs": epochs,
            "boundaries": boundaries,
            "epoch_us": round(plain_s / epochs * 1e6, 2),
            "audit_us_per_boundary": round(hook_s / boundaries * 1e6, 3),
            "audit_us_per_epoch": round(hook_s / epochs * 1e6, 3),
            "hook_calls": calls,
            "timer_us_per_call": round(timer_s * 1e6, 3),
            "checks_run": checker.checks_run,
            "overhead_fraction": round(overhead, 5),
        }
        if overhead >= MAX_OVERHEAD_FRACTION:
            failures.append(
                f"{engine}: default-cadence auditing costs {overhead * 100.0:.2f}% "
                f"of the run ({hook_s / epochs * 1e6:.2f} of "
                f"{plain_s / epochs * 1e6:.2f} us/epoch)"
            )

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
