"""Benchmark guard for the always-on phase profiler.

The profiler's contract (see :mod:`repro.obs.profiler`) is that it is
cheap enough to leave enabled everywhere: two ``perf_counter_ns`` reads
and one dict update per span.  A naive A/B wall-clock comparison of a
profiled vs unprofiled run cannot resolve a ~1% effect on a shared
host (run-to-run noise is several percent), so the guard measures the
two stable quantities instead and multiplies them:

* **span cost** — a tight loop of ``start()``/``stop()`` pairs (and of
  ``count()`` bumps), which times the profiler itself to a few ns;
* **span rate** — how many spans one steady-state epoch actually
  records, read off the profiler's own call counters (deterministic).

Their product, as a fraction of the measured epoch cost, is the
always-on overhead; the test pins it below 3 % on the batched engine
— it adds a ``horizon`` span per stepper call but amortises every span
over a whole macro-step — and writes the numbers to
``benchmarks/BENCH_profiler.json``.  Like ``test_engine_speedup`` it
times with ``time.perf_counter`` directly so it still runs under
``--benchmark-disable``.
"""

import json
import pathlib
import time

from repro.experiments import ScenarioConfig, make_scheduler, spec_scenario
from repro.obs.profiler import PhaseProfiler

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_profiler.json"

#: Allowed always-on profiling overhead on the epoch microbench.
MAX_OVERHEAD_FRACTION = 0.03

#: Engines the guard covers (the reference engine records at most the
#: same spans per epoch over a far slower epoch, so its overhead
#: fraction is strictly lower).
ENGINES = ("batched",)


def _steady_machine(engine: str):
    """A warmed-up machine (past initial placement) on ``engine``."""
    cfg = ScenarioConfig(
        work_scale=1.0, seed=0, engine=engine, label="bench profiler"
    )
    machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
    machine.run(max_time_s=0.05)
    return machine


def _us_per_epoch(machine, epochs: int) -> float:
    """Wall time per steady-state *simulated epoch*, in us.

    Counted off ``epoch_index`` so macro-steps (batched engine) are
    priced per epoch advanced, not per stepper call.
    """
    step = machine._step_epoch
    start_epoch = machine.epoch_index
    start = time.perf_counter()
    while machine.epoch_index - start_epoch < epochs:
        step()
    elapsed = time.perf_counter() - start
    return elapsed / (machine.epoch_index - start_epoch) * 1e6


def _span_cost_us(iterations: int = 200_000) -> float:
    """Cost of one start/stop pair on a steady-state phase, in us."""
    prof = PhaseProfiler()
    prof.stop("calibration", prof.start())  # first hit allocates the slot
    start = time.perf_counter()
    for _ in range(iterations):
        prof.stop("calibration", prof.start())
    return (time.perf_counter() - start) / iterations * 1e6


def _count_cost_us(iterations: int = 200_000) -> float:
    """Cost of one ``count()`` bump, in us."""
    prof = PhaseProfiler()
    prof.count("calibration")
    start = time.perf_counter()
    for _ in range(iterations):
        prof.count("calibration")
    return (time.perf_counter() - start) / iterations * 1e6


def test_profiler_overhead_under_3pct():
    """Always-on profiling costs < 3% of the steady-state epoch loop."""
    rounds = 3
    epochs = 2000

    span_us = min(_span_cost_us() for _ in range(rounds))
    count_us = min(_count_cost_us() for _ in range(rounds))

    record = {
        "scenario": "spec soplex, 24 VCPUs / 8 PCPUs, vprobe",
        "span_cost_us": round(span_us, 4),
        "count_cost_us": round(count_us, 4),
        "budget_fraction": MAX_OVERHEAD_FRACTION,
        "engines": {},
    }
    failures = []
    for engine in ENGINES:
        machine = _steady_machine(engine)
        prof = machine.profiler
        _us_per_epoch(machine, 200)  # warm allocator and branch caches

        prof.clear()
        epoch_us = float("inf")
        measured_epochs = 0
        for _ in range(rounds):
            epoch_us = min(epoch_us, _us_per_epoch(machine, epochs))
            measured_epochs += epochs
        spans = sum(s.calls for s in prof.snapshot().values())
        counts = sum(prof.counters().values())
        spans_per_epoch = spans / measured_epochs
        counts_per_epoch = counts / measured_epochs
        overhead_us = spans_per_epoch * span_us + counts_per_epoch * count_us
        overhead = overhead_us / epoch_us

        record["engines"][engine] = {
            "epochs": measured_epochs,
            "epoch_us": round(epoch_us, 2),
            "spans_per_epoch": round(spans_per_epoch, 3),
            "counts_per_epoch": round(counts_per_epoch, 3),
            "overhead_us_per_epoch": round(overhead_us, 3),
            "overhead_fraction": round(overhead, 5),
        }
        if overhead >= MAX_OVERHEAD_FRACTION:
            failures.append(
                f"{engine}: always-on profiling costs {overhead * 100.0:.2f}% "
                f"of the epoch loop ({overhead_us:.2f} of {epoch_us:.2f} "
                f"us/epoch: {spans_per_epoch:.1f} spans x {span_us:.3f} us + "
                f"{counts_per_epoch:.1f} counts x {count_us:.3f} us)"
            )

    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    assert not failures, (
        "; ".join(failures)
        + f"; budget is {MAX_OVERHEAD_FRACTION * 100.0:.0f}%"
    )
