"""Micro-benchmarks of the simulator's hot paths.

These time the engine itself (not a paper experiment) so performance
regressions in the contention solve or the scheduler pass are caught:
per the project's optimisation rules, measure before optimising.

``test_engine_speedup`` is the acceptance gate for the fast engine:
it times the reference and batched engines back to back with
``time.perf_counter`` (so it runs even under ``--benchmark-disable``),
asserts the batched engine is at least 2x faster per epoch than the
reference, and writes the measured numbers — full cold-run wall clocks
at ``work_scale=1.0`` plus the batched run's horizon histogram — to
``benchmarks/BENCH_engine.json``.  CI runs this test as its
perf-regression smoke and uploads the JSON as an artifact.
"""

import json
import pathlib
import time

from repro.experiments import ScenarioConfig, make_scheduler, spec_scenario
from repro.hardware.cache import CacheDemand, CacheModel, waterfill_shares

MIB = 1024**2

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_engine.json"

#: The engine-comparison scenario: the Fig. 4 soplex workload at full
#: scale — 24 VCPUs over 8 PCPUs under vProbe, the configuration whose
#: epoch loop dominates every experiment's wall time.
SPEEDUP_SCENARIO = "spec soplex, 24 VCPUs / 8 PCPUs, vprobe, work_scale=1.0"

#: Both engines, slowest first.
ENGINES = ("reference", "batched")

#: Perf-regression floor enforced against the reference engine's
#: per-epoch cost.  On the fully loaded SPEC scenario event density
#: (ticks, slice expiries, wakes, phase changes) keeps most macro-step
#: horizons short, so the floor sits well below the measured ratio.
MIN_BATCHED_SPEEDUP = 2.0


def _steady_machine(engine: str):
    """A warmed-up machine (past initial placement) on ``engine``."""
    cfg = ScenarioConfig(work_scale=1.0, seed=0, engine=engine)
    machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
    machine.run(max_time_s=0.05)
    return machine


def _us_per_epoch(machine, epochs: int) -> float:
    """Wall time per steady-state *simulated epoch*, in us.

    Counted off ``epoch_index``, not off stepper calls: one
    ``_step_epoch`` call advances a whole macro-step on the batched
    engine, so dividing by call count would overstate its cost.
    """
    step = machine._step_epoch
    start_epoch = machine.epoch_index
    start = time.perf_counter()
    while machine.epoch_index - start_epoch < epochs:
        step()
    elapsed = time.perf_counter() - start
    return elapsed / (machine.epoch_index - start_epoch) * 1e6


def test_epoch_step_throughput_reference(benchmark):
    """The same epoch cost through the reference (dict) engine."""
    machine = _steady_machine("reference")

    benchmark(machine._step_epoch)


def test_epoch_step_throughput_batched(benchmark):
    """Cost of one *stepper call* on the batched engine (one macro-step)."""
    machine = _steady_machine("batched")

    benchmark(machine._step_epoch)


def test_engine_speedup():
    """The batched engine beats the reference per epoch, measured paired.

    Both engines' measurements interleave (ref, bat, ref, ...) and each
    keeps its minimum, so a background-load spike during one round
    cannot skew the ratio.  The result — microbench and
    full cold-run wall clocks at ``work_scale=1.0`` — is written to
    ``BENCH_engine.json`` as the committed before/after record.
    """
    rounds = 6
    epochs = 2000
    machines = {engine: _steady_machine(engine) for engine in ENGINES}
    # One untimed round each to warm allocator and branch caches.
    for machine in machines.values():
        _us_per_epoch(machine, 200)
    best = {engine: float("inf") for engine in ENGINES}
    for _ in range(rounds):
        for engine in ENGINES:
            best[engine] = min(best[engine], _us_per_epoch(machines[engine], epochs))
    batched_speedup = best["reference"] / best["batched"]

    # End-to-end cold runs: the same workload from scratch at full
    # scale, wall-clocked through Machine.run() — initial placement,
    # warm-up churn and steady state included.
    def run_full(engine: str):
        cfg = ScenarioConfig(work_scale=1.0, seed=0, engine=engine)
        machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
        start = time.perf_counter()
        cpu_start = time.process_time()
        machine.run()
        cpu = time.process_time() - cpu_start
        return time.perf_counter() - start, cpu, machine

    walls = {}
    cpus = {}
    batched_machine = None
    for engine in ENGINES:
        walls[engine], cpus[engine], machine = run_full(engine)
        if engine == "batched":
            batched_machine = machine

    horizon = batched_machine._engine.horizon_stats()
    assert horizon is not None
    # The whole point of macro-stepping: the batched run must cover its
    # epochs in strictly fewer multi-epoch macro-steps than epochs.
    assert horizon["batches"] < horizon["epochs"], (
        f"batched engine made {horizon['batches']} macro-steps "
        f"for {horizon['epochs']} epochs — horizons never exceeded 1"
    )

    BENCH_JSON.write_text(
        json.dumps(
            {
                "scenario": SPEEDUP_SCENARIO,
                "epoch_microbench": {
                    "epochs_per_round": epochs,
                    "rounds": rounds,
                    "reference_us_per_epoch": round(best["reference"], 2),
                    "batched_us_per_epoch": round(best["batched"], 2),
                    "batched_speedup": round(batched_speedup, 2),
                },
                "end_to_end": {
                    "scenario": "spec soplex, work_scale=1.0, cold full run",
                    "reference_wall_s": round(walls["reference"], 3),
                    "batched_wall_s": round(walls["batched"], 3),
                    "batched_speedup": round(
                        walls["reference"] / walls["batched"], 2
                    ),
                    "reference_cpu_s": round(cpus["reference"], 3),
                    "batched_cpu_s": round(cpus["batched"], 3),
                },
                "horizon": horizon,
            },
            indent=2,
        )
        + "\n"
    )

    assert batched_speedup >= MIN_BATCHED_SPEEDUP, (
        f"batched engine speedup {batched_speedup:.2f}x "
        f"({best['reference']:.1f} -> {best['batched']:.1f} us/epoch) "
        f"fell below {MIN_BATCHED_SPEEDUP}x"
    )


def test_scenario_wallclock(benchmark):
    """End-to-end wall clock of a full scaled-down scenario run."""

    def run_full():
        cfg = ScenarioConfig(work_scale=0.25, seed=0)
        machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
        machine.run()
        return machine

    benchmark.pedantic(run_full, rounds=1, iterations=1)


def test_llc_solve_cost(benchmark):
    """Cost of one per-socket LLC contention solve (4 co-runners)."""
    model = CacheModel(12 * MIB)
    demands = {
        i: CacheDemand(
            working_set_bytes=(4 + i) * MIB,
            intensity=0.02,
            min_miss_rate=0.1,
            max_miss_rate=0.8,
        )
        for i in range(4)
    }
    model.advance(0.05, demands)

    benchmark(model.solve, demands)


def test_waterfill_cost(benchmark):
    """Water-filling with a capped/uncapped mix."""
    weights = [1.0, 2.0, 0.5, 3.0, 1.5, 0.1, 2.5, 1.0]
    caps = [4.0, 100.0, 2.0, 50.0, 1.0, 10.0, 100.0, 3.0]

    benchmark(waterfill_shares, 24.0, weights, caps)
