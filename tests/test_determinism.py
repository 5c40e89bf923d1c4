"""The fast engine produces bit-for-bit the reference engine's results.

The :class:`~repro.xen.engine.BatchedEngine` contract is not "close
enough" — it is exact equality of every simulated outcome.  These tests
run the same seeded scenario through both engines and compare the
full :class:`~repro.metrics.collectors.RunSummary` dataclasses (finish
times, instruction/access counters, migration counts, overhead
accounting) field by field via ``==``.  The only excluded field is
``horizon_stats`` (``compare=False`` on the dataclass): it records the
batched engine's horizon lengths, which a per-epoch stepper does not
have, without touching any simulated quantity.
"""

import dataclasses

import pytest

from repro.experiments.scenarios import (
    SCHEDULER_NAMES,
    ScenarioConfig,
    make_scheduler,
    memcached_scenario,
    mix_scenario,
    spec_scenario,
)
from repro.metrics.collectors import summarize

ENGINES = ("reference", "batched")


def _run(builder, scheduler: str, engine: str, seed: int = 0):
    cfg = ScenarioConfig(work_scale=0.15, seed=seed, engine=engine)
    machine = builder(make_scheduler(scheduler), cfg)
    machine.run(max_time_s=1.0)
    return summarize(machine)


def _assert_identical(builder, scheduler: str, seed: int = 0) -> None:
    reference = _run(builder, scheduler, "reference", seed)
    candidate = _run(builder, scheduler, "batched", seed)
    if reference != candidate:  # pragma: no cover - failure diagnostics
        diffs = [
            f"{field.name}: {a!r} != {b!r}"
            for field, a, b in zip(
                dataclasses.fields(reference),
                dataclasses.astuple(reference),
                dataclasses.astuple(candidate),
            )
            if a != b
        ]
        pytest.fail(
            f"batched diverged from reference for {scheduler} "
            f"(seed {seed}):\n" + "\n".join(diffs)
        )


class TestBitwiseDeterminism:
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_spec_scenario_all_schedulers(self, scheduler):
        """Every scheduling approach: batched == reference."""
        builder = lambda p, c: spec_scenario("soplex", p, c)
        _assert_identical(builder, scheduler)

    def test_mix_scenario(self):
        """Heterogeneous co-runners keep the engines identical."""
        _assert_identical(mix_scenario, "vprobe", seed=3)

    def test_service_scenario(self):
        """Request/response workloads (blocking, wake heap) match too."""
        builder = lambda p, c: memcached_scenario(48, p, c)
        _assert_identical(builder, "credit")

    def test_engine_survives_mid_run_summary(self):
        """Summaries agree at an intermediate cut, not only at the end.

        The cut lands wherever it lands relative to each engine's
        macro-step boundaries — the batched engine must stop at the
        same epoch with the same state, not just reach the same final
        answer.
        """
        machines = {}
        for engine in ENGINES:
            cfg = ScenarioConfig(work_scale=0.15, seed=1, engine=engine)
            machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
            machine.run(max_time_s=0.4)
            machines[engine] = machine
        assert summarize(machines["reference"]) == summarize(
            machines["batched"]
        )
        # Continue both runs: state carried across the cut stays equal.
        for machine in machines.values():
            machine.run(max_time_s=0.8)
        assert summarize(machines["reference"]) == summarize(
            machines["batched"]
        )
