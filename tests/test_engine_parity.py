"""Property test: batched == reference, canonically.

Hypothesis draws seeded random scenarios — workload profile, scheduler,
work scale, root seed and fault preset — and runs each one through
both engines.  The assertion is on the *canonical JSON* of the
:class:`~repro.metrics.collectors.RunSummary` (``to_dict`` serialized
with sorted keys), so every serialized quantity participates: finish
times, PMU counter totals (instructions, LLC refs/misses, local/remote
accesses), migration and overhead accounting, fault statistics.

The one excluded key is ``phase_profile``: it reports *host* wall-clock
spans, and the engines legitimately differ there — not just in timings
(nondeterministic by nature) but in span schedule, since the batched
engine records a ``horizon`` span per macro-step and amortises the
per-epoch spans across whole batches.  Everything the simulation
computes is compared bit-for-bit.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import (
    ScenarioConfig,
    make_scheduler,
    spec_scenario,
)
from repro.faults.plan import FAULT_PRESETS, fault_preset
from repro.hardware.topology import symmetric_topology
from repro.metrics.collectors import summarize
from repro.workloads.generators import synthetic_profile
from repro.xen.domain import Domain
from repro.xen.memalloc import place_split
from repro.xen.simulator import Machine, SimConfig

GIB = 1024**3

scenario_params = st.fixed_dictionaries(
    {
        "profile": st.sampled_from(["soplex", "mcf", "lbm", "povray", "lu"]),
        "scheduler": st.sampled_from(["credit", "vprobe", "lb", "brm"]),
        "work_scale": st.sampled_from([0.05, 0.1, 0.2]),
        "seed": st.integers(min_value=0, max_value=2**16),
        "faults": st.sampled_from([None] + sorted(FAULT_PRESETS)),
    }
)


def _canonical_summary(engine: str, params: dict) -> str:
    plan = fault_preset(params["faults"]) if params["faults"] else None
    cfg = ScenarioConfig(
        work_scale=params["work_scale"],
        seed=params["seed"],
        engine=engine,
        faults=None if plan is None or plan.is_null() else plan,
        label=f"parity {params['profile']}",
    )
    machine = spec_scenario(params["profile"], make_scheduler(params["scheduler"]), cfg)
    machine.run(max_time_s=0.6)
    summary = summarize(machine).to_dict()
    summary.pop("phase_profile", None)
    summary.pop("horizon_stats", None)
    return json.dumps(summary, sort_keys=True)


@settings(max_examples=8, deadline=None)
@given(params=scenario_params)
def test_engines_agree_on_canonical_summary(params):
    """Both engines serialize to the identical canonical JSON."""
    reference = _canonical_summary("reference", params)
    candidate = _canonical_summary("batched", params)
    assert candidate == reference, (
        f"batched diverged from reference on {params!r}"
    )


def _three_node_summary(engine: str):
    topo = symmetric_topology(3, 2)
    machine = Machine(
        topo,
        make_scheduler("vprobe"),
        SimConfig(seed=5, sample_period_s=0.1, max_time_s=0.4, engine=engine),
    )
    prof = synthetic_profile("llc-fi", total_instructions=2e8)
    machine.add_domain(
        Domain.homogeneous("vm", 2 * GIB, place_split(8, 3), prof, 8)
    )
    machine.run()
    summary = summarize(machine).to_dict()
    summary.pop("phase_profile", None)
    return machine, json.dumps(summary, sort_keys=True)


def test_non_dual_socket_hosts_run_the_reference_loop():
    """The fused replay is dual-socket only: a 3-node machine asked for
    the batched engine builds none and matches the reference run."""
    machine, batched = _three_node_summary("batched")
    assert machine._engine is None
    assert machine.epoch_index > 0
    assert batched == _three_node_summary("reference")[1]
