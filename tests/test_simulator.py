"""Tests for repro.xen.simulator: engine invariants."""

import pytest

from repro.hardware.topology import xeon_e5620
from repro.util.rng import RngStreams
from repro.workloads.appmodel import VcpuWorkload
from repro.workloads.generators import synthetic_profile
from repro.xen.credit import CreditScheduler
from repro.xen.domain import Domain
from repro.xen.memalloc import place_single_node, place_split
from repro.xen.simulator import Machine, SimConfig
from repro.xen.vcpu import VcpuState

GIB = 1024**3


def machine_with(profile, num_vcpus=2, seed=0, max_time=10.0, pins=None, **cfg):
    topo = xeon_e5620()
    machine = Machine(
        topo, CreditScheduler(), SimConfig(seed=seed, max_time_s=max_time, **cfg)
    )
    domain = Domain.homogeneous(
        "vm", 1 * GIB, place_split(num_vcpus, 2), profile, num_vcpus
    )
    if pins is not None:
        domain.pinned_pcpus = pins
    machine.add_domain(domain)
    return machine


class TestConfig:
    def test_vector_engine_is_not_selectable(self):
        with pytest.raises(ValueError, match="engine"):
            SimConfig(engine="vector")

    def test_epoch_must_divide_tick(self):
        topo = xeon_e5620()
        with pytest.raises(ValueError, match="divide"):
            Machine(topo, CreditScheduler(), SimConfig(epoch_s=3e-3))

    def test_duplicate_domain_names_rejected(self):
        machine = machine_with(synthetic_profile("llc-fr"))
        with pytest.raises(ValueError):
            machine.add_domain(
                Domain.homogeneous(
                    "vm", 1 * GIB, place_split(1, 2), synthetic_profile("llc-fr"), 1
                )
            )

    def test_placement_node_count_must_match(self):
        machine = machine_with(synthetic_profile("llc-fr"))
        bad = Domain.homogeneous(
            "other", 1 * GIB, place_single_node(1, 3, 0),
            synthetic_profile("llc-fr"), 1, first_touch_init=False,
        ) if False else Domain(
            "other",
            1 * GIB,
            place_single_node(1, 3, 0),
            [
                VcpuWorkload(
                    synthetic_profile("llc-fr"),
                    RngStreams(0).get("w"),
                )
            ],
            first_touch_init=False,
        )
        with pytest.raises(ValueError, match="nodes"):
            machine.add_domain(bad)


class TestCompletion:
    def test_finite_workload_completes_and_stops(self):
        profile = synthetic_profile("llc-fr", total_instructions=5e8, with_phases=False)
        machine = machine_with(profile, num_vcpus=1)
        result = machine.run()
        assert result.completed
        assert result.sim_time_s < machine.config.max_time_s
        vcpu = machine.vcpus[0]
        assert vcpu.state is VcpuState.DONE
        assert vcpu.finish_time == pytest.approx(result.sim_time_s, abs=0.01)

    def test_instruction_conservation(self):
        """PMU instructions must equal the workload's completed work."""
        total = 4e8
        profile = synthetic_profile("llc-fr", total_instructions=total, with_phases=False)
        machine = machine_with(profile, num_vcpus=2)
        machine.run()
        for vcpu in machine.vcpus:
            assert machine.pmu.totals(vcpu.key).instructions == pytest.approx(total)

    def test_timeout_reports_incomplete(self):
        profile = synthetic_profile("llc-fr", total_instructions=1e14)
        machine = machine_with(profile, num_vcpus=1, max_time=0.05)
        result = machine.run()
        assert not result.completed
        assert result.sim_time_s == pytest.approx(0.05)

    def test_finish_time_lookup(self):
        profile = synthetic_profile("llc-fr", total_instructions=2e8, with_phases=False)
        machine = machine_with(profile, num_vcpus=1)
        result = machine.run()
        assert result.finish_time("vm") == pytest.approx(result.sim_time_s, abs=0.01)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        profile = synthetic_profile("llc-fi", total_instructions=3e8)
        a = machine_with(profile, num_vcpus=4, seed=5)
        b = machine_with(profile, num_vcpus=4, seed=5)
        ra, rb = a.run(), b.run()
        assert ra.sim_time_s == rb.sim_time_s
        assert a.migrations == b.migrations
        assert a.context_switches == b.context_switches

    def test_different_seed_different_placement(self):
        profile = synthetic_profile("llc-fi", total_instructions=3e8)
        outcomes = set()
        for seed in range(4):
            m = machine_with(profile, num_vcpus=4, seed=seed)
            outcomes.add(tuple(v.pcpu for v in m.vcpus))
        assert len(outcomes) > 1


class TestFirstTouch:
    def test_first_touch_rehomes_slices(self):
        profile = synthetic_profile("llc-fi")
        machine = machine_with(profile, num_vcpus=2, pins=[0, 4])
        domain = machine.domains[0]
        assert domain.placement.home_node(0) == 0
        assert domain.placement.home_node(1) == 1

    def test_first_touch_can_be_disabled(self):
        topo = xeon_e5620()
        machine = Machine(topo, CreditScheduler(), SimConfig(seed=0))
        domain = Domain(
            "vm",
            1 * GIB,
            place_single_node(1, 2, node=1),
            [VcpuWorkload(synthetic_profile("llc-fi"), RngStreams(0).get("w"))],
            pinned_pcpus=[0],
            first_touch_init=False,
        )
        machine.add_domain(domain)
        assert domain.placement.home_node(0) == 1


class TestOverheadPlumbing:
    def test_charged_overhead_reduces_progress(self):
        profile = synthetic_profile("llc-fr", total_instructions=None, with_phases=False)
        clean = machine_with(profile, num_vcpus=1, pins=[0])
        taxed = machine_with(profile, num_vcpus=1, pins=[0])
        # Steal half of pcpu 0's time over a 200 ms run via overhead.
        taxed.pcpus[0].charge_overhead(100e-3)
        for machine in (clean, taxed):
            machine.run(max_time_s=0.2)
        done_taxed = taxed.pmu.totals(0).instructions
        done_clean = clean.pmu.totals(0).instructions
        assert done_taxed < 0.7 * done_clean
        assert taxed.busy_time_s == pytest.approx(clean.busy_time_s)

    def test_overhead_fraction_metric(self):
        profile = synthetic_profile("llc-fr")
        machine = machine_with(profile, num_vcpus=1)
        machine.run(max_time_s=0.1)
        machine.charge_overhead("test", machine.pcpus[0], 1e-3)
        assert machine.overhead_s["test"] == pytest.approx(1e-3)
        assert machine.overhead_fraction() > 0


class TestBlocking:
    def test_blocking_vcpu_cycles_states(self):
        profile = synthetic_profile("llc-fr", total_instructions=None).with_overrides(
            blocking=None
        )
        from repro.workloads.appmodel import BlockingSpec

        blocky = profile.with_overrides(
            blocking=BlockingSpec(run_burst_s=0.005, block_s=0.005)
        )
        machine = machine_with(blocky, num_vcpus=1)
        machine.run(max_time_s=0.5)
        # The single VCPU must have both run and blocked.
        assert machine.pmu.totals(0).instructions > 0
        assert machine.context_switches > 5
