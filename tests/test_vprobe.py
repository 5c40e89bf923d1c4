"""Tests for repro.core.vprobe: the assembled scheduler and variants."""

import pytest

from repro.core.classify import Bounds
from repro.core.vprobe import (
    VProbeParams,
    VProbeScheduler,
    load_balance_only,
    vcpu_partition_only,
    vprobe,
)
from repro.hardware.topology import xeon_e5620
from repro.workloads.generators import synthetic_profile
from repro.xen.domain import Domain
from repro.xen.memalloc import place_split
from repro.xen.simulator import Machine, SimConfig

GIB = 1024**3


def build(policy, num_vcpus=8, seed=0, sample_period=0.2, profile=None):
    machine = Machine(
        xeon_e5620(),
        policy,
        SimConfig(seed=seed, sample_period_s=sample_period, max_time_s=10.0),
    )
    prof = profile or synthetic_profile("llc-t", total_instructions=None)
    machine.add_domain(
        Domain.homogeneous("vm", 1 * GIB, place_split(num_vcpus, 2), prof, num_vcpus)
    )
    return machine


class TestVariantFactories:
    def test_names(self):
        assert vprobe().name == "vprobe"
        assert vcpu_partition_only().name == "vcpu-p"
        assert load_balance_only().name == "lb"

    def test_variant_flags(self):
        assert vcpu_partition_only().vparams.enable_numa_lb is False
        assert load_balance_only().vparams.enable_partition is False

    def test_all_collect_pmu(self):
        for policy in (vprobe(), vcpu_partition_only(), load_balance_only()):
            assert policy.collects_pmu

    def test_custom_bounds_propagate(self):
        policy = vprobe(bounds=Bounds(low=5.0, high=30.0))
        assert policy.analyzer.bounds.low == 5.0


class TestSamplePeriod:
    def test_partitioning_assigns_memory_intensive_vcpus(self):
        machine = build(vprobe())
        machine.run(max_time_s=0.5)  # two+ sampling periods
        assigned = [v for v in machine.vcpus if v.assigned_node is not None]
        assert len(assigned) == 8  # llc-t profile: everyone is intensive

    def test_partition_balances_nodes(self):
        machine = build(vprobe())
        machine.run(max_time_s=0.5)
        nodes = [v.assigned_node for v in machine.vcpus]
        assert abs(nodes.count(0) - nodes.count(1)) <= 1

    def test_lb_variant_never_partitions(self):
        machine = build(load_balance_only())
        machine.run(max_time_s=0.5)
        assert all(v.assigned_node is None for v in machine.vcpus)
        # But the analyzer still ran: pressures are known.
        assert any(v.llc_pressure > 0 for v in machine.vcpus)

    def test_partition_charges_overhead(self):
        machine = build(vprobe())
        machine.run(max_time_s=0.5)
        assert machine.overhead_s.get("partition", 0.0) > 0
        assert machine.overhead_s.get("pmu", 0.0) > 0

    def test_friendly_workload_not_partitioned(self):
        machine = build(
            vprobe(), profile=synthetic_profile("llc-fr", total_instructions=None)
        )
        machine.run(max_time_s=0.5)
        assert all(v.assigned_node is None for v in machine.vcpus)


class TestWakePlacement:
    def test_wake_stays_on_assigned_node(self):
        machine = build(vprobe())
        machine.run(max_time_s=0.3)
        policy = machine.policy
        vcpu = next(v for v in machine.vcpus if v.assigned_node is not None)
        target = policy.on_vcpu_wake(vcpu, machine.time)
        assert machine.topology.node_of_pcpu(target) == vcpu.assigned_node

    def test_wake_stays_on_current_node_without_assignment(self):
        machine = build(load_balance_only())
        machine.run(max_time_s=0.1)
        policy = machine.policy
        vcpu = machine.vcpus[0]
        node = machine.topology.node_of_pcpu(vcpu.pcpu)
        target = policy.on_vcpu_wake(vcpu, machine.time)
        assert machine.topology.node_of_pcpu(target) == node

    def test_vcpu_p_wakes_numa_blind(self):
        """Without the NUMA-aware LB, wake placement is inherited Credit."""
        machine = build(vcpu_partition_only(), num_vcpus=2)
        policy = machine.policy
        vcpu = machine.vcpus[0]
        vcpu.pcpu = 0
        while machine.pcpus[0].queue.pop() is not None:
            pass
        machine.pcpus[0].current = machine.vcpus[1]  # home is loaded
        target = policy.on_vcpu_wake(vcpu, 0.0)
        assert target != 0  # moved to any lighter PCPU, node-blind


class TestDynamicBoundsIntegration:
    def test_dynamic_bounds_update_over_periods(self):
        policy = VProbeScheduler(vparams=VProbeParams(dynamic_bounds=True))
        machine = build(policy)
        initial = policy.analyzer.bounds
        machine.run(max_time_s=0.5)
        assert policy.analyzer.bounds != initial

    def test_static_bounds_never_move(self):
        policy = vprobe()
        machine = build(policy)
        machine.run(max_time_s=0.5)
        assert policy.analyzer.bounds == Bounds()
