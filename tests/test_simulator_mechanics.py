"""White-box tests of Machine mechanics: migrate, steal accounting,
sampling-period delivery, PMU refresh charging."""

import pytest

from repro.hardware.topology import xeon_e5620
from repro.workloads.generators import synthetic_profile
from repro.xen.credit import CreditScheduler
from repro.xen.domain import Domain
from repro.xen.memalloc import place_split
from repro.xen.simulator import Machine, SimConfig
from repro.xen.vcpu import VcpuState

GIB = 1024**3


class CountingPolicy(CreditScheduler):
    """Credit + counters for hook invocations."""

    collects_pmu = True

    def __init__(self):
        super().__init__()
        self.sample_times = []
        self.switches = 0

    def on_sample_period(self, now):
        self.sample_times.append(now)

    def on_context_switch(self, pcpu, prev, nxt):
        self.switches += 1


def build(policy=None, num_vcpus=2, sample_period=0.05, pins=None):
    machine = Machine(
        xeon_e5620(),
        policy or CreditScheduler(),
        SimConfig(seed=0, sample_period_s=sample_period, max_time_s=10.0),
    )
    profile = synthetic_profile("llc-fi", total_instructions=None, with_phases=False)
    domain = Domain.homogeneous(
        "vm", 1 * GIB, place_split(num_vcpus, 2), profile, num_vcpus
    )
    if pins is not None:
        domain.pinned_pcpus = pins
    machine.add_domain(domain)
    return machine


class TestSamplePeriodDelivery:
    def test_fires_at_each_period_boundary(self):
        policy = CountingPolicy()
        machine = build(policy=policy, sample_period=0.05)
        machine.run(max_time_s=0.2)
        assert [pytest.approx(t) for t in (0.05, 0.1, 0.15, 0.2)] == policy.sample_times

    def test_respects_configured_period(self):
        policy = CountingPolicy()
        machine = build(policy=policy, sample_period=0.1)
        machine.run(max_time_s=0.2)
        assert len(policy.sample_times) == 2


class TestPmuRefreshCharging:
    def test_collecting_policy_pays_per_tick(self):
        policy = CountingPolicy()
        machine = build(policy=policy, pins=[0, 4])
        machine.run(max_time_s=0.2)
        # ~20 ticks x up to 2 busy PCPUs (ticks immediately after a
        # slice-expiry preemption find the PCPU empty), plus switches.
        assert machine.pmu.collection_events >= 20
        assert machine.overhead_s.get("pmu", 0.0) > 0

    def test_plain_credit_pays_nothing(self):
        machine = build()  # plain Credit: collects_pmu = False
        machine.run(max_time_s=0.2)
        assert "pmu" not in machine.overhead_s


class TestMigrateVcpu:
    def test_migrating_queued_vcpu_moves_queue_entry(self):
        machine = build(num_vcpus=2, pins=[0, 0])
        vcpu = machine.vcpus[1]  # still queued behind vcpu 0
        assert vcpu in machine.pcpus[0].queue
        machine.migrate_vcpu(vcpu, 5, now=0.0, reason="test")
        assert vcpu not in machine.pcpus[0].queue
        assert vcpu in machine.pcpus[5].queue
        assert vcpu.pcpu == 5
        assert vcpu.cross_node_migrations == 1

    def test_migrating_running_vcpu_preempts(self):
        machine = build(num_vcpus=1, pins=[0])
        machine.run(max_time_s=0.002)
        vcpu = machine.vcpus[0]
        assert vcpu.state is VcpuState.RUNNING
        machine.migrate_vcpu(vcpu, 4, now=0.002, reason="test")
        assert machine.pcpus[0].current is None
        assert vcpu.state is VcpuState.RUNNABLE
        assert vcpu in machine.pcpus[4].queue

    def test_migrating_blocked_vcpu_just_retargets(self):
        machine = build(num_vcpus=1, pins=[0])
        vcpu = machine.vcpus[0]
        vcpu.state = VcpuState.BLOCKED
        machine.pcpus[0].queue.remove(vcpu)
        machine.migrate_vcpu(vcpu, 6, now=0.0, reason="test")
        assert vcpu.pcpu == 6
        assert len(machine.pcpus[6].queue) == 0  # queued only on wake

    def test_same_pcpu_is_noop(self):
        machine = build(num_vcpus=1, pins=[0])
        vcpu = machine.vcpus[0]
        machine.migrate_vcpu(vcpu, 0, now=0.0, reason="test")
        assert vcpu.migrations == 0
        assert machine.migrations == 0


class TestStealAccounting:
    def test_local_and_remote_steal_counters(self):
        machine = build(num_vcpus=6, pins=[0, 0, 0, 0, 0, 0])
        machine.run(max_time_s=0.3)
        # Work began all on PCPU 0; other PCPUs must have stolen both
        # within node 0 and across to node 1.
        assert machine.steals_local + machine.steals_remote > 0
        assert machine.migrations >= machine.cross_node_migrations
