"""Tests for repro.core.balance: Algorithm 2."""

import pytest

from repro.core.balance import numa_aware_steal
from repro.hardware.topology import symmetric_topology, xeon_e5620
from repro.workloads.generators import synthetic_profile
from repro.xen.credit import CreditScheduler
from repro.xen.domain import Domain
from repro.xen.memalloc import place_split
from repro.xen.simulator import Machine, SimConfig
from repro.xen.vcpu import VcpuState

GIB = 1024**3


def build_machine(num_vcpus=8, topology=None):
    topo = topology or xeon_e5620()
    machine = Machine(topo, CreditScheduler(), SimConfig(seed=0))
    profile = synthetic_profile("llc-fi", total_instructions=None)
    machine.add_domain(
        Domain.homogeneous(
            "vm", 1 * GIB, place_split(num_vcpus, topo.num_nodes), profile, num_vcpus
        )
    )
    return machine


def park(machine, vcpu, pcpu_id, pressure, last_ran=-10.0):
    """Place a runnable VCPU on a specific queue with a given pressure."""
    old = machine.pcpus[vcpu.pcpu]
    if vcpu in old.queue:
        old.queue.remove(vcpu)
    if old.current is vcpu:
        old.current = None
        vcpu.state = VcpuState.RUNNABLE
    vcpu.pcpu = pcpu_id
    vcpu.llc_pressure = pressure
    vcpu.last_ran_time = last_ran
    if vcpu not in machine.pcpus[pcpu_id].queue:
        machine.pcpus[pcpu_id].queue.push(vcpu)


def clear_queues(machine):
    for pcpu in machine.pcpus:
        while pcpu.queue.pop() is not None:
            pass
        pcpu.current = None
    for vcpu in machine.vcpus:
        vcpu.state = VcpuState.RUNNABLE


class TestNodeVisitOrder:
    def test_local_first(self):
        machine = build_machine()
        assert machine.topology.visit_order(0) == (0, 1)
        assert machine.topology.visit_order(1) == (1, 0)

    def test_distance_then_id_on_larger_hosts(self):
        topo = symmetric_topology(4, 2)
        machine = build_machine(num_vcpus=4, topology=topo)
        assert machine.topology.visit_order(2) == (2, 0, 1, 3)


class TestStealSelection:
    def test_prefers_local_node(self):
        machine = build_machine()
        clear_queues(machine)
        local_v, remote_v = machine.vcpus[0], machine.vcpus[1]
        park(machine, local_v, pcpu_id=1, pressure=50.0)  # node 0, heavy
        park(machine, remote_v, pcpu_id=4, pressure=0.1)  # node 1, light
        thief = machine.pcpus[0]
        stolen = numa_aware_steal(machine, thief, now=1.0)
        assert stolen is local_v  # local beats lighter-but-remote

    def test_smallest_pressure_within_queue(self):
        machine = build_machine()
        clear_queues(machine)
        heavy, light = machine.vcpus[0], machine.vcpus[1]
        park(machine, heavy, pcpu_id=1, pressure=30.0)
        park(machine, light, pcpu_id=1, pressure=0.5)
        stolen = numa_aware_steal(machine, machine.pcpus[0], now=1.0)
        assert stolen is light

    def test_most_loaded_peer_checked_first(self):
        machine = build_machine()
        clear_queues(machine)
        a, b, c = machine.vcpus[0], machine.vcpus[1], machine.vcpus[2]
        park(machine, a, pcpu_id=1, pressure=5.0)
        park(machine, b, pcpu_id=2, pressure=1.0)
        park(machine, c, pcpu_id=2, pressure=9.0)  # pcpu 2 is most loaded
        stolen = numa_aware_steal(machine, machine.pcpus[0], now=1.0)
        assert stolen is b  # lightest on the most loaded queue

    def test_falls_back_to_remote_when_local_empty(self):
        machine = build_machine()
        clear_queues(machine)
        remote_v = machine.vcpus[0]
        park(machine, remote_v, pcpu_id=5, pressure=10.0)
        stolen = numa_aware_steal(machine, machine.pcpus[0], now=1.0)
        assert stolen is remote_v

    def test_returns_none_when_nothing_queued(self):
        machine = build_machine()
        clear_queues(machine)
        assert numa_aware_steal(machine, machine.pcpus[0], now=1.0) is None

    def test_ignores_priority_classes(self):
        """Algorithm 2 steals by pressure even from the OVER class."""
        machine = build_machine()
        clear_queues(machine)
        over_light = machine.vcpus[0]
        under_heavy = machine.vcpus[1]
        over_light.credits = -100.0
        under_heavy.credits = 100.0
        park(machine, over_light, pcpu_id=1, pressure=0.1)
        park(machine, under_heavy, pcpu_id=1, pressure=30.0)
        stolen = numa_aware_steal(machine, machine.pcpus[0], now=1.0)
        assert stolen is over_light

    def test_tie_breaks_by_queue_order(self):
        """On equal pressure the earliest-queued candidate wins.

        Pins ``min()``'s keep-first semantics so the victim choice is
        deterministic (and so refactors of the candidate scan can't
        silently flip it).
        """
        machine = build_machine()
        clear_queues(machine)
        first, second, third = machine.vcpus[0], machine.vcpus[1], machine.vcpus[2]
        park(machine, first, pcpu_id=1, pressure=5.0)
        park(machine, second, pcpu_id=1, pressure=5.0)
        park(machine, third, pcpu_id=1, pressure=5.0)
        stolen = numa_aware_steal(machine, machine.pcpus[0], now=1.0)
        assert stolen is first
        # Remove the winner and the tie re-breaks to the next in order.
        stolen = numa_aware_steal(machine, machine.pcpus[0], now=1.0)
        assert stolen is second


class TestCacheHotFilter:
    def test_recently_run_vcpus_skipped_by_busy_thief(self):
        machine = build_machine()
        clear_queues(machine)
        hot = machine.vcpus[0]
        cold = machine.vcpus[1]
        park(machine, hot, pcpu_id=1, pressure=0.1, last_ran=0.999)
        park(machine, cold, pcpu_id=1, pressure=20.0, last_ran=0.0)
        thief = machine.pcpus[0]
        thief.queue.push(machine.vcpus[2])  # thief has local work: stays picky
        stolen = numa_aware_steal(machine, thief, now=1.0)
        assert stolen is cold

    def test_idle_thief_takes_hot_work_rather_than_none(self):
        machine = build_machine()
        clear_queues(machine)
        hot = machine.vcpus[0]
        park(machine, hot, pcpu_id=1, pressure=0.1, last_ran=0.999)
        stolen = numa_aware_steal(machine, machine.pcpus[0], now=1.0)
        assert stolen is hot

    def test_busy_thief_never_falls_back_to_hot_work(self):
        """A thief with local work must return None when every queued
        candidate is cache-hot: the ``only_cold=False`` fallback is
        reserved for a PCPU about to idle, so a busy one never reaches
        it — even with steals available machine-wide."""
        machine = build_machine()
        clear_queues(machine)
        park(machine, machine.vcpus[0], pcpu_id=1, pressure=0.1, last_ran=0.999)
        park(machine, machine.vcpus[1], pcpu_id=5, pressure=0.1, last_ran=0.999)
        thief = machine.pcpus[0]
        thief.queue.push(machine.vcpus[2])  # local work: stays picky
        assert numa_aware_steal(machine, thief, now=1.0) is None

    def test_all_hot_queue_skipped_for_cold_candidate_elsewhere(self):
        """An entirely cache-hot queue yields no candidates and the scan
        moves on — it must neither crash on the empty candidate list nor
        steal hot work from the loaded peer."""
        machine = build_machine()
        clear_queues(machine)
        hot_a, hot_b, cold = machine.vcpus[0], machine.vcpus[1], machine.vcpus[2]
        # PCPU 1 is the most loaded peer but holds only hot work.
        park(machine, hot_a, pcpu_id=1, pressure=0.1, last_ran=0.999)
        park(machine, hot_b, pcpu_id=1, pressure=0.2, last_ran=0.998)
        park(machine, cold, pcpu_id=2, pressure=50.0, last_ran=0.0)
        thief = machine.pcpus[0]
        thief.queue.push(machine.vcpus[3])  # busy: cache-hot filter stays on
        stolen = numa_aware_steal(machine, thief, now=1.0)
        assert stolen is cold
