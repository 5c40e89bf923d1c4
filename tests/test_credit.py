"""Tests for repro.xen.credit: accounting, preemption, NUMA-blind steal."""

import numpy as np
import pytest

from repro.audit import rng_states
from repro.experiments.scenarios import SCHEDULER_NAMES, make_scheduler
from repro.hardware.topology import xeon_e5620
from repro.workloads.generators import synthetic_profile
from repro.xen.credit import CreditParams, CreditScheduler
from repro.xen.domain import Domain
from repro.xen.memalloc import place_split
from repro.xen.simulator import Machine, SimConfig
from repro.xen.vcpu import VcpuState

GIB = 1024**3


def build_machine(num_vcpus=4, seed=0, profile=None, pins=None):
    topo = xeon_e5620()
    machine = Machine(topo, CreditScheduler(), SimConfig(seed=seed, max_time_s=10.0))
    prof = profile or synthetic_profile(
        "llc-fr", total_instructions=None, with_phases=False
    )
    domain = Domain.homogeneous(
        "vm", 1 * GIB, place_split(num_vcpus, 2), prof, num_vcpus
    )
    if pins is not None:
        domain.pinned_pcpus = pins
    machine.add_domain(domain)
    return machine


class TestCreditParams:
    def test_defaults_match_xen(self):
        params = CreditParams()
        assert params.tick_s == pytest.approx(0.010)
        assert params.slice_s == pytest.approx(0.030)

    def test_invalid_ticks_rejected(self):
        with pytest.raises(ValueError):
            CreditParams(ticks_per_acct=0)


class TestAccounting:
    def test_running_vcpus_lose_credits(self):
        machine = build_machine(num_vcpus=8)
        machine.run(max_time_s=0.005)  # past the initial fill
        running = [p.current for p in machine.pcpus if p.current]
        start = {v.key: v.credits for v in running}
        machine.run(max_time_s=0.015)  # one more tick
        still_running = [v for v in running if v.state is VcpuState.RUNNING]
        assert any(v.credits < start[v.key] for v in still_running)

    def test_credits_bounded(self):
        machine = build_machine(num_vcpus=16)
        machine.run(max_time_s=0.5)
        params = machine.policy.params
        for vcpu in machine.vcpus:
            assert params.credit_floor <= vcpu.credits <= params.credit_cap

    def test_fair_share_under_saturation(self):
        """Equal-weight CPU-bound VCPUs must receive similar service."""
        machine = build_machine(num_vcpus=16, seed=3)
        machine.run(max_time_s=2.0)
        instr = [machine.pmu.totals(v.key).instructions for v in machine.vcpus]
        mean = sum(instr) / len(instr)
        assert mean > 0
        for got in instr:
            assert got == pytest.approx(mean, rel=0.30)

    def test_slice_preemption_rotates_vcpus(self):
        machine = build_machine(num_vcpus=16, seed=1)
        machine.run(max_time_s=1.0)
        # With 16 runnable on 8 PCPUs everyone must have run.
        for vcpu in machine.vcpus:
            assert machine.pmu.totals(vcpu.key).instructions > 0


class TestWorkConservation:
    def test_no_idle_pcpu_while_vcpus_queued(self):
        machine = build_machine(num_vcpus=16, seed=2)
        machine.run(max_time_s=0.2)
        queued = sum(p.workload for p in machine.pcpus)
        idle = sum(1 for p in machine.pcpus if p.idle)
        assert not (queued > 0 and idle > 0)

    def test_all_pcpus_busy_with_surplus_vcpus(self):
        machine = build_machine(num_vcpus=16, seed=2)
        machine.run(max_time_s=0.5)
        assert all(p.busy_time_s > 0.3 for p in machine.pcpus)


class TestNumaBlindSteal:
    def test_steal_ignores_node_boundaries(self):
        """Pin all work to node 0 initially; node 1 must steal it."""
        machine = build_machine(
            num_vcpus=16, seed=4, pins=[0, 1, 2, 3] * 4
        )
        machine.run(max_time_s=0.2)
        node1 = [machine.pcpus[p] for p in machine.topology.pcpus_of_node(1)]
        assert any(not p.idle for p in node1)
        assert machine.cross_node_migrations > 0

    def test_wake_placement_prefers_lighter_pcpu(self):
        machine = build_machine(num_vcpus=2, pins=[0, 0])
        policy = machine.policy
        machine.run(max_time_s=0.002)
        vcpu = machine.vcpus[1]
        # All other PCPUs are idle; the wake target must leave PCPU 0.
        target = policy.on_vcpu_wake(vcpu, 0.002)
        assert target != 0

    def test_wake_with_no_lighter_pcpu_stays_home_without_rng_draw(self):
        """The empty-``lighter`` guard: when nowhere is less loaded than
        home the VCPU stays put, and crucially *no* draw is taken from
        the ``credit.wake`` stream — ``rng.integers(0)`` would raise,
        and even a discarded draw would perturb every later wake in the
        run, breaking paired-seed comparability."""
        machine = build_machine(num_vcpus=8, pins=list(range(8)))
        policy = machine.policy
        state_before = machine.rng.get("credit.wake").bit_generator.state
        for vcpu in machine.vcpus:  # perfectly even load: 1 per PCPU
            assert policy.on_vcpu_wake(vcpu, 0.0) == vcpu.pcpu
        assert machine.rng.get("credit.wake").bit_generator.state == state_before


class TestIdleSteals:
    """``idle_steals(n)`` draws exactly what ``n`` empty-machine steals do."""

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES + ("vprobe-h",))
    @pytest.mark.parametrize("n", [0, 1, 9, 70])
    def test_matches_real_steal_calls(self, scheduler, n):
        def empty_machine():
            policy = make_scheduler(scheduler)
            return Machine(xeon_e5620(), policy, SimConfig(seed=11))

        stealing = empty_machine()
        for i in range(n):
            pcpu = stealing.pcpus[i % len(stealing.pcpus)]
            assert stealing.policy.steal(pcpu, 0.001 * i) is None
        batched = empty_machine()
        batched.policy.idle_steals(n)
        assert rng_states(batched) == rng_states(stealing)
        assert len(batched.log) == 0
        assert not any(p.queue for p in batched.pcpus)

    def test_repeated_and_mixed_counts_reuse_blocks_exactly(self):
        # The row blocks are cached per count; the stream must still
        # advance as one permutation(P) per steal, whatever the mix.
        machine = Machine(xeon_e5620(), make_scheduler("credit"), SimConfig(seed=5))
        stream = machine.rng.get("credit.steal")
        expected = np.random.default_rng()
        expected.bit_generator.state = stream.bit_generator.state
        counts = [3, 3, 1, 7, 3, 1, 7, 7, 2]
        for n in counts:
            machine.policy.idle_steals(n)
        for _ in range(sum(counts)):
            expected.permutation(len(machine.pcpus))
        assert stream.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("under_only", [False, True])
    @pytest.mark.parametrize("own_queue", [False, True])
    def test_empty_peers_cost_one_permutation(self, under_only, own_queue):
        # The early exit comes after the draw: the stream still moves.
        machine = build_machine(num_vcpus=2, pins=[0, 0])
        thief = machine.pcpus[0]
        if not own_queue:
            for vcpu in machine.vcpus:
                thief.queue.remove(vcpu)
        stream = machine.rng.get("credit.steal")
        expected = np.random.default_rng()
        expected.bit_generator.state = stream.bit_generator.state
        expected.permutation(len(machine.pcpus))
        queued = list(thief.queue)
        assert machine.policy.steal(thief, 0.5, under_only=under_only) is None
        assert stream.bit_generator.state == expected.bit_generator.state
        assert list(thief.queue) == queued


class TestWeights:
    def test_refill_proportional_to_domain_weight(self):
        """A domain with double weight earns roughly double service."""
        from repro.workloads.generators import synthetic_profile
        from repro.xen.domain import Domain
        from repro.xen.memalloc import place_split
        from repro.xen.simulator import Machine, SimConfig

        topo = xeon_e5620()
        machine = Machine(topo, CreditScheduler(), SimConfig(seed=6, max_time_s=5.0))
        prof = synthetic_profile("llc-fr", total_instructions=None, with_phases=False)
        heavy = Domain.homogeneous(
            "heavy", 1 * GIB, place_split(8, 2), prof, 8, weight=512.0
        )
        light = Domain.homogeneous(
            "light", 1 * GIB, place_split(8, 2), prof, 8, weight=256.0
        )
        machine.add_domain(heavy)
        machine.add_domain(light)
        machine.run(max_time_s=2.0)

        def service(domain):
            return sum(
                machine.pmu.totals(v.key).instructions for v in domain.vcpus
            )

        ratio = service(heavy) / service(light)
        assert ratio == pytest.approx(2.0, rel=0.35)
