"""Tests for repro.experiments.scenarios: the §V-A setups."""

import pytest

from repro.core.classify import Bounds
from repro.core.vprobe import VProbeParams, VProbeScheduler
from repro.experiments.scenarios import (
    SCHEDULER_NAMES,
    ScenarioConfig,
    make_scheduler,
    memcached_scenario,
    mix_scenario,
    motivation_scenario,
    npb_scenario,
    overhead_scenario,
    redis_scenario,
    solo_scenario,
    spec_scenario,
)

GIB = 1024**3
CFG = ScenarioConfig(work_scale=0.05, seed=0)


class TestMakeScheduler:
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_all_names_construct(self, name):
        assert make_scheduler(name).name == name

    def test_case_insensitive(self):
        assert make_scheduler("VProbe").name == "vprobe"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("cfs")

    @pytest.mark.parametrize(
        "name, vparams",
        [
            ("vprobe", {}),
            ("vprobe-dynamic-bounds", {"dynamic_bounds": True}),
            ("vprobe-page-migration", {"page_migration": True}),
            ("vprobe-all-friendly", {"bounds": Bounds(low=1e6, high=2e6)}),
        ],
    )
    def test_ablation_variants_match_direct_construction(self, name, vparams):
        # The ablations used to build these policies inline; by name
        # they must be the very same policy.
        built = make_scheduler(name)
        direct = VProbeScheduler(vparams=VProbeParams(**vparams))
        assert built.vparams == direct.vparams
        assert built.params == direct.params
        assert built.name == direct.name == "vprobe"

    def test_variants_stay_out_of_the_paper_five(self):
        variants = {"vprobe-h", "vprobe-dynamic-bounds", "vprobe-page-migration"}
        assert not variants & set(SCHEDULER_NAMES)


class TestSpecScenario:
    def test_three_vm_layout(self):
        machine = spec_scenario("soplex", make_scheduler("credit"), CFG)
        assert [d.name for d in machine.domains] == ["vm1", "vm2", "vm3"]
        assert all(d.num_vcpus == 8 for d in machine.domains)

    def test_vm_memory_sizes(self):
        machine = spec_scenario("soplex", make_scheduler("credit"), CFG)
        assert machine.domain("vm1").memory_bytes == 15 * GIB
        assert machine.domain("vm2").memory_bytes == 5 * GIB
        assert machine.domain("vm3").memory_bytes == 1 * GIB

    def test_default_instance_split_4_4(self):
        machine = spec_scenario("soplex", make_scheduler("credit"), CFG)
        assert sum(w.active for w in machine.domain("vm1").workloads) == 4
        assert sum(w.active for w in machine.domain("vm2").workloads) == 4

    def test_mcf_instance_split_6_2(self):
        """§V-B1: VM2's 5 GB only fits two mcf instances."""
        machine = spec_scenario("mcf", make_scheduler("credit"), CFG)
        assert sum(w.active for w in machine.domain("vm1").workloads) == 6
        assert sum(w.active for w in machine.domain("vm2").workloads) == 2

    def test_vm3_runs_hungry_loops(self):
        machine = spec_scenario("soplex", make_scheduler("credit"), CFG)
        vm3 = machine.domain("vm3")
        assert all(w.profile.name == "hungry-loop" for w in vm3.workloads)
        assert all(w.active for w in vm3.workloads)

    def test_work_scale_applies(self):
        small = spec_scenario("soplex", make_scheduler("credit"), CFG)
        big = spec_scenario(
            "soplex", make_scheduler("credit"), ScenarioConfig(work_scale=0.5)
        )
        assert (
            big.domain("vm1").workloads[0].profile.total_instructions
            > small.domain("vm1").workloads[0].profile.total_instructions
        )


class TestMixScenario:
    def test_one_instance_of_each_app(self):
        machine = mix_scenario(make_scheduler("credit"), CFG)
        names = [
            w.profile.name for w in machine.domain("vm1").workloads if w.active
        ]
        assert sorted(names) == ["libquantum", "mcf", "milc", "soplex"]


class TestNpbScenario:
    def test_four_threads_per_vm(self):
        machine = npb_scenario("lu", make_scheduler("credit"), CFG)
        assert sum(w.active for w in machine.domain("vm1").workloads) == 4
        assert all(
            w.profile.name == "lu"
            for w in machine.domain("vm1").workloads
            if w.active
        )


class TestServiceScenarios:
    def test_memcached_eight_workers(self):
        machine = memcached_scenario(48, make_scheduler("credit"), CFG)
        assert sum(w.active for w in machine.domain("vm1").workloads) == 8

    def test_redis_four_servers(self):
        machine = redis_scenario(4000, make_scheduler("credit"), CFG)
        assert sum(w.active for w in machine.domain("vm1").workloads) == 4


class TestSoloScenario:
    def test_single_pinned_vcpu(self):
        machine = solo_scenario("lu", make_scheduler("credit"), CFG)
        assert len(machine.domains) == 1
        vcpu = machine.vcpus[0]
        assert vcpu.pcpu == 0
        # Memory local to node 0 (pin + first touch agree).
        assert machine.domain("vm1").placement.home_node(0) == 0


class TestMotivationScenario:
    def test_ii_b_memory_sizes(self):
        machine = motivation_scenario("lu", make_scheduler("credit"), CFG)
        assert machine.domain("vm1").memory_bytes == 8 * GIB
        assert machine.domain("vm3").memory_bytes == 2 * GIB


class TestOverheadScenario:
    @pytest.mark.parametrize("n", [1, 4])
    def test_vm_count_and_shape(self, n):
        machine = overhead_scenario(n, make_scheduler("vprobe"), CFG)
        assert len(machine.domains) == n
        assert all(d.num_vcpus == 2 for d in machine.domains)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            overhead_scenario(0, make_scheduler("vprobe"), CFG)


class TestPairing:
    def test_same_seed_same_initial_placement_across_schedulers(self):
        a = spec_scenario("soplex", make_scheduler("credit"), CFG)
        b = spec_scenario("soplex", make_scheduler("vprobe"), CFG)
        assert [v.pcpu for v in a.vcpus] == [v.pcpu for v in b.vcpus]


class TestEpochCap:
    def test_timeout_names_the_scenario(self):
        from repro.xen.simulator import SimulationTimeout

        cfg = ScenarioConfig(
            work_scale=0.05, seed=0, max_epochs=10, label="tiny mix"
        )
        machine = mix_scenario(make_scheduler("credit"), cfg)
        with pytest.raises(SimulationTimeout, match="tiny mix") as err:
            machine.run()
        assert err.value.max_epochs == 10
        assert err.value.sim_time_s > 0

    def test_generous_cap_does_not_fire(self):
        cfg = ScenarioConfig(work_scale=0.02, seed=0, max_epochs=100_000)
        machine = mix_scenario(make_scheduler("credit"), cfg)
        machine.run()  # completes normally

    def test_invalid_cap_rejected(self):
        cfg = ScenarioConfig(work_scale=0.05, max_epochs=0)
        with pytest.raises(ValueError, match="max_epochs"):
            mix_scenario(make_scheduler("credit"), cfg)
