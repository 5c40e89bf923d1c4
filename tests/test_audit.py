"""Tests for repro.audit: invariants, fuzzing, metamorphic, shrinking.

The mutation-detection tests are the audit layer's own audit: each one
corrupts live machine state in a way a real bookkeeping bug would and
asserts the matching invariant fires.  A checker that passes clean runs
but also passes corrupted ones would be decorative.
"""

import json
import math
import pickle

import pytest

from repro.audit import (
    ENGINES,
    INVARIANT_NAMES,
    DifferentialResult,
    FuzzScenario,
    InvariantChecker,
    InvariantViolation,
    build_fuzz_machine,
    generate_scenario,
    repro_source,
    run_audit,
    run_differential,
    run_metamorphic,
    shrink,
    state_digest,
)
from repro.obs.schema import AUDIT_SCHEMA, validate_audit_report
from repro.xen.runqueue import RunQueue
from repro.xen.vcpu import VcpuState


def tiny_scenario(**overrides):
    """A scenario small enough to run under every engine in tests."""
    base = dict(
        seed=3,
        num_nodes=2,
        pcpus_per_node=2,
        scheduler="credit",
        profiles=("hungry",),
        vcpus=(4,),
        active=(4,),
        placements=("split",),
        work_scale=0.05,
        sample_period_s=0.25,
        max_time_s=0.3,
    )
    base.update(overrides)
    return FuzzScenario(**base)


def warm_machine(scenario=None, engine="reference", max_time_s=0.1):
    """A machine partway through a run, ready to be corrupted."""
    machine = build_fuzz_machine(scenario or tiny_scenario(), engine)
    machine.run(max_time_s=max_time_s)
    return machine


def expect_violation(invariant, fn):
    with pytest.raises(InvariantViolation) as excinfo:
        fn()
    err = excinfo.value
    assert err.invariant == invariant
    assert err.digest and err.engine
    return err


class TestCheckerConfig:
    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValueError, match="unknown invariant"):
            InvariantChecker(enabled=("placement", "no-such-check"))

    def test_invalid_cadence_rejected(self):
        with pytest.raises(ValueError):
            InvariantChecker(every=0)

    def test_disabled_subtracts_from_enabled(self):
        checker = InvariantChecker(disabled=("placement", "steal_locality"))
        assert checker.enabled == set(INVARIANT_NAMES) - {
            "placement",
            "steal_locality",
        }

    def test_describe_reports_configuration(self):
        checker = InvariantChecker(enabled=("placement",), every=4)
        desc = checker.describe()
        assert desc == {"enabled": ["placement"], "every": 4, "checks_run": 0}


class TestCleanRuns:
    def test_full_audit_passes_on_clean_run(self):
        machine = build_fuzz_machine(tiny_scenario(), "reference")
        checker = InvariantChecker(every=1)
        machine.run(audit=checker)
        assert checker.checks_run > 0
        assert machine.auditor is checker

    def test_all_invariants_disabled_means_zero_checks(self):
        machine = build_fuzz_machine(tiny_scenario(), "reference")
        checker = InvariantChecker(enabled=(), every=1)
        machine.run(audit=checker)
        assert checker.checks_run == 0

    def test_audit_true_attaches_default_checker(self):
        machine = build_fuzz_machine(tiny_scenario(), "reference")
        machine.run(audit=True)
        assert isinstance(machine.auditor, InvariantChecker)

    def test_audited_run_is_bitwise_identical(self):
        from repro.metrics.collectors import summarize
        from repro.obs.manifest import canonical_dumps

        texts = []
        for audit in (None, InvariantChecker(every=1)):
            machine = build_fuzz_machine(tiny_scenario(), "reference")
            machine.run(audit=audit)
            texts.append(
                canonical_dumps(summarize(machine).to_dict(include_profile=False))
            )
        assert texts[0] == texts[1]

    def test_checkpoint_payload_excludes_auditor(self):
        machine = build_fuzz_machine(tiny_scenario(), "reference")
        machine.run(max_time_s=0.05, audit=True)
        restored = pickle.loads(pickle.dumps(machine))
        assert restored.auditor is None
        assert machine.auditor is not None  # the live machine keeps its checker

    def test_checker_rebinds_across_machines(self):
        """One checker auditing two runs must not leak conservation
        history from the first machine into the second."""
        checker = InvariantChecker(every=1)
        warm = build_fuzz_machine(tiny_scenario(), "reference")
        warm.run(audit=checker)
        after_first = checker.checks_run
        second = build_fuzz_machine(tiny_scenario(seed=9), "reference")
        second.run(audit=checker)  # would raise if history leaked
        assert checker.checks_run > after_first


class TestMutationDetection:
    """Every invariant must catch the corruption it exists for."""

    def test_placement_catches_non_running_current(self):
        machine = warm_machine()
        checker = InvariantChecker(every=1)
        victim = next(p.current for p in machine.pcpus if p.current is not None)
        victim.state = VcpuState.BLOCKED
        expect_violation("placement", lambda: checker.after_schedule(machine))

    def test_placement_catches_double_queueing(self):
        machine = warm_machine(tiny_scenario(vcpus=(6,), active=(6,)))
        checker = InvariantChecker(every=1)
        queued = next(v for p in machine.pcpus for v in p.queue)
        other = next(p for p in machine.pcpus if queued not in p.queue)
        other.queue.push(queued)
        expect_violation("placement", lambda: checker.after_schedule(machine))

    def test_placement_catches_vanished_runnable(self):
        machine = warm_machine(tiny_scenario(vcpus=(6,), active=(6,)))
        checker = InvariantChecker(enabled=("placement",), every=1)
        queued = next(v for p in machine.pcpus for v in p.queue)
        machine.pcpus[queued.pcpu].queue.remove(queued)
        expect_violation("placement", lambda: checker.after_schedule(machine))

    def test_placement_catches_skipped_queued_decrement(self, monkeypatch):
        # A dequeue that forgets the machine-wide queued count: the steal
        # paths and horizon sizing would trust a count no queue backs.
        def pop_keeping_count(queue):
            for q in queue._classes:
                if q:
                    return q.popleft()
            return None

        monkeypatch.setattr(RunQueue, "pop", pop_keeping_count)
        machine = build_fuzz_machine(
            tiny_scenario(vcpus=(6,), active=(6,)), "reference"
        )
        checker = InvariantChecker(enabled=("placement",), every=1)
        expect_violation(
            "placement", lambda: machine.run(max_time_s=0.1, audit=checker)
        )

    def test_work_conservation_catches_idle_with_queue(self):
        machine = warm_machine(tiny_scenario(vcpus=(6,), active=(6,)))
        checker = InvariantChecker(enabled=("work_conservation",), every=1)
        loaded = next(p for p in machine.pcpus if p.queue)
        loaded.current = None
        expect_violation(
            "work_conservation", lambda: checker.after_schedule(machine)
        )

    def test_credit_catches_out_of_bounds(self):
        machine = warm_machine()
        checker = InvariantChecker(enabled=("credit_conservation",), every=1)
        machine.vcpus[0].credits = 1e9
        expect_violation(
            "credit_conservation", lambda: checker.after_epoch(machine, True)
        )

    def test_credit_catches_total_moving_without_tick(self):
        machine = warm_machine()
        checker = InvariantChecker(enabled=("credit_conservation",), every=1)
        checker.after_epoch(machine, True)  # records the baseline total
        machine.vcpus[0].credits += 50.0  # in bounds, but from nowhere
        expect_violation(
            "credit_conservation", lambda: checker.after_epoch(machine, True)
        )

    def test_pmu_monotone_catches_counter_rollback(self):
        machine = warm_machine()
        checker = InvariantChecker(enabled=("pmu_monotone",), every=1)
        checker.after_epoch(machine, True)  # records current totals
        bank = machine.pmu.peek(machine.vcpus[0].key)
        bank.instructions -= 1.0
        expect_violation(
            "pmu_monotone", lambda: checker.after_epoch(machine, True)
        )

    def test_pmu_window_catches_detached_base(self):
        machine = warm_machine()
        checker = InvariantChecker(enabled=("pmu_window",), every=1)
        key = machine.vcpus[0].key
        base = machine.pmu.peek_window_base(key)
        machine.pmu.peek(key).instructions = base.instructions - 1.0
        expect_violation(
            "pmu_window", lambda: checker.after_epoch(machine, True)
        )

    def test_epoch_clock_catches_epoch_index_drift(self):
        machine = warm_machine()
        checker = InvariantChecker(enabled=("epoch_clock",), every=1)
        checker.after_epoch(machine, True)  # seeds the time chain
        machine.epoch_index += 1
        expect_violation("epoch_clock", lambda: checker.after_epoch(machine, True))

    def test_epoch_clock_catches_tick_drift(self):
        machine = warm_machine()
        checker = InvariantChecker(enabled=("epoch_clock",), every=1)
        machine.tick_index += 1
        expect_violation("epoch_clock", lambda: checker.after_epoch(machine, True))

    def test_partition_spread_catches_uneven_round(self):
        machine = warm_machine()
        checker = InvariantChecker(enabled=("partition_spread",))
        expect_violation(
            "partition_spread",
            lambda: checker.check_partition(machine, 1.0, [3, 0], [None] * 3),
        )

    def test_partition_spread_catches_lost_decisions(self):
        machine = warm_machine()
        checker = InvariantChecker(enabled=("partition_spread",))
        expect_violation(
            "partition_spread",
            lambda: checker.check_partition(machine, 1.0, [1, 1], [None] * 3),
        )

    def test_partition_hook_accepts_even_round(self):
        machine = warm_machine()
        checker = InvariantChecker(enabled=("partition_spread",))
        checker.check_partition(machine, 1.0, [2, 1], [None] * 3)
        checker.check_partition(machine, 1.0, [0, 0], [])
        assert checker.checks_run == 2

    def test_steal_locality_catches_remote_steal_over_local_work(self):
        machine = build_fuzz_machine(tiny_scenario(vcpus=(4,), active=(4,)), "reference")
        checker = InvariantChecker(enabled=("steal_locality",))
        thief = machine.pcpus[0]
        local_victim = machine.pcpus[1]  # same node as the thief
        cold = machine.vcpus[0]
        stolen = machine.vcpus[1]
        for pcpu in machine.pcpus:
            for v in list(pcpu.queue):
                pcpu.queue.remove(v)
        cold.pcpu = local_victim.pcpu_id
        cold.last_ran_time = -10.0
        local_victim.queue.push(cold)
        stolen.pcpu = machine.topology.pcpus_of_node(1)[0]  # remote victim
        expect_violation(
            "steal_locality",
            lambda: checker.check_steal(
                machine, thief, stolen, 1.0, True, 0.020
            ),
        )

    def test_steal_locality_catches_busy_thief_taking_hot_work(self):
        machine = warm_machine()
        checker = InvariantChecker(enabled=("steal_locality",))
        thief = next(p for p in machine.pcpus if p.current is not None)
        hot = next(v for v in machine.vcpus if v is not thief.current)
        hot.last_ran_time = machine.time
        expect_violation(
            "steal_locality",
            lambda: checker.check_steal(
                machine, thief, hot, machine.time, False, 0.020
            ),
        )

    def test_steal_locality_accepts_local_steal(self):
        machine = build_fuzz_machine(tiny_scenario(), "reference")
        checker = InvariantChecker(enabled=("steal_locality",))
        thief = machine.pcpus[0]
        stolen = machine.vcpus[0]
        stolen.pcpu = machine.pcpus[1].pcpu_id  # same-node victim
        stolen.last_ran_time = -10.0
        checker.check_steal(machine, thief, stolen, 1.0, True, 0.020)
        assert checker.checks_run == 1


class TestStateDigest:
    def test_digest_is_deterministic(self):
        a = build_fuzz_machine(tiny_scenario(), "reference")
        b = build_fuzz_machine(tiny_scenario(), "reference")
        assert state_digest(a) == state_digest(b)

    def test_digest_sees_credit_mutations(self):
        machine = build_fuzz_machine(tiny_scenario(), "reference")
        before = state_digest(machine)
        machine.vcpus[0].credits += 1.0
        assert state_digest(machine) != before


class TestFuzzScenario:
    def test_generator_is_deterministic(self):
        assert generate_scenario(11) == generate_scenario(11)

    def test_json_round_trip(self):
        scenario = generate_scenario(11)
        restored = FuzzScenario.from_dict(
            json.loads(json.dumps(scenario.to_dict()))
        )
        assert restored == scenario

    def test_generated_scenarios_are_well_formed(self):
        for seed in range(20):
            s = generate_scenario(seed)
            assert 1 <= len(s.profiles) <= 3
            assert all(1 <= a <= nv for a, nv in zip(s.active, s.vcpus))
            assert s.fault == "churn" or s.churn_at_s == 0.0

    def test_most_seeds_draw_the_fast_engines_host(self):
        # The batched engine runs only on dual-socket hosts, so most
        # seeds must draw one (varied cores per node) for the fuzzer to
        # compare engines: at least 20 of 25, and 4 of CI's 5 seeds.
        shapes = [generate_scenario(seed) for seed in range(25)]
        dual = [s for s in shapes if s.num_nodes == 2]
        assert len(dual) >= 20
        assert sum(1 for s in shapes[:5] if s.num_nodes == 2) >= 4
        assert {s.pcpus_per_node for s in dual} <= {2, 3, 4, 5, 6}
        assert len({s.pcpus_per_node for s in dual}) >= 3
        assert {s.num_nodes for s in shapes} - {2}, "no non-dual shape left"

    def test_misaligned_domains_rejected(self):
        with pytest.raises(ValueError, match="vcpus"):
            tiny_scenario(profiles=("hungry", "mcf"))


class TestDifferential:
    def test_clean_scenario_passes(self):
        result = run_differential(tiny_scenario(), engines=("reference", "batched"))
        assert result.ok and result.kind == "ok"
        assert result.checks_run > 0
        assert set(result.summaries) == {"reference", "batched"}
        assert result.summaries["reference"] == result.summaries["batched"]
        assert result.comparisons == 1

    @pytest.mark.parametrize(
        "engines", [("reference", "batched"), ("batched", "reference")]
    )
    def test_non_dual_host_runs_the_reference_loop_once(self, engines):
        # A 3-node host builds no batched engine, so either setting runs
        # the reference loop: one run, with every invariant checked.
        scenario = tiny_scenario(num_nodes=3)
        result = run_differential(scenario, engines=engines)
        single = run_differential(scenario, engines=engines[:1])
        assert result.ok and result.kind == "ok"
        assert set(result.summaries) == {engines[0]}
        assert result.checks_run == single.checks_run > 0
        assert result.comparisons == 0

    def test_divergence_reported_with_first_difference(self, monkeypatch):
        import repro.audit.fuzz as fuzz

        texts = iter(['{"steals": 4}', '{"steals": 5}'])
        monkeypatch.setattr(fuzz, "canonical_dumps", lambda obj: next(texts))
        result = run_differential(tiny_scenario(), engines=("reference", "batched"))
        assert not result.ok
        assert result.kind == "divergence"
        assert result.engine == "batched"
        assert "first difference at char" in result.detail

    def test_surplus_idle_steal_draw_reported(self, monkeypatch):
        # One extra permutation per horizon changes no summary field:
        # only the end-of-run RNG comparison can see it.
        from repro.xen.credit import CreditScheduler

        orig = CreditScheduler.idle_steals
        monkeypatch.setattr(
            CreditScheduler, "idle_steals", lambda self, n: orig(self, n + 1)
        )
        result = run_differential(
            tiny_scenario(vcpus=(2,), active=(2,)), engines=("reference", "batched")
        )
        assert not result.ok
        assert result.kind == "divergence"
        assert result.engine == "batched"
        assert "'credit.steal'" in result.detail
        assert result.summaries["reference"] == result.summaries["batched"]

    @staticmethod
    def _perturb_warmth(monkeypatch, when):
        """Scale one LLC warmth entry of a VCPU that is not running there
        by ``1 + 1e-9``, on the batched engine only, after the first
        horizon ending at or past ``when(scenario end)``; returns the
        ``(node, key)`` list it perturbed."""
        from repro.xen.engine import BatchedEngine

        orig = BatchedEngine.step
        hit = []

        def perturbed(self, now, limit):
            kb, end = orig(self, now, limit)
            machine = self.machine
            if not hit and end >= when(machine.config.max_time_s):
                running = {(p.node, p.current.key) for p in machine.pcpus if p.current}
                for node, cache in enumerate(machine.caches):
                    table = cache.state.warmth_table
                    key = next((k for k in table if (node, k) not in running), None)
                    if key is not None:
                        table[key] *= 1.0 + 1e-9
                        hit.append((node, key))
                        break
            return kb, end

        monkeypatch.setattr(BatchedEngine, "step", perturbed)
        return hit

    def test_mid_run_warmth_perturbation_reported(self, monkeypatch):
        # One absent VCPU's warmth nudged halfway through, batched only:
        # however it surfaces (here the VCPU runs there again, so its
        # miss rate moves the summary), the engines must diverge.
        hit = self._perturb_warmth(monkeypatch, lambda end: end / 2)
        scenario = tiny_scenario(vcpus=(6,), active=(6,))
        result = run_differential(scenario, engines=("reference", "batched"))
        assert len(hit) == 1
        assert not result.ok
        assert result.kind == "divergence"
        assert result.engine == "batched"

    def test_final_warmth_perturbation_names_node_and_key(self, monkeypatch):
        # Nudged in the run's last horizon, the entry can change no
        # summary field and no RNG state: only the end-of-run warmth
        # comparison sees it, and it names the entry.
        hit = self._perturb_warmth(monkeypatch, lambda end: end - 1e-9)
        scenario = tiny_scenario(vcpus=(6,), active=(6,))
        result = run_differential(scenario, engines=("reference", "batched"))
        assert len(hit) == 1
        assert not result.ok
        assert result.kind == "divergence"
        assert result.engine == "batched"
        assert f"LLC warmth (node, key) {hit[0]!r}" in result.detail
        assert result.summaries["reference"] == result.summaries["batched"]

    def test_warmth_compared_entry_by_entry(self):
        # Insertion order may differ between engines; values may not.
        from repro.audit.fuzz import _first_changed_key, warmth_tables

        machine = build_fuzz_machine(tiny_scenario(), "batched")
        machine.caches[0].state.warmth_table.update({2: 0.25, 1: 0.5})
        machine.caches[1].state.warmth_table[3] = 0.0
        tables = warmth_tables(machine)
        assert tables == {
            (0, 2): (0.25).hex(), (0, 1): (0.5).hex(), (1, 3): (0.0).hex()
        }
        reordered = dict(reversed(list(tables.items())))
        assert _first_changed_key(tables, reordered) is None
        nudged = {**tables, (0, 2): math.nextafter(0.25, 1.0).hex()}
        assert _first_changed_key(tables, nudged) == (0, 2)
        assert _first_changed_key(tables, {**tables, (1, 3): (-0.0).hex()}) == (1, 3)
        assert _first_changed_key(tables, {(0, 2): (0.25).hex()}) == (0, 1)

    def test_invariant_violation_reported(self, monkeypatch):
        import repro.audit.fuzz as fuzz

        class AlwaysFail(InvariantChecker):
            def after_schedule(self, machine):
                self.checks_run += 1
                self._fail(machine, "placement", "forced failure")

        monkeypatch.setattr(
            fuzz, "InvariantChecker", lambda enabled=None, every=1: AlwaysFail()
        )
        result = run_differential(tiny_scenario(), engines=("reference",))
        assert not result.ok
        assert result.kind == "invariant"
        assert result.engine == "reference"
        assert "[placement] forced failure" in result.detail

    def test_crash_reported_as_error(self):
        result = run_differential(
            tiny_scenario(scheduler="no-such-policy"), engines=("reference",)
        )
        assert not result.ok
        assert result.kind == "error"
        assert result.engine == "reference"


def synthetic_check(predicate):
    """A run_differential stand-in failing exactly when predicate holds."""

    def check(scenario):
        if predicate(scenario):
            return DifferentialResult(
                scenario, ok=False, kind="divergence", engine="batched",
                detail="synthetic",
            )
        return DifferentialResult(scenario, ok=True, kind="ok")

    return check


class TestShrink:
    def big_failure(self, check):
        scenario = tiny_scenario(
            num_nodes=4,
            pcpus_per_node=4,
            profiles=("mcf", "hungry", "lu"),
            vcpus=(4, 4, 4),
            active=(4, 4, 4),
            placements=("split", "interleaved", "node3"),
            fault="noisy",
            max_time_s=1.2,
        )
        return check(scenario)

    def test_greedy_shrink_reaches_minimum(self):
        check = synthetic_check(lambda s: len(s.profiles) >= 2)
        shrunk = shrink(self.big_failure(check), check=check)
        s = shrunk.scenario
        assert len(s.profiles) == 2  # dropping to 1 makes it pass
        assert s.fault == "none"
        assert s.max_time_s == 0.2
        assert s.vcpus == (1, 1)
        assert s.num_nodes == 2 and s.pcpus_per_node == 2
        assert all(p == "node0" for p in s.placements)
        assert not shrunk.ok  # still fails the same way

    def test_shrink_respects_budget(self):
        calls = []

        def check(scenario):
            calls.append(scenario)
            return DifferentialResult(
                scenario, ok=False, kind="divergence", engine="batched"
            )

        shrink(self.big_failure(check), budget=3, check=check)
        assert len(calls) <= 4  # the original probe plus the budget

    def test_shrinking_a_pass_is_an_error(self):
        ok = DifferentialResult(tiny_scenario(), ok=True, kind="ok")
        with pytest.raises(ValueError):
            shrink(ok)

    def test_repro_source_is_executable(self):
        check = synthetic_check(lambda s: True)
        failure = check(tiny_scenario())
        src = repro_source(failure, "test_generated_repro")
        assert "FuzzScenario(" in src and "seed=3," in src
        namespace = {
            "FuzzScenario": FuzzScenario,
            "run_differential": lambda s: DifferentialResult(s, True, "ok"),
        }
        exec(compile(src, "<repro>", "exec"), namespace)
        namespace["test_generated_repro"]()  # passes once the bug is fixed
        namespace["run_differential"] = check
        with pytest.raises(AssertionError):
            namespace["test_generated_repro"]()  # fails while it is not


class TestMetamorphic:
    def test_relations_hold_on_tiny_scenario(self):
        results = run_metamorphic(tiny_scenario(), every=8)
        assert [r.relation for r in results] == [
            "relabel",
            "work_scale",
            "node_permutation",
        ]
        for r in results:
            assert r.ok, f"{r.relation}: {r.detail}"
        relabel = results[0]
        assert not relabel.skipped


class TestAuditReport:
    def test_small_campaign_report_validates(self):
        report = run_audit(seeds=2, metamorphic=False, progress=lambda s: None)
        assert report.ok
        assert len(report.results) == 2
        assert report.checks_run > 0
        assert not report.budget_exhausted
        obj = json.loads(report.to_json())
        assert obj["schema"] == AUDIT_SCHEMA
        assert validate_audit_report(obj) == []
        # Seeds 0 and 1 draw dual-socket hosts: both compare engines.
        assert report.engine_comparisons == 2
        assert obj["payload"]["engine_comparisons"] == 2

    def test_exhausted_budget_is_reported_not_hidden(self):
        report = run_audit(seeds=3, budget_s=-1.0, metamorphic=False)
        assert report.budget_exhausted
        assert report.skipped_seeds == (0, 1, 2)
        assert report.results == ()


class TestCliAudit:
    def test_audit_command_writes_valid_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "audit.json"
        rc = main(
            [
                "audit",
                "--seeds",
                "1",
                "--no-metamorphic",
                "--engines",
                "reference",
                "batched",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert "audit:" in capsys.readouterr().out
        assert validate_audit_report(json.loads(out.read_text())) == []
        assert main(["validate", str(out)]) == 0


class TestRunnerIntegration:
    def test_audited_execute_cell_matches_plain_run(self):
        from repro.experiments import ScenarioConfig, execute_cell, spec_scenario

        cfg = ScenarioConfig(work_scale=0.02, seed=5, max_time_s=0.3)
        builder = lambda policy, c: spec_scenario("lu", policy, c)  # noqa: E731
        audited = execute_cell(builder, "credit", cfg, audit=True)
        assert audited.machine_stats.sim_time_s > 0
        assert audited == execute_cell(builder, "credit", cfg)

    def test_audit_true_uses_a_fresh_checker_per_cell(self):
        # ``audit=True`` builds a new checker for each run, so one
        # cell's history never leaks into the next one's checks.
        from repro.experiments import ScenarioConfig, execute_cell, spec_scenario

        cfg = ScenarioConfig(work_scale=0.02, seed=5, max_time_s=0.3)
        builder = lambda policy, c: spec_scenario("lu", policy, c)  # noqa: E731
        results = {
            name: execute_cell(builder, name, cfg, audit=True)
            for name in ("credit", "vprobe")
        }
        assert [s.policy for s in results.values()] == ["credit", "vprobe"]
