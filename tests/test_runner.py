"""Tests for repro.experiments.runner."""

import pytest

from repro.experiments.runner import compare, execute_cell
from repro.experiments.scenarios import SCHEDULER_NAMES, ScenarioConfig, solo_scenario

CFG = ScenarioConfig(work_scale=0.02, seed=0)


def builder(policy, cfg):
    return solo_scenario("lu", policy, cfg)


class TestRunOne:
    """One cell through :func:`execute_cell`."""

    def test_returns_summary_with_policy_name(self):
        summary = execute_cell(builder, "credit", CFG)
        assert summary.policy == "credit"
        assert summary.domain("vm1").instructions > 0

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            execute_cell(builder, "o1-scheduler", CFG)


class TestCompare:
    def test_defaults_to_all_five_schedulers(self):
        results = compare(builder, CFG)
        assert tuple(results) == SCHEDULER_NAMES

    def test_preserves_requested_order(self):
        results = compare(builder, CFG, ("lb", "credit"))
        assert tuple(results) == ("lb", "credit")

    def test_summaries_keyed_consistently(self):
        results = compare(builder, CFG, ("credit", "vprobe"))
        for name, summary in results.items():
            assert summary.policy == name


class TestCompareMean:
    def test_paired_over_seeds(self):
        from repro.experiments.runner import compare_mean

        stats = compare_mean(builder, CFG, ("credit", "vprobe"), seeds=(0, 1))
        assert set(stats) == {"credit", "vprobe"}
        for entry in stats.values():
            assert entry.seeds == 2
            assert entry.mean_runtime_s > 0
            assert entry.stdev_runtime_s >= 0
            assert 0.0 <= entry.mean_remote_ratio <= 1.0

    def test_single_seed_has_zero_stdev(self):
        from repro.experiments.runner import compare_mean

        stats = compare_mean(builder, CFG, ("credit",), seeds=(5,))
        assert stats["credit"].stdev_runtime_s == 0.0
        assert stats["credit"].relative_stdev == 0.0

    def test_empty_seeds_rejected(self):
        import pytest as _pytest

        from repro.experiments.runner import compare_mean

        with _pytest.raises(ValueError):
            compare_mean(builder, CFG, ("credit",), seeds=())

    def test_unknown_domain_raises(self):
        from repro.experiments.runner import compare_mean

        with pytest.raises(KeyError):
            compare_mean(
                builder, CFG, ("credit",), seeds=(0,), domain="no-such-vm"
            )

    def test_subset_ordering_preserved(self):
        from repro.experiments.runner import compare_mean

        stats = compare_mean(builder, CFG, ("lb", "credit"), seeds=(0,))
        assert tuple(stats) == ("lb", "credit")
        assert all(s.scheduler == name for name, s in stats.items())


class TestAggregateMeanStats:
    def test_length_mismatch_rejected(self):
        from repro.experiments.runner import aggregate_mean_stats

        with pytest.raises(ValueError):
            aggregate_mean_stats(("credit",), (0, 1), [], domain="vm1")
