"""Tests for the content-addressed result cache (:mod:`repro.cache`).

The cache's entire value proposition rests on two claims: a hit is
*exactly* the result a fresh run would produce, and a key changes
whenever anything result-defining changes.  These tests pin both, plus
the failure modes (corruption, concurrency, unfingerprintable
builders) and the CLI/maintenance surface.
"""

import dataclasses
import json
import pathlib
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

import repro
from repro.cache import (
    CACHE_SCHEMA,
    ResultCache,
    builder_fingerprint,
    resolve_cache,
    result_key,
    scenario_key,
)
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import execute_cell
from repro.experiments.scenarios import (
    ScenarioConfig,
    mix_scenario,
    solo_scenario,
    spec_scenario,
)
from repro.faults.plan import FaultPlan, fault_preset

CFG = ScenarioConfig(work_scale=0.02, seed=0)
BUILDER = partial(solo_scenario, "lu")


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def run_cell(scheduler, cfg=CFG, cache=None, builder=BUILDER):
    """One cell through a serial runner backed by ``cache``."""
    return ParallelRunner(cache=cache).run_cells([(builder, scheduler, cfg)])[0]


class TestBuilderFingerprint:
    def test_module_level_function(self):
        assert (
            builder_fingerprint(mix_scenario)
            == "repro.experiments.scenarios.mix_scenario()"
        )

    def test_partial_with_primitive_args(self):
        fp = builder_fingerprint(partial(spec_scenario, "soplex"))
        assert fp == "repro.experiments.scenarios.spec_scenario('soplex')"

    def test_nested_partial_and_keywords(self):
        fp = builder_fingerprint(
            partial(partial(spec_scenario, "mcf"), instances=4)
        )
        assert "mcf" in fp and "instances=4" in fp

    def test_lambda_has_no_identity(self):
        assert builder_fingerprint(lambda policy, cfg: None) is None

    def test_closure_has_no_identity(self):
        def outer():
            def inner(policy, cfg):
                return None

            return inner

        assert builder_fingerprint(outer()) is None

    def test_non_primitive_bound_arg_has_no_identity(self):
        assert builder_fingerprint(partial(spec_scenario, object())) is None

    def test_unidentified_builder_bypasses_cache(self, cache):
        builder = lambda policy, cfg: solo_scenario("lu", policy, cfg)  # noqa: E731
        assert result_key(builder, "credit", CFG) is None
        # the runner must fall back to the raw path without touching disk
        summary = run_cell("credit", cache=cache, builder=builder)
        assert summary == execute_cell(BUILDER, "credit", CFG)
        assert cache.hits == cache.misses == cache.stores == 0
        assert not any(cache.root.iterdir())


class TestKeySensitivity:
    def key(self, **overrides):
        return result_key(BUILDER, "credit", dataclasses.replace(CFG, **overrides))

    def test_changed_result_fields_miss(self):
        base = self.key()
        assert base != self.key(work_scale=0.03)
        assert base != self.key(seed=1)
        assert base != self.key(sample_period_s=2.0)
        assert base != self.key(max_time_s=99.0)
        assert base != result_key(BUILDER, "vprobe", CFG)
        assert base != result_key(partial(solo_scenario, "mg"), "credit", CFG)

    def test_fault_plan_changes_key(self):
        base = self.key()
        chaos = self.key(faults=fault_preset("chaos"))
        drop = self.key(faults=FaultPlan(drop_rate=0.5))
        assert len({base, chaos, drop}) == 3

    def test_non_result_fields_share_key(self):
        base = self.key()
        assert base == self.key(engine="reference")
        assert base == self.key(log_events=True)
        assert base == self.key(label="something else")

    def test_version_stamp_invalidates(self, monkeypatch):
        base = self.key()
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert base != self.key()

    def test_scenario_key_explicit_identity(self):
        a = scenario_key("b()", "credit", CFG)
        b = scenario_key("b()", "vprobe", CFG)
        assert a != b and len(a) == 64


class TestHitEquality:
    def test_hit_equals_fresh_run(self, cache):
        fresh = run_cell("vprobe", CFG, cache)
        hit = run_cell("vprobe", CFG, cache)
        assert cache.hits == 1 and cache.stores == 1
        assert hit == fresh
        # field-for-field, not just dataclass __eq__
        assert hit.to_dict(include_profile=True) == fresh.to_dict(
            include_profile=True
        )

    def test_hit_preserves_fault_stats(self, cache):
        cfg = dataclasses.replace(CFG, faults=fault_preset("chaos"))
        fresh = run_cell("vprobe", cfg, cache)
        hit = run_cell("vprobe", cfg, cache)
        assert fresh.fault_stats is not None
        assert hit.fault_stats == fresh.fault_stats

    def test_uncached_path_unchanged(self, cache):
        assert run_cell("credit") == execute_cell(BUILDER, "credit", CFG)


class TestCorruption:
    def fill(self, cache):
        summary = run_cell("credit", CFG, cache)
        return result_key(BUILDER, "credit", CFG), summary

    def test_truncated_entry_is_miss_and_rewritten(self, cache):
        key, summary = self.fill(cache)
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert cache.get(key) is None
        rerun = run_cell("credit", CFG, cache)
        assert rerun == summary
        assert cache.get(key) == summary  # rewritten

    def test_garbage_entry_is_miss(self, cache):
        key, _ = self.fill(cache)
        cache.path_for(key).write_text("not json at all {{{")
        assert cache.get(key) is None

    def test_wrong_schema_is_miss(self, cache):
        key, _ = self.fill(cache)
        entry = json.loads(cache.path_for(key).read_text())
        entry["schema"] = "something/else"
        cache.path_for(key).write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_missing_summary_fields_is_miss(self, cache):
        key, _ = self.fill(cache)
        entry = json.loads(cache.path_for(key).read_text())
        del entry["summary"]["machine_stats"]["sim_time_s"]
        cache.path_for(key).write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_put_failure_reports_false(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        summary = execute_cell(BUILDER, "credit", CFG)
        # a plain file where the shard directory should go: mkdir fails
        (cache.root / "ab").write_text("in the way")
        assert cache.put("ab" + "0" * 62, summary) is False


def _concurrent_put(root: str) -> bool:
    """Worker: compute the same cell and store it under the same key."""
    cache = ResultCache(pathlib.Path(root))
    cfg = ScenarioConfig(work_scale=0.02, seed=0)
    builder = partial(solo_scenario, "lu")
    summary = execute_cell(builder, "credit", cfg)
    return cache.put(result_key(builder, "credit", cfg), summary)


class TestConcurrency:
    def test_two_processes_write_same_key(self, tmp_path):
        root = str(tmp_path / "cache")
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(_concurrent_put, [root, root]))
        assert results == [True, True]
        cache = ResultCache(pathlib.Path(root))
        assert cache.get(result_key(BUILDER, "credit", CFG)) == execute_cell(
            BUILDER, "credit", CFG
        )


class TestParallelRunnerCache:
    CELLS = [
        (BUILDER, sched, dataclasses.replace(CFG, seed=seed))
        for sched in ("credit", "vprobe")
        for seed in (0, 1, 2)
    ]

    def test_warm_run_all_hits_and_equal(self, cache):
        runner = ParallelRunner(1, cache=cache)
        cold = runner.run_cells(self.CELLS)
        assert (runner.cache_hits, runner.cache_misses) == (0, 6)
        warm = runner.run_cells(self.CELLS)
        assert (runner.cache_hits, runner.cache_misses) == (6, 0)
        assert warm == cold
        assert runner.total_cache_hits == 6
        assert runner.total_cache_misses == 6

    def test_parallel_warm_matches_serial_cold(self, cache):
        cold = ParallelRunner(1).run_cells(self.CELLS)
        ParallelRunner(2, cache=cache).run_cells(self.CELLS)
        warm_runner = ParallelRunner(2, cache=cache)
        assert warm_runner.run_cells(self.CELLS) == cold
        assert warm_runner.cache_misses == 0

    def test_chunksize_variants_match(self):
        # Dispatch has no chunk knob any more (each missing cell is one
        # future), so the grouping that is left to vary is how many
        # workers the cells are spread over; results must not depend on it.
        base = ParallelRunner(1).run_cells(self.CELLS)
        for jobs in (2, 3):
            runner = ParallelRunner(jobs)
            assert runner.run_cells(self.CELLS) == base

    def test_partial_warm_only_runs_misses(self, cache):
        runner = ParallelRunner(1, cache=cache)
        runner.run_cells(self.CELLS[:3])
        runner.run_cells(self.CELLS)
        assert (runner.cache_hits, runner.cache_misses) == (3, 3)


class TestMaintenance:
    def test_stats_prune_clear(self, cache, monkeypatch):
        run_cell("credit", CFG, cache)
        run_cell("vprobe", CFG, cache)
        # one corrupt entry + one stale (other version) entry
        key = result_key(BUILDER, "credit", CFG)
        (cache.root / key[:2] / ("f" * 64 + ".json")).write_text("{")
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        run_cell("lb", CFG, cache)
        monkeypatch.undo()
        stats = cache.scan()
        assert (stats.entries, stats.stale, stats.corrupt) == (2, 1, 1)
        assert "2 entries" in stats.format()
        assert cache.prune() == (1, 1)
        assert cache.scan().corrupt == cache.scan().stale == 0
        assert cache.clear() == 2
        assert cache.scan().entries == 0

    def test_resolve_cache_policy(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None, False) is None
        assert resolve_cache(tmp_path / "a", True) is None  # --no-cache wins
        assert resolve_cache(tmp_path / "a", False).root == tmp_path / "a"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache(None, False).root == tmp_path / "env"
        assert resolve_cache(tmp_path / "a", False).root == tmp_path / "a"
        assert resolve_cache(None, True) is None


class TestCliIntegration:
    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(
                    pathlib.Path(__file__).resolve().parents[1] / "src"
                ),
                "PATH": "/usr/bin:/bin",
            },
        )

    def test_compare_twice_hits_cache(self, tmp_path):
        args = (
            "compare",
            "lu",
            "--schedulers",
            "credit",
            "vprobe",
            "--work-scale",
            "0.02",
            "--cache-dir",
            str(tmp_path / "c"),
        )
        cold = self.run_cli(*args)
        warm = self.run_cli(*args)
        assert cold.returncode == warm.returncode == 0, cold.stderr
        assert "cache: 0 hits, 2 misses" in cold.stdout
        assert "cache: 2 hits, 0 misses" in warm.stdout
        # identical result tables either way
        table = lambda out: out.split("cache:")[0]
        assert table(cold.stdout) == table(warm.stdout)

    def test_compare_json_carries_cache_stats(self, tmp_path):
        out = tmp_path / "cmp.json"
        res = self.run_cli(
            "compare",
            "lu",
            "--schedulers",
            "credit",
            "--work-scale",
            "0.02",
            "--cache-dir",
            str(tmp_path / "c"),
            "--json",
            str(out),
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())["payload"]
        assert payload["cache"] == {"hits": 0, "misses": 1}
        assert payload["retried_cells"] == []

    def test_cache_subcommand(self, tmp_path):
        cdir = str(tmp_path / "c")
        self.run_cli(
            "compare", "lu", "--schedulers", "credit",
            "--work-scale", "0.02", "--cache-dir", cdir,
        )
        stats = self.run_cli("cache", "stats", "--cache-dir", cdir)
        assert stats.returncode == 0 and "1 entries" in stats.stdout
        prune = self.run_cli("cache", "prune", "--cache-dir", cdir)
        assert "pruned 0 stale, 0 corrupt" in prune.stdout
        clear = self.run_cli("cache", "clear", "--cache-dir", cdir)
        assert "removed 1 entries" in clear.stdout

    def test_cache_subcommand_requires_dir(self):
        res = self.run_cli("cache", "stats")
        assert res.returncode == 2
        assert "no cache directory" in res.stdout


class TestEntryFormat:
    def test_entry_carries_meta_and_version(self, cache):
        run_cell("vprobe", CFG, cache)
        key = result_key(BUILDER, "vprobe", CFG)
        entry = json.loads(cache.path_for(key).read_text())
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["version"] == repro.__version__
        assert entry["key"] == key
        assert entry["meta"]["scheduler"] == "vprobe"
        assert entry["meta"]["seed"] == 0

    def test_entries_sharded_by_key_prefix(self, cache):
        run_cell("vprobe", CFG, cache)
        key = result_key(BUILDER, "vprobe", CFG)
        assert cache.path_for(key).parent.name == key[:2]


class TestMaintenanceRaces:
    """prune/clear racing concurrent writers must never raise.

    A shared cache directory sees other processes writing (mkstemp temp
    files appearing), finishing (entries materialising) and pruning
    (entries vanishing) at any time.  The maintenance commands may
    under- or over-count in a race window, but they may not crash, and
    a surviving half-written entry must read as a miss, never poison a
    result.
    """

    def fill(self, cache):
        run_cell("credit", CFG, cache)
        run_cell("vprobe", CFG, cache)

    def test_prune_tolerates_entries_vanishing_mid_walk(self, cache, monkeypatch):
        self.fill(cache)
        ghost = cache.root / "aa" / ("a" * 64 + ".json")
        real = list(cache._entry_files())
        monkeypatch.setattr(
            ResultCache, "_entry_files", lambda self: iter([ghost] + real)
        )
        # The ghost reads as corrupt, its unlink fails, and neither is
        # fatal: prune reports only what it actually deleted.
        assert cache.prune() == (0, 0)
        assert cache.scan().entries == 2

    def test_clear_tolerates_entries_vanishing_mid_walk(self, cache, monkeypatch):
        self.fill(cache)
        ghost = cache.root / "aa" / ("a" * 64 + ".json")
        real = list(cache._entry_files())
        monkeypatch.setattr(
            ResultCache, "_entry_files", lambda self: iter([ghost] + real)
        )
        assert cache.clear() == 2  # the ghost is skipped, not counted
        assert cache.scan().entries == 0

    def test_scan_tolerates_entries_vanishing_mid_walk(self, cache, monkeypatch):
        self.fill(cache)
        ghost = cache.root / "aa" / ("a" * 64 + ".json")
        real = list(cache._entry_files())
        monkeypatch.setattr(
            ResultCache, "_entry_files", lambda self: iter([ghost] + real)
        )
        stats = cache.scan()
        assert (stats.entries, stats.stale, stats.corrupt) == (2, 0, 0)

    def test_prune_with_concurrent_half_written_entry(self, cache):
        # A writer mid-put: its mkstemp temp file sits in the shard
        # directory.  prune classifies it corrupt and removes it; the
        # writer's os.replace then fails and its put reports False —
        # the documented worst case is redoing work, never crashing.
        self.fill(cache)
        key = result_key(BUILDER, "credit", CFG)
        shard = cache.path_for(key).parent
        (shard / ".tmp-inflight.json").write_text('{"schema": "repro.resu')
        assert cache.prune() == (0, 1)
        assert cache.scan().entries == 2

    def test_corrupt_entry_stays_a_miss_after_failed_prune(
        self, cache, monkeypatch
    ):
        self.fill(cache)
        key = result_key(BUILDER, "credit", CFG)
        path = cache.path_for(key)
        path.write_text("{definitely not json")
        # Another process holds the file somehow: unlink fails.
        monkeypatch.setattr(
            pathlib.Path, "unlink", lambda self, **kw: (_ for _ in ()).throw(OSError())
        )
        assert cache.prune() == (0, 0)  # did not raise, deleted nothing
        monkeypatch.undo()
        assert cache.get(key) is None  # still a miss, not an error
        misses = cache.misses
        assert misses >= 1
        # And the next run overwrites it back to health.
        run_cell("credit", CFG, cache)
        assert cache.get(key) is not None
