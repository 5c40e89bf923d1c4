"""Tests for the observability layer: profiler, manifests, traces, schemas."""

import json
import math
import pickle

import pytest

from repro.experiments import ScenarioConfig, npb_scenario
from repro.experiments.scenarios import make_scheduler
from repro.metrics.collectors import summarize
from repro.metrics.timeseries import trace_run
from repro.obs import (
    PhaseProfiler,
    PhaseStat,
    diff_traces,
    read_trace,
    validate_trace_file,
    write_trace,
)
from repro.obs.manifest import build_manifest, canonical_dumps, config_hash
from repro.obs.schema import (
    REPORT_ENVELOPE_SCHEMA,
    TRACE_LINE_SCHEMAS,
    validate,
    validate_report,
)


def _scenario_config(engine: str) -> ScenarioConfig:
    # sample_period_s shortened so the run (≈0.6 simulated seconds at
    # this work scale) closes several PMU windows.
    return ScenarioConfig(
        work_scale=0.03,
        seed=3,
        sample_period_s=0.1,
        log_events=True,
        engine=engine,
        label="obs-test",
    )


def _run(engine: str):
    machine = npb_scenario("lu", make_scheduler("vprobe"), _scenario_config(engine))
    trace = trace_run(machine, interval_s=0.25)
    return machine, trace


@pytest.fixture(scope="module")
def batched_run():
    return _run("batched")


@pytest.fixture(scope="module")
def reference_run():
    return _run("reference")


class TestPhaseProfiler:
    def test_disabled_is_inert(self):
        prof = PhaseProfiler(enabled=False)
        token = prof.start()
        assert token == 0
        prof.stop("analyzer", token)
        prof.count("gather_build")
        assert prof.snapshot() == {}
        assert prof.counters() == {}
        assert prof.calls("analyzer") == 0

    def test_accumulates_calls_and_wall(self):
        prof = PhaseProfiler()
        for _ in range(3):
            t0 = prof.start()
            prof.stop("analyzer", t0)
        assert prof.calls("analyzer") == 3
        assert prof.wall_s("analyzer") >= 0.0
        stat = prof.snapshot()["analyzer"]
        assert stat.calls == 3
        assert stat.wall_s == pytest.approx(prof.wall_s("analyzer"))

    def test_counters(self):
        prof = PhaseProfiler()
        prof.count("gather_build")
        prof.count("gather_build", 4)
        assert prof.counter("gather_build") == 5
        assert prof.counter("missing") == 0

    def test_scheduler_wall_sums_only_scheduler_phases(self):
        prof = PhaseProfiler()
        prof._acc.update(
            {
                "analyzer": [10, 1],
                "partition": [20, 1],
                "balance": [30, 1],
                "epoch": [1000, 1],
            }
        )
        assert prof.scheduler_wall_s() == pytest.approx(60e-9)

    def test_snapshot_is_picklable(self):
        prof = PhaseProfiler()
        t0 = prof.start()
        prof.stop("balance", t0)
        snap = prof.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_mean_us_with_zero_calls(self):
        assert PhaseStat(phase="x", calls=0, wall_s=0.0).mean_us == 0.0

    def test_clear(self):
        prof = PhaseProfiler()
        prof.stop("epoch", prof.start())
        prof.count("gather_build")
        prof.clear()
        assert prof.snapshot() == {}
        assert prof.counters() == {}

    def test_format_renders_table(self):
        prof = PhaseProfiler()
        prof.stop("analyzer", prof.start())
        text = prof.format()
        assert "phase" in text and "analyzer" in text


class TestManifest:
    def test_config_hash_ignores_non_result_fields(self):
        base = _scenario_config("batched").sim_config()
        for variant in (
            _scenario_config("reference").sim_config(),
            ScenarioConfig(
                work_scale=0.03,
                seed=3,
                sample_period_s=0.1,
                log_events=False,
                label="other",
            ).sim_config(),
        ):
            assert config_hash(base) == config_hash(variant)

    def test_config_hash_sees_result_fields(self):
        base = _scenario_config("batched").sim_config()
        other = ScenarioConfig(
            work_scale=0.03,
            seed=4,
            sample_period_s=0.1,
            log_events=True,
            label="obs-test",
        ).sim_config()
        assert config_hash(base) != config_hash(other)

    def test_canonical_dumps_is_order_insensitive(self):
        assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps({"a": 2, "b": 1})
        assert canonical_dumps({"a": 1}) == '{"a":1}'

    def test_canonical_dumps_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": math.nan})

    def test_build_manifest_fields(self, batched_run):
        machine, _ = batched_run
        manifest = build_manifest(machine)
        assert manifest.policy == machine.policy.name
        assert manifest.scenario == "obs-test"  # falls back to config.label
        assert manifest.seed == 3
        assert manifest.engine == "batched"
        assert manifest.faults is None
        line = manifest.to_dict()
        assert line["type"] == "manifest"
        assert validate(line, TRACE_LINE_SCHEMAS["manifest"]) == []


class TestTraceRoundTrip:
    def test_write_read_validate(self, batched_run, tmp_path):
        machine, trace = batched_run
        path = tmp_path / "run.jsonl"
        lines = write_trace(machine, path, trace=trace, scenario="lu")
        # manifest + events + snapshots + summary
        assert lines == 1 + len(machine.log) + len(trace) + 1
        assert validate_trace_file(path) == []

        parsed = read_trace(path)
        assert parsed.manifest["scenario"] == "lu"
        assert len(parsed.events) == len(machine.log)
        assert len(parsed.snapshots) == len(trace)
        assert parsed.summary is not None
        assert parsed.summary["policy"] == machine.policy.name
        assert parsed.events_of_kind("finish")
        times = [e["t"] for e in parsed.events]
        assert times == sorted(times)

    def test_rewrite_is_byte_identical(self, batched_run, tmp_path):
        machine, trace = batched_run
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(machine, a, trace=trace)
        write_trace(machine, b, trace=trace)
        assert a.read_bytes() == b.read_bytes()
        assert diff_traces(a, b) == []

    def test_diff_reports_changed_line(self, batched_run, tmp_path):
        machine, trace = batched_run
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(machine, a, trace=trace)
        lines = a.read_text().splitlines()
        lines[2] = canonical_dumps({"type": "event", "t": -1.0, "kind": "x", "data": {}})
        b.write_text("\n".join(lines) + "\n")
        diffs = diff_traces(a, b)
        assert len(diffs) == 1 and diffs[0].startswith("line 3:")


class TestEngineParity:
    """Acceptance: a fixed run traces byte-identically from both engines."""

    def test_traces_identical_after_manifest(
        self, batched_run, reference_run, tmp_path
    ):
        fast_machine, fast_trace = batched_run
        ref_machine, ref_trace = reference_run
        fast_path, ref_path = tmp_path / "fast.jsonl", tmp_path / "ref.jsonl"
        write_trace(fast_machine, fast_path, trace=fast_trace)
        write_trace(ref_machine, ref_path, trace=ref_trace)

        assert diff_traces(fast_path, ref_path, ignore_manifest=True) == []

        fast_manifest = read_trace(fast_path).manifest
        ref_manifest = read_trace(ref_path).manifest
        differing = {
            k
            for k in fast_manifest
            if fast_manifest[k] != ref_manifest[k]
        }
        assert differing == {"engine", "config"}
        assert fast_manifest["config_hash"] == ref_manifest["config_hash"]
        config_diff = {
            k
            for k in fast_manifest["config"]
            if fast_manifest["config"][k] != ref_manifest["config"][k]
        }
        assert config_diff == {"engine"}

    def test_summaries_equal_despite_profiles(self, batched_run, reference_run):
        fast_summary = summarize(batched_run[0])
        ref_summary = summarize(reference_run[0])
        assert fast_summary == ref_summary  # phase_profile excluded from eq


class TestSchemaValidator:
    def test_type_mismatch(self):
        assert validate(3, {"type": "string"})
        assert validate("x", {"type": ["string", "null"]}) == []
        assert validate(None, {"type": ["string", "null"]}) == []

    def test_bool_is_not_a_number(self):
        assert validate(True, {"type": "number"})
        assert validate(True, {"type": "integer"})
        assert validate(True, {"type": "boolean"}) == []

    def test_required_and_nested_properties(self):
        schema = {
            "type": "object",
            "required": ["a"],
            "properties": {"a": {"type": "integer"}},
        }
        assert validate({}, schema) == ["$: missing required key 'a'"]
        assert validate({"a": "no"}, schema)
        assert validate({"a": 1}, schema) == []

    def test_items(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        assert validate([1, 2], schema) == []
        errors = validate([1, "x"], schema)
        assert errors and "[1]" in errors[0]

    def test_report_envelope(self):
        good = {"schema": "repro.report/v2", "kind": "fig1", "payload": {}}
        assert validate_report(good) == []
        assert validate_report({"schema": "wrong", "kind": "fig1", "payload": {}})
        assert validate_report({"schema": "repro.report/v2", "payload": {}})
        # Pre-horizon-stats envelopes are stale, not silently accepted.
        assert validate_report(
            {"schema": "repro.report/v1", "kind": "fig1", "payload": {}}
        )
        assert validate(good, REPORT_ENVELOPE_SCHEMA) == []

    def test_trace_file_structure_errors(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "event", "t": 0.0, "kind": "x", "data": {}})
            + "\n"
            + "not json\n"
            + json.dumps({"type": "mystery"})
            + "\n"
        )
        errors = validate_trace_file(path)
        assert any("invalid JSON" in e for e in errors)
        assert any("unknown line type" in e for e in errors)
        assert any("first line must be the manifest" in e for e in errors)

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert validate_trace_file(path) == ["trace is empty"]


class TestProfilerAccounting:
    """Acceptance: inner phases explain the sample-period envelope."""

    def test_phases_recorded_for_vprobe_run(self, batched_run):
        prof = batched_run[0].profiler
        for phase in ("analyzer", "partition", "balance", "epoch", "sample_period"):
            assert prof.calls(phase) > 0, phase
        assert prof.counter("gather_build") > 0  # batched engine rebuilds

    def test_reference_engine_has_no_gather_counter(self, reference_run):
        assert reference_run[0].profiler.counter("gather_build") == 0

    def test_inner_phases_account_for_envelope(self):
        # Wall-clock assertion: best-of-3 to ride out scheduler jitter.
        best = 0.0
        for attempt in range(3):
            machine, _ = _run("batched")
            prof = machine.profiler
            envelope = prof.wall_s("sample_period")
            inner = prof.wall_s("analyzer") + prof.wall_s("partition")
            assert inner <= envelope
            best = max(best, inner / envelope)
            if best >= 0.95:
                break
        assert best >= 0.95

    def test_summary_carries_profile(self, batched_run):
        summary = summarize(batched_run[0])
        assert summary.phase_profile is not None
        assert summary.phase_profile["analyzer"].calls > 0
        payload = summary.to_dict()
        assert "phase_profile" in payload
        assert "phase_profile" not in summary.to_dict(include_profile=False)
        assert "horizon_stats" not in summary.to_dict(include_profile=False)
