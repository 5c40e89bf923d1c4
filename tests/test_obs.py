"""Tests for the observability layer: manifests, traces, schemas."""

import json
import math

import pytest

from repro.experiments import ScenarioConfig, npb_scenario
from repro.experiments.scenarios import make_scheduler
from repro.metrics.collectors import summarize
from repro.metrics.timeseries import trace_run
from repro.obs import (
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
        assert fast_summary == ref_summary  # horizon_stats excluded from eq
        assert fast_summary.horizon_stats is not None
        assert "horizon_stats" in fast_summary.to_dict()
        assert "horizon_stats" not in fast_summary.to_dict(include_profile=False)


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
