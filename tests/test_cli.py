"""Tests for the repro CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare", "soplex"])
        assert args.app == "soplex"
        assert args.schedulers == ["credit", "vprobe"]
        assert args.work_scale == pytest.approx(0.15)

    def test_compare_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "soplex", "--schedulers", "cfs"]
            )

    def test_solo_parses(self):
        args = build_parser().parse_args(["solo", "milc"])
        assert args.command == "solo"

    def test_report_parses(self):
        args = build_parser().parse_args(["report", "out", "--fast"])
        assert args.outdir == "out" and args.fast

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "soplex"])
        assert args.command == "trace"
        assert args.scheduler == "vprobe"
        assert args.engine == "batched"
        assert str(args.out) == "run.jsonl"
        assert args.interval == pytest.approx(0.25)

    def test_compare_engine_flag(self):
        args = build_parser().parse_args(["compare", "soplex"])
        assert args.engine == "batched"
        args = build_parser().parse_args(
            ["compare", "soplex", "--engine", "reference"]
        )
        assert args.engine == "reference"

    def test_trace_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "soplex", "--engine", "turbo"])

    def test_compare_json_flag(self, tmp_path):
        args = build_parser().parse_args(
            ["compare", "soplex", "--json", str(tmp_path / "out.json")]
        )
        assert args.json == tmp_path / "out.json"

    def test_validate_parses(self):
        args = build_parser().parse_args(["validate", "a.jsonl", "b.json"])
        assert [p.name for p in args.files] == ["a.jsonl", "b.json"]


class TestCommands:
    def test_solo_prints_calibration(self, capsys):
        assert main(["solo", "povray", "--work-scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "povray" in out
        assert "llc-fr" in out

    def test_compare_prints_table(self, capsys):
        code = main(
            [
                "compare",
                "lu",
                "--schedulers",
                "credit",
                "vprobe",
                "--work-scale",
                "0.03",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "vprobe" in out and "runtime" in out
        assert "improvement over credit" in out

    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = main(
            ["trace", "lu", "--out", str(out), "--work-scale", "0.03", "--seed", "3"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "trace lines" in printed
        # The file round-trips through the validator used by `validate`.
        assert main(["validate", str(out)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_compare_json_report(self, tmp_path, capsys):
        out = tmp_path / "compare.json"
        code = main(
            [
                "compare",
                "lu",
                "--schedulers",
                "credit",
                "vprobe",
                "--work-scale",
                "0.03",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        import json

        from repro.obs.schema import validate_report

        envelope = json.loads(out.read_text())
        assert validate_report(envelope) == []
        assert envelope["kind"] == "compare"
        assert set(envelope["payload"]["summaries"]) == {"credit", "vprobe"}
        assert main(["validate", str(out)]) == 0

    def test_validate_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "wrong", "kind": "x", "payload": {}}\n')
        assert main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_report_fast_writes_files(self, tmp_path, capsys):
        # Restrict to the two cheapest jobs; the full set runs in the
        # benchmark harness.
        from repro.experiments.report_all import regenerate_all

        regenerate_all(tmp_path / "r", fast=True, only=("fig3", "table3"))
        written = {p.name for p in (tmp_path / "r").glob("*.txt")}
        assert written == {"fig3_llc_missrate_rpti.txt", "table3_overhead.txt"}
        # Every table also lands as a machine-readable report.
        import json

        from repro.obs.schema import validate_report

        # ``recovery.json`` is the runner's resume ledger, not a report.
        jsons = sorted(
            p for p in (tmp_path / "r").glob("*.json") if p.stem != "recovery"
        )
        assert {p.stem for p in jsons} == {p.stem for p in (tmp_path / "r").glob("*.txt")}
        for p in jsons:
            assert validate_report(json.loads(p.read_text())) == []
