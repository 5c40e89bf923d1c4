"""Self-tests of the end-to-end benchmark harness.

Run with ``python -m pytest benchmarks/e2e -q``.  The workloads are
shrunk through function arguments (tiny ``work_scale``, the report cut to
``fig3``), and scratch files go to a temporary directory.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys
from functools import partial

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def tiny(workload: Workload) -> Workload:
    if workload.cells:
        return dataclasses.replace(workload, work_scale=0.02, sim_s=None)
    return dataclasses.replace(workload, only=("fig3",))


TINY = tuple(tiny(w) for w in WORKLOADS)


@pytest.fixture(autouse=True)
def scratch(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)


def lines(text: str) -> dict:
    """``(workload, metric) -> unit`` for every metric line printed."""
    out = {}
    for line in text.splitlines()[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] != "host":
            out[fields[0], fields[1]] = fields[3]
    return out


def test_nested_same_name_spans_collapse_and_self_times_sum():
    tracer = spans.Tracer()

    def inner(n: int) -> int:
        if n:
            return tracer.call("a", inner, (n - 1,), {})
        return tracer.call("b", sum, (range(1000),), {})

    def boom() -> None:
        raise ValueError("boom")

    with tracer.root():
        for _ in range(3):
            tracer.call("a", inner, (2,), {})
        with pytest.raises(ValueError):
            tracer.call("c", boom, (), {})
    layers = tracer.layers()
    assert layers["a"]["calls"] == 3
    assert layers["b"]["calls"] == 3
    assert layers["c"]["calls"] == 1
    rows = tracer.by_parent()
    assert {(r["layer"], r["parent"]) for r in rows} == {
        ("a", spans.ROOT),
        ("b", "a"),
        ("c", spans.ROOT),
        (spans.ROOT, ""),
    }
    total = next(r["total_s"] for r in rows if r["layer"] == spans.ROOT)
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(total, rel=1e-9)


def _bindings() -> dict:
    """Identity of every attribute of every repro module and class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in vars(module).items():
                out[name, key] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[name, key, attr] = id(member)
    return out


def test_tracing_keeps_builder_fingerprints_and_restores_every_wrapper():
    from repro.cache.keys import builder_fingerprint
    from repro.experiments.scenarios import overhead_scenario, spec_scenario

    builders = [partial(spec_scenario, "soplex"), partial(overhead_scenario, 1)]
    before = [builder_fingerprint(b) for b in builders]
    assert None not in before
    spans._import_all()
    snapshot = _bindings()
    restore = spans.install(spans.Tracer())
    try:
        assert [builder_fingerprint(b) for b in builders] == before
        wrapped = {
            getattr(obj, "__e2e_layer__")
            for module in list(sys.modules.values())
            if module.__name__.startswith("repro")
            for obj in [*vars(module).values()]
            + [m for c in vars(module).values() if isinstance(c, type) for m in vars(c).values()]
            if hasattr(obj, "__e2e_layer__")
        }
        assert {"machine.run", "policy.steal", "journal.record_cell"} <= wrapped
        assert wrapped <= set(spans.layer_names())
    finally:
        restore()
    assert _bindings() == snapshot


def test_summary_mismatch_is_a_failure_and_exits_nonzero(monkeypatch, capsys):
    real = run.Harness.check_reference

    def corrupted(self, workload):
        real(self, workload)
        self.reference[workload.name] = {
            cell: "0" * 64 for cell in self.reference[workload.name]
        }

    monkeypatch.setattr(run.Harness, "check_reference", corrupted)
    code = run.main(["--workload", "cell-idle", "--repeats", "2"], table=TINY)
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert line["correct"] is False
    assert line["failed"] == 2 and line["attempted"] == 2


def test_every_benchmark_metric_is_printed(capsys):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == [w.name for w in WORKLOADS]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    assert run.main(["--repeats", "1", "--trace"], table=TINY) == 0
    printed = lines(capsys.readouterr().out)
    for workload in WORKLOADS:
        for name, unit in {**e2e, **layer}.items():
            assert printed.get((workload.name, name)) == unit, (workload.name, name)

    for flag, wanted in (("0", e2e), ("1", layer)):
        argv = ["--workload", "cell-loaded", "--repeats", "1", "--trace", flag]
        assert run.main(argv, table=TINY) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert line["correct"] is True and line["failed"] == 0
        assert {m: v["unit"] for m, v in line["metrics"].items()} == wanted
