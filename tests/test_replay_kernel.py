"""The batched engine's compiled replay kernel and its loader.

The kernel (``repro/xen/_replay.c``) is the batched engine's only copy
of the per-epoch replay arithmetic, so these tests make sure that a
dual-socket machine really runs it (a parity test must never compare
the reference loop with itself), that it fails the way Python does,
that a failed build falls back to the reference loop with one warning,
and that a built kernel is reused until its source changes.
"""

import dataclasses
import os
import shutil
import subprocess
import sys
import warnings

import pytest

from repro.experiments.scenarios import (
    ScenarioConfig,
    build_machine,
    make_scheduler,
    spec_scenario,
)
from repro.metrics.collectors import summarize
from repro.obs.manifest import canonical_dumps
from repro.util.rng import RngStreams
from repro.workloads.appmodel import VcpuWorkload
from repro.workloads.generators import scaled_profile
from repro.workloads.suites import get_profile
from repro.xen import kernel
from repro.xen.domain import Domain
from repro.xen.engine import BatchedEngine
from repro.xen.memalloc import place_interleaved


def _soplex(engine):
    cfg = ScenarioConfig(work_scale=0.15, seed=0, engine=engine)
    return spec_scenario("soplex", make_scheduler("vprobe"), cfg)


def _summary(machine):
    summary = summarize(machine).to_dict()
    summary.pop("horizon_stats", None)  # how the run stepped, not what it simulated
    return canonical_dumps(summary)


def test_dual_socket_engine_runs_the_compiled_kernel():
    assert BatchedEngine.kernel is not None, "the replay kernel did not build"
    machine = _soplex("batched")
    machine.run(max_time_s=0.01)
    engine = machine._engine
    assert engine is not None
    assert engine._replay is BatchedEngine.kernel.replay
    assert type(engine._replay).__name__ == "builtin_function_or_method"
    calls = []

    def counted(*args):
        calls.append(args[4])
        return BatchedEngine.kernel.replay(*args)

    engine._replay = counted
    machine.run(max_time_s=0.3)
    assert len(calls) > 10 and max(calls) > 1
    ref = _soplex("reference")
    ref.run(max_time_s=0.3)
    assert _summary(machine) == _summary(ref)


def _zero_mlp_machine(engine):
    cfg = ScenarioConfig(work_scale=0.05, seed=2, engine=engine)
    profile = dataclasses.replace(scaled_profile(get_profile("soplex"), cfg.work_scale))
    object.__setattr__(profile, "mlp", 0.0)  # past the constructor's check
    rng = RngStreams(cfg.seed)
    workloads = [VcpuWorkload(profile, rng.get(f"vm.v{i}")) for i in range(2)]
    domain = Domain("vm", 2 * 1024**3, place_interleaved(2, 2), workloads)
    return build_machine(make_scheduler("credit"), cfg, [domain])


@pytest.mark.parametrize("engine", ["batched", "reference"])
def test_zero_divisor_raises_like_python(engine):
    machine = _zero_mlp_machine(engine)
    with pytest.raises(ZeroDivisionError):
        machine.run(max_time_s=0.1)
    assert (machine._engine is not None) == (engine == "batched")


def test_failed_build_warns_once_and_runs_the_reference_loop(monkeypatch, tmp_path):
    batched = _soplex("batched")
    batched.run(max_time_s=0.3)
    monkeypatch.setattr(kernel, "COMPILER", [str(tmp_path / "no-such-cc")])
    with pytest.warns(RuntimeWarning) as record:
        assert kernel.load(directory=str(tmp_path)) is None
    assert len(record) == 1
    assert not list(tmp_path.iterdir()), "a failed build left a file behind"
    monkeypatch.setattr(BatchedEngine, "kernel", None)
    machine = _soplex("batched")
    machine.run(max_time_s=0.3)
    assert machine._engine is None
    assert _summary(machine) == _summary(batched)


def test_built_kernel_is_reused_until_its_source_changes(monkeypatch, tmp_path):
    builds = []
    run = subprocess.run

    def counted(cmd, *args, **kwargs):
        builds.append(cmd)
        return run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    first = kernel.load(directory=str(tmp_path))
    assert first is not None and len(builds) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(kernel, "COMPILER", [str(tmp_path / "no-such-cc")])
        assert kernel.load(directory=str(tmp_path)) is not None
    assert len(builds) == 1
    monkeypatch.undo()
    monkeypatch.setattr(subprocess, "run", counted)
    edited = tmp_path / "src" / "_replay.c"
    edited.parent.mkdir()
    shutil.copy(kernel.SOURCE, edited)
    with open(edited, "a") as fh:
        fh.write("/* edited */\n")
    assert kernel.load(str(edited), directory=str(tmp_path)) is not None
    assert len(builds) == 2
    built = sorted(p.name for p in tmp_path.iterdir() if p.is_file())
    assert len(built) == 2 and all(name.startswith("_replay-") for name in built)


def test_cache_directory_follows_the_bytecode_cache(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    assert kernel._cache_dir().startswith(str(tmp_path))
    monkeypatch.setattr(kernel.tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    private = kernel._cache_dir()
    assert os.path.dirname(private) == str(tmp_path)
    assert os.stat(private).st_mode & 0o077 == 0
