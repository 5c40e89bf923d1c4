"""The batched engine's compiled replay kernel and its loader.

The kernel (``repro/xen/_replay.c``) is the batched engine's only copy
of the per-epoch replay arithmetic, so these tests make sure that a
dual-socket machine really runs it (a parity test must never compare
the reference loop with itself), that it fails the way Python does,
that a failed build falls back to the reference loop with one warning,
and that a built kernel is reused until its source changes.  The
kernel also owns the LLC warmth commit; a small pure-Python commit kept
here is its oracle, bit for bit and in dict insertion order.
"""

import dataclasses
import os
import pickle
import shutil
import subprocess
import sys
import warnings
from types import SimpleNamespace

import pytest

from repro.experiments.scenarios import (
    ScenarioConfig,
    build_machine,
    make_scheduler,
    spec_scenario,
)
from repro.hardware.cache import LLCState
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


# ----------------------------------------------------------------------
# The warmth commit
# ----------------------------------------------------------------------
def python_commit(table, members, charged, kb, decay):
    """``kb`` epochs of ``LLCState.advance`` on ``table``, batched.

    Non-members decay by ``kb`` sequential multiplies, entries below
    ``EPSILON`` are evicted once at the end, and the members take their
    ``charged`` warmth last, in key order.
    """
    stale = []
    for key, w in table.items():
        if key not in members:
            for _ in range(kb):
                w *= decay
            if w < LLCState.EPSILON:
                stale.append(key)
            else:
                table[key] = w
    for key in stale:
        del table[key]
    for key in members:
        table[key] = charged[key]


def _bits(table):
    return [(key, w.hex()) for key, w in table.items()]


IDLE = (((), []), ((), []))


@pytest.fixture(scope="module")
def engine():
    machine = _soplex("batched")
    machine.run(max_time_s=0.05)
    return machine._engine


def _idle_commit(engine, tables, kb):
    epoch = engine.epoch
    busy = BatchedEngine.kernel.replay((), (), engine._scalars, epoch, kb, 1.5, IDLE, tables)
    assert busy == 1.5


def test_non_member_decays_by_sequential_multiplies(engine):
    decay = engine._scalars[10]
    assert 0.0 < decay < 1.0
    kb = 37
    table = {5: 0.9, 2: 0.61, 9: 1.0}
    expected = dict(table)
    python_commit(expected, (), {}, kb, decay)
    _idle_commit(engine, (table, {}), kb)
    assert _bits(table) == _bits(expected)
    w = 0.9
    for _ in range(kb):
        w *= decay
    assert table[5].hex() == w.hex()


def test_entry_crossing_epsilon_at_the_last_epoch_is_evicted(engine):
    decay, eps = engine._scalars[10], engine._scalars[11]
    kb = 6
    w = eps / decay ** (kb - 0.5)
    chain = [w]
    for _ in range(kb):
        chain.append(chain[-1] * decay)
    assert min(chain[:-1]) >= eps > chain[-1]
    table = {4: w, 1: 0.5}
    _idle_commit(engine, ({}, table), kb)
    assert list(table) == [1]


def test_idle_horizon_only_decays(engine):
    decay = engine._scalars[10]
    tables = ({3: 0.7, 0: 0.2}, {1: 0.9, 6: 0.002})
    expected = [dict(t) for t in tables]
    for table in expected:
        python_commit(table, (), {}, 4, decay)
    _idle_commit(engine, tables, 4)
    assert [_bits(t) for t in tables] == [_bits(t) for t in expected]
    assert all(w < 0.9 for t in tables for w in t.values())


def test_missing_member_is_appended_in_key_order(engine):
    # A real plan on both sockets; on each node's table copy, drop every
    # member but the last and add a decaying stranger: the kernel must
    # read absent members as 0.0, charge them and append them in key
    # order after the surviving entries.
    contention, progress, _, nodes = engine._plan_for()
    assert all(members for members, _ in nodes)
    decay, kb = engine._scalars[10], 3
    cf = {row[7]: row[16] for row in progress}
    tables, expected = [], []
    for (members, _), live in zip(nodes, engine._warmth_tables):
        table = {key: w for key, w in live.items() if key not in members[:-1]}
        table[999] = 0.5
        charged = {}
        for key in members:
            w = table.get(key, 0.0)
            for _ in range(kb):
                w = 1.0 - (1.0 - w) * cf[key]
            charged[key] = w
        tables.append(table)
        expected.append(dict(table))
        python_commit(expected[-1], members, charged, kb, decay)
    BatchedEngine.kernel.replay(
        contention, progress, engine._scalars, engine.epoch, kb, 0.0, nodes, tuple(tables)
    )
    for (members, _), table, want in zip(nodes, tables, expected):
        assert _bits(table) == _bits(want)
        missing = list(members[:-1])
        assert missing and list(table)[-len(missing):] == missing


def test_checkpoint_bytes_equal_a_python_commit(monkeypatch):
    # Mid-run, the seed-0 loaded cell pickles the same bytes whether the
    # kernel commits warmth or a Python loop does it on the live tables
    # from the kernel's charged members: same values, same key order.
    def run():
        machine = _soplex("batched")
        machine.run(max_time_s=0.4)
        assert machine._engine is not None
        return pickle.dumps(machine)

    compiled = run()
    real = BatchedEngine.kernel.replay

    def replay(contention, progress, scalars, epoch, kb, mbusy, nodes, tables):
        charged = tuple(dict(t) for t in tables)
        mbusy = real(contention, progress, scalars, epoch, kb, mbusy, nodes, charged)
        for table, done, (members, _) in zip(tables, charged, nodes):
            python_commit(table, members, {k: done[k] for k in members}, kb, scalars[10])
        return mbusy

    monkeypatch.setattr(BatchedEngine, "kernel", SimpleNamespace(replay=replay))
    assert run() == compiled
