"""The batched engine's compiled replay kernel and its loader.

The kernel (``repro/xen/_replay.c``) is the batched engine's only copy
of the per-epoch replay arithmetic and of the horizon sizing, so these
tests make sure that a dual-socket machine really runs it (a parity
test must never compare the reference loop with itself), that it fails
the way Python does, that a failed build falls back to the reference
loop with one warning, and that a built kernel is reused until its
source changes.  The kernel also sizes each horizon and owns the LLC
warmth commit; small pure-Python versions kept here are their oracles,
horizon for horizon, and bit for bit in dict insertion order.
"""

import dataclasses
import math
import os
import random
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
from repro.xen.engine import BatchedEngine, Record
from repro.xen.memalloc import place_interleaved
from tests.helpers import python_commit


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
    real = engine._replay
    assert type(real) is BatchedEngine.kernel.Replay
    assert type(real.step).__name__ == "builtin_function_or_method"
    calls = []

    def counted(*args):
        result = real.step(*args)
        calls.append(result[0])
        return result

    engine._replay = SimpleNamespace(step=counted, drop=real.drop)
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
# Horizon sizing
# ----------------------------------------------------------------------
def python_size(kb, now, limit, crash_time, wake, phase, queued, num_pcpus, running, epoch):
    """The horizon sizing below the engine's event cap, in Python.

    ``running`` holds the running PCPUs' records in PCPU order.  This is
    the engine's former ``_size_horizon``, kept as the compiled sizing's
    oracle: the same float operations in the same order.
    """
    if kb <= 1:
        return 1
    window = (kb + 1) * epoch
    for rec in running:
        done = rec.workload.instructions_done
        if done > rec.guard:
            step = rec.clock / rec.cpi_base * epoch
            floor = int((rec.total - done) / step) - 1
            if floor < kb:
                if floor <= 1:
                    return 1
                kb = floor
                window = (kb + 1) * epoch
        burst = rec.vcpu.run_burst_remaining_s
        if burst <= window:
            x = burst
            for j in range(kb):
                x -= epoch
                if x <= 0.0:
                    if j == 0:
                        return 1
                    kb = j + 1
                    window = (kb + 1) * epoch
                    break
    if queued and len(running) < num_pcpus:
        return 1
    if min(wake, phase, crash_time, limit - 1e-12) > now + (kb + 1) * epoch:
        return kb
    t = now
    j = 0
    while j < kb:
        if j > 0 and (wake <= t or crash_time <= t or t >= limit - 1e-12):
            kb = j
            break
        t_next = t + epoch
        if phase <= t_next:
            kb = j + 1
            break
        t = t_next
        j += 1
    return kb if kb > 1 else 1


EPOCH = 0.001
CLOCK = 2.4e9
TICK = 10  # epochs per Credit tick, for the completion guard


class _World:
    """Eight PCPUs running hand-built records, for one compiled step."""

    def __init__(self, scalars, vcpus):
        self.pcpus = []
        self.records = {}
        for pid, spec in enumerate(vcpus):
            vcpu = None
            if spec is not None:
                burst, total, done = spec
                vcpu = SimpleNamespace(key=pid, slice_used_s=0.0, run_burst_remaining_s=burst)
                workload = SimpleNamespace(instructions_done=done)
                bank = SimpleNamespace(
                    instructions=0.0, llc_refs=0.0, llc_misses=0.0,
                    local_accesses=0.0, remote_accesses=0.0,
                )
                step = CLOCK / 1.25 * EPOCH
                self.records[pid] = Record(
                    1, pid, pid // 4, 0.6, 0.3, 1.25, 2.0, CLOCK, CLOCK * 1e-9,
                    0.01, 0.2, 1.5, False, 0.0, 2, 0.9, total,
                    math.inf if total is None else total - (TICK + 2) * step,
                    [0.7, 0.3], [0.5, 0.5], vcpu, workload, bank, [0.0, 0.0],
                )
            self.pcpus.append(
                SimpleNamespace(current=vcpu, overhead_pending_s=0.0, busy_time_s=0.0)
            )
        self.replay = BatchedEngine.kernel.Replay(self.pcpus, scalars, EPOCH, ({}, {}))

    def _slot(self, pcpu, vcpu):
        return self.records[vcpu.key]

    def _node_entry(self, node, members):
        return members, [0.5] * len(members)

    def sizes(self, kb, now, limit, crash, wake, phase, queued):
        """(oracle, compiled) horizon and end for one boundary."""
        running = [self.records[pid] for pid in sorted(self.records)]
        want = python_size(
            kb, now, limit, crash, wake, phase, queued, len(self.pcpus), running, EPOCH
        )
        got, end, _, idle, _ = self.replay.step(
            self, now, kb, crash, limit, wake, phase, queued, 0.0
        )
        t = now
        for _ in range(want):
            t = t + EPOCH
        assert idle == len(self.pcpus) - len(running)
        return (want, t), (got, end)


def _ends(now, k):
    """The first ``k`` epoch ends after ``now``, by sequential adds."""
    ends, t = [], now
    for _ in range(k):
        t = t + EPOCH
        ends.append(t)
    return ends


@pytest.fixture(scope="module")
def scalars():
    machine = _soplex("batched")
    machine.run(max_time_s=0.01)
    return machine._engine._scalars


def _one(scalars, vcpus, kb=10, now=1.0, limit=math.inf, crash=math.inf,
         wake=math.inf, phase=math.inf, queued=0):
    want, got = _World(scalars, vcpus).sizes(kb, now, limit, crash, wake, phase, queued)
    assert got == want
    return want[0]


def test_burst_draining_exactly_at_an_epoch_end_ends_the_horizon_on_it(scalars):
    # 2 * epoch - epoch - epoch is exactly 0.0: inclusive, so the
    # horizon ends on that second epoch; one ulp more runs a third.
    assert 2 * EPOCH - EPOCH - EPOCH == 0.0
    assert _one(scalars, [(2 * EPOCH, None, 0.0)] + [None] * 7) == 2
    assert _one(scalars, [(math.nextafter(2 * EPOCH, 1.0), None, 0.0)] + [None] * 7) == 3
    assert _one(scalars, [(EPOCH, None, 0.0)] + [None] * 7) == 1


def test_crossed_completion_guard_takes_the_exact_floor(scalars):
    step = CLOCK / 1.25 * EPOCH
    total = 1e9
    for margin in (6.5, 4.0, 2.2, 1.0):
        spec = (1.0, total, total - margin * step)
        assert spec[2] > total - (TICK + 2) * step
        kb = _one(scalars, [None, spec] + [None] * 6)
        assert kb == max(1, int(margin) - 1)


def test_wake_or_phase_exactly_at_an_epoch_end(scalars):
    # A wake due at an epoch end stops the horizon before that epoch;
    # a phase change due there ends the horizon on it.
    now = 0.7
    ends = _ends(now, 10)
    running = [(1.0, None, 0.0)] * 3 + [None] * 5
    assert _one(scalars, running, now=now, wake=ends[2]) == 3
    assert _one(scalars, running, now=now, phase=ends[2]) == 3
    assert _one(scalars, running, now=now, crash=ends[4]) == 5
    assert _one(scalars, running, now=now, phase=math.nextafter(ends[2], 0.0)) == 3


def test_limit_edge(scalars):
    now = 1.3
    for k, t in enumerate(_ends(now, 6)):
        for limit in (t + 1e-12, math.nextafter(t + 1e-12, 0.0), math.nextafter(t + 1e-12, 9.0)):
            _one(scalars, [None] * 8, now=now, limit=limit)
            _one(scalars, [(1.0, None, 0.0)] * 8, now=now, limit=limit, kb=k + 3)


def test_compiled_sizing_matches_the_python_oracle(scalars):
    rng = random.Random(2024)
    step = CLOCK / 1.25 * EPOCH
    for _ in range(400):
        now = rng.choice([0.0, 0.25, 1.0 / 3, rng.uniform(0.0, 30.0)])
        ends = _ends(now, 14)

        def event():
            return rng.choice([math.inf, math.inf, rng.choice(ends),
                               math.nextafter(rng.choice(ends), 0.0),
                               now + rng.uniform(0.0, 0.02)])

        vcpus = []
        for _ in range(8):
            if rng.random() < 0.3:
                vcpus.append(None)
                continue
            burst = rng.choice([
                rng.uniform(0.0, 0.02), rng.randint(1, 12) * EPOCH,
                math.nextafter(rng.randint(1, 12) * EPOCH, 0.0), 1.0,
            ])
            total = rng.choice([None, 1e9])
            done = 0.0 if total is None else total - rng.uniform(0.0, (TICK + 4) * step)
            vcpus.append((burst, total, done))
        limit = rng.choice([math.inf, rng.choice(ends) + 1e-12, event()])
        _one(
            scalars, vcpus, kb=rng.randint(0, 12), now=now, limit=limit,
            crash=event(), wake=event(), phase=event(), queued=rng.choice([0, 0, 3]),
        )


# ----------------------------------------------------------------------
# The warmth commit
# ----------------------------------------------------------------------
def _bits(table):
    return [(key, w.hex()) for key, w in table.items()]


@pytest.fixture(scope="module")
def engine():
    machine = _soplex("batched")
    machine.run(max_time_s=0.05)
    return machine._engine


def _decay(engine):
    return math.exp(-engine.epoch / LLCState.DECAY_TIME)


def _idle_commit(engine, tables, kb):
    idle = [SimpleNamespace(current=None) for _ in range(4)]
    replay = BatchedEngine.kernel.Replay(idle, engine._scalars, engine.epoch, tables)
    inf = math.inf
    got, end, busy, steals, moved = replay.step(engine, 0.0, kb, inf, inf, inf, inf, 0, 1.5)
    assert (got, busy, steals, moved) == (kb, 1.5, 4, ())


def test_non_member_decays_by_sequential_multiplies(engine):
    decay = _decay(engine)
    assert decay == engine._scalars[10]
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
    decay, eps = _decay(engine), LLCState.EPSILON
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
    decay = _decay(engine)
    tables = ({3: 0.7, 0: 0.2}, {1: 0.9, 6: 0.002})
    expected = [dict(t) for t in tables]
    for table in expected:
        python_commit(table, (), {}, 4, decay)
    _idle_commit(engine, tables, 4)
    assert [_bits(t) for t in tables] == [_bits(t) for t in expected]
    assert all(w < 0.9 for t in tables for w in t.values())


def _members(replay, node):
    return sorted(rec.key for rec in replay.slots() if rec is not None and rec.node == node)


def test_missing_member_is_appended_in_key_order(engine):
    # A real running set on both sockets, replayed by a second object
    # over copies of the tables: on each copy, drop every member but
    # the last and add a decaying stranger.  The kernel must read absent
    # members as 0.0, charge them and append them in key order after
    # the surviving entries.
    machine = engine.machine
    running = {p.current.key: p.node for p in machine.pcpus if p.current is not None}
    members = [sorted(k for k, node in running.items() if node == n) for n in (0, 1)]
    assert all(members)
    tables, before = [], []
    for keys, cache in zip(members, machine.caches):
        table = {k: w for k, w in cache.state.warmth_table.items() if k not in keys[:-1]}
        table[999] = 0.5
        tables.append(table)
        before.append(dict(table))
    replay = BatchedEngine.kernel.Replay(
        machine.pcpus, engine._scalars, engine.epoch, tuple(tables)
    )
    inf = math.inf
    kb = replay.step(engine, machine.time, 3, inf, inf, inf, inf, 0, 0.0)[0]
    assert [_members(replay, n) for n in (0, 1)] == members
    cf = {rec.key: rec.charge for rec in replay.slots() if rec is not None}
    for keys, table, want in zip(members, tables, before):
        charged = {}
        for key in keys:
            w = want.get(key, 0.0)
            for _ in range(kb):
                w = 1.0 - (1.0 - w) * cf[key]
            charged[key] = w
        python_commit(want, keys, charged, kb, _decay(engine))
        assert _bits(table) == _bits(want)
        missing = keys[:-1]
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
    kernel = BatchedEngine.kernel

    class PythonCommit:
        """The kernel's replay, with its commit redone in Python."""

        def __init__(self, pcpus, scalars, epoch, tables):
            self.tables = tables
            self.charged = tuple({} for _ in tables)
            self.real = kernel.Replay(pcpus, scalars, epoch, self.charged)
            self.decay = scalars[10]

        def step(self, engine, *args):
            for charged, table in zip(self.charged, self.tables):
                charged.clear()
                charged.update(table)
            result = self.real.step(engine, *args)
            for node, (table, done) in enumerate(zip(self.tables, self.charged)):
                keys = _members(self.real, node)
                python_commit(table, keys, {k: done[k] for k in keys}, result[0], self.decay)
            return result

        def drop(self, vcpu):
            self.real.drop(vcpu)

    monkeypatch.setattr(BatchedEngine, "kernel", SimpleNamespace(Replay=PythonCommit))
    assert run() == compiled
