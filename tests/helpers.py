"""Test helpers: lightweight construction of domains and VCPUs, and
hooks around the batched engine's compiled replay object."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, List, Optional

import numpy as np

from repro.workloads.appmodel import ApplicationProfile, VcpuWorkload
from repro.workloads.generators import synthetic_profile
from repro.xen.domain import Domain
from repro.xen.memalloc import place_single_node
from repro.xen.vcpu import Vcpu, VcpuState

__all__ = ["make_domain", "make_vcpu", "make_vcpus", "python_commit", "watch_replay"]


def make_domain(
    num_vcpus: int = 1,
    profile: Optional[ApplicationProfile] = None,
    name: str = "dom",
    num_nodes: int = 2,
) -> Domain:
    """A small single-node domain with synthetic workloads."""
    prof = profile or synthetic_profile("llc-fi", total_instructions=1e9)
    workloads = [
        VcpuWorkload(prof, np.random.default_rng(i), slice_id=i, num_slices=num_vcpus)
        for i in range(num_vcpus)
    ]
    return Domain(
        name,
        1024**3,
        place_single_node(num_vcpus, num_nodes, node=0),
        workloads,
        first_touch_init=False,
    )


def make_vcpu(
    key: int = 0,
    credits: float = 0.0,
    boosted: bool = False,
    llc_pressure: float = 0.0,
    domain: Optional[Domain] = None,
) -> Vcpu:
    """A runnable VCPU with chosen scheduling attributes."""
    dom = domain or make_domain()
    vcpu = Vcpu(key, dom, 0, dom.workloads[0])
    vcpu.state = VcpuState.RUNNABLE
    vcpu.credits = credits
    vcpu.boosted = boosted
    vcpu.llc_pressure = llc_pressure
    return vcpu


def make_vcpus(specs: List[dict]) -> List[Vcpu]:
    """Several VCPUs from keyword-spec dicts (each gets its own domain)."""
    return [make_vcpu(key=i, **spec) for i, spec in enumerate(specs)]


class _WatchedReplay:
    """A replay object whose steps call ``after(replay, engine, result)``
    right after the compiled step, before the engine's transitions."""

    def __init__(self, real, after: Callable) -> None:
        self.real = real
        self.after = after

    def step(self, engine, *args):
        result = self.real.step(engine, *args)
        self.after(self.real, engine, result)
        return result

    def drop(self, vcpu) -> None:
        self.real.drop(vcpu)

    def slots(self) -> list:
        return self.real.slots()


def watch_replay(monkeypatch, after: Callable) -> None:
    """Watch every batched engine built from now on (see _WatchedReplay)."""
    from repro.xen.engine import BatchedEngine

    kernel = BatchedEngine.kernel
    monkeypatch.setattr(
        BatchedEngine,
        "kernel",
        SimpleNamespace(Replay=lambda *args: _WatchedReplay(kernel.Replay(*args), after)),
    )


def python_commit(table, members, charged, kb, decay):
    """``kb`` epochs of ``LLCState.advance`` on ``table``, batched.

    Non-members decay by ``kb`` sequential multiplies, entries below
    ``EPSILON`` are evicted once at the end, and the members take their
    ``charged`` warmth last, in key order: the oracle of the replay
    kernel's warmth commit.
    """
    from repro.hardware.cache import LLCState

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
