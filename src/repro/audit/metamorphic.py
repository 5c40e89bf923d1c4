"""Metamorphic relations: transformed inputs with predictable outputs.

Differential fuzzing (:mod:`repro.audit.fuzz`) catches engines
disagreeing with *each other*; metamorphic relations catch both
agreeing on something *wrong*.  Each relation transforms a scenario in
a way whose effect on the result is known exactly:

* **relabel** — renaming domains must permute the summary's domain
  keys and nothing else.  Sound because workload RNG streams are keyed
  by structural slot tags (``d{i}.v{j}``), never display names.
* **work_scale** — doubling ``work_scale`` multiplies each finite
  profile's *finish line* but no per-instruction behaviour, so both
  runs must make identical scheduling decisions at matched epochs
  until the first completion.  Compared at a horizon two epochs short
  of the base run's earliest finish.
* **node permutation** — restricted to pinned, symmetric, steal-free
  scenarios (one never-blocking unbounded VCPU per PCPU, whole domains
  pinned to whole nodes, stock Credit): permuting which node each
  domain (and its memory) lives on must not change the summary at all.
  This is deliberately *not* claimed for general scenarios — Algorithm
  1's MIN-NODE tie-break, Credit's ascending-PCPU scheduling pass and
  shared steal RNG streams all legitimately break full node
  equivariance — the restricted form isolates the *hardware model's*
  node symmetry, which must hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.audit.fuzz import FuzzScenario, build_fuzz_machine, default_names
from repro.audit.invariants import InvariantChecker
from repro.experiments.scenarios import ScenarioConfig, build_machine, make_scheduler
from repro.hardware.topology import GIB, symmetric_topology
from repro.metrics.collectors import summarize
from repro.obs.manifest import canonical_dumps
from repro.util.rng import RngStreams
from repro.workloads.appmodel import VcpuWorkload
from repro.workloads.suites import get_profile, hungry_loop
from repro.xen.domain import Domain
from repro.xen.memalloc import place_single_node

__all__ = [
    "MetamorphicResult",
    "check_relabel",
    "check_work_scale",
    "NodePermSpec",
    "generate_node_perm_spec",
    "check_node_permutation",
    "run_metamorphic",
]


@dataclass(frozen=True)
class MetamorphicResult:
    """Outcome of one relation on one scenario."""

    relation: str
    ok: bool
    skipped: bool = False
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {
            "relation": self.relation,
            "ok": self.ok,
            "skipped": self.skipped,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Relabeling
# ---------------------------------------------------------------------------


def check_relabel(
    scenario: FuzzScenario, engine: str = "batched", every: int = 4
) -> MetamorphicResult:
    """Renaming domains must permute summary keys, nothing else."""
    n = len(scenario.profiles)
    base_names = default_names(n)
    new_names = [f"guest-{chr(ord('a') + i)}" for i in range(n)]

    checker = InvariantChecker(every=every)
    base = build_fuzz_machine(scenario, engine)
    base.run(audit=checker)
    renamed = build_fuzz_machine(scenario, engine, names=new_names)
    renamed.run(audit=InvariantChecker(every=every))

    s_base = summarize(base).to_dict(include_profile=False)
    s_renamed = summarize(renamed).to_dict(include_profile=False)

    # Map the renamed run's domains back onto the base names; after the
    # remap the two summaries must be canonically identical.
    remapped = dict(s_renamed)
    remapped["domains"] = {}
    for i in range(n):
        stats = dict(s_renamed["domains"][new_names[i]])
        stats["name"] = base_names[i]
        remapped["domains"][base_names[i]] = stats

    a, b = canonical_dumps(s_base), canonical_dumps(remapped)
    if a != b:
        return MetamorphicResult(
            "relabel",
            ok=False,
            detail=f"renamed run differs beyond domain names: {_excerpt(a, b)}",
        )
    return MetamorphicResult("relabel", ok=True)


# ---------------------------------------------------------------------------
# Work scaling
# ---------------------------------------------------------------------------


def check_work_scale(
    scenario: FuzzScenario, engine: str = "batched", every: int = 4
) -> MetamorphicResult:
    """Doubling work_scale must not change pre-completion decisions."""
    probe = build_fuzz_machine(scenario, engine)
    probe.run()
    epoch = probe.config.epoch_s
    finishes = [v.finish_time for v in probe.vcpus if v.finish_time is not None]
    if not finishes:
        return MetamorphicResult(
            "work_scale",
            ok=True,
            skipped=True,
            detail="no finite workload finished within the budget",
        )
    horizon = min(finishes) - 2 * epoch
    if horizon < 20 * epoch:
        return MetamorphicResult(
            "work_scale",
            ok=True,
            skipped=True,
            detail="first completion too early for a meaningful window",
        )

    digests = []
    for scale in (scenario.work_scale, scenario.work_scale * 2):
        machine = build_fuzz_machine(scenario, engine, work_scale=scale)
        machine.run(max_time_s=horizon, audit=InvariantChecker(every=every))
        digests.append(_decision_digest(machine))
    if digests[0] != digests[1]:
        return MetamorphicResult(
            "work_scale",
            ok=False,
            detail=(
                f"doubling work_scale changed decisions before any "
                f"completion (horizon {horizon:.3f}s): "
                + _excerpt(digests[0], digests[1])
            ),
        )
    return MetamorphicResult("work_scale", ok=True)


def _decision_digest(machine) -> str:
    """Canonical snapshot of everything the scheduler decided."""
    return canonical_dumps(
        {
            "time": machine.time,
            "epoch": machine.epoch_index,
            "context_switches": machine.context_switches,
            "migrations": machine.migrations,
            "cross_node_migrations": machine.cross_node_migrations,
            "steals": [machine.steals_local, machine.steals_remote],
            "vcpus": [
                [
                    v.key,
                    v.state.name,
                    v.pcpu,
                    v.credits,
                    v.vcpu_type.name,
                    v.assigned_node,
                    v.workload.instructions_done,
                ]
                for v in machine.vcpus
            ],
        }
    )


# ---------------------------------------------------------------------------
# Node permutation (restricted: pinned, symmetric, steal-free)
# ---------------------------------------------------------------------------

#: Profiles eligible for the pinned relation; each is stripped to an
#: unbounded, never-blocking variant so no VCPU ever completes, blocks
#: or wakes — the conditions under which Credit provably never steals
#: (every PCPU always has exactly its own pinned VCPU).
_PINNED_PROFILES: Tuple[str, ...] = ("soplex", "mcf", "povray", "milc", "gcc", "hungry")


@dataclass(frozen=True)
class NodePermSpec:
    """A pinned-symmetric scenario plus the node permutation to apply.

    ``profiles[i]`` runs in domain ``pin{i}`` whose VCPUs are pinned
    one-to-one onto node ``perm[i]``'s PCPUs and whose memory sits on
    node ``perm[(i + mem_offsets[i]) % num_nodes]`` — a nonzero offset
    makes every access remote, exercising interconnect symmetry too.
    """

    seed: int
    num_nodes: int
    pcpus_per_node: int
    profiles: Tuple[str, ...]
    mem_offsets: Tuple[int, ...]
    max_time_s: float = 0.5

    def __post_init__(self) -> None:
        if len(self.profiles) != self.num_nodes:
            raise ValueError("need exactly one domain per node")
        if len(self.mem_offsets) != self.num_nodes:
            raise ValueError("need one memory offset per domain")


def generate_node_perm_spec(seed: int) -> NodePermSpec:
    """Draw a pinned-symmetric spec from the seeded distribution."""
    rng = np.random.default_rng(np.uint64(seed) + np.uint64(0xA0DE))
    num_nodes = int((2, 3)[int(rng.integers(2))])
    per_node = int((2, 3)[int(rng.integers(2))])
    profiles = tuple(
        _PINNED_PROFILES[int(rng.integers(len(_PINNED_PROFILES)))]
        for _ in range(num_nodes)
    )
    offsets = tuple(int(rng.integers(num_nodes)) for _ in range(num_nodes))
    return NodePermSpec(
        seed=seed,
        num_nodes=num_nodes,
        pcpus_per_node=per_node,
        profiles=profiles,
        mem_offsets=offsets,
    )


def _unbounded(name: str):
    profile = hungry_loop() if name == "hungry" else get_profile(name)
    return profile.with_overrides(total_instructions=None, blocking=None)


def _pinned_machine(spec: NodePermSpec, perm: Sequence[int], engine: str):
    topo = symmetric_topology(spec.num_nodes, spec.pcpus_per_node)
    cfg = ScenarioConfig(
        seed=spec.seed,
        max_time_s=spec.max_time_s,
        sample_period_s=1.0,
        engine=engine,
        max_epochs=4 * int(round(spec.max_time_s / 1e-3)) + 64,
        label=f"node-perm-{spec.seed}",
    )
    rng = RngStreams(cfg.seed)
    k = spec.pcpus_per_node
    domains = []
    for i, pname in enumerate(spec.profiles):
        profile = _unbounded(pname)
        workloads = [
            VcpuWorkload(profile, rng.get(f"p{i}.v{j}"), slice_id=j, num_slices=k)
            for j in range(k)
        ]
        mem_node = perm[(i + spec.mem_offsets[i]) % spec.num_nodes]
        domains.append(
            Domain(
                f"pin{i}",
                2 * GIB,
                place_single_node(k, spec.num_nodes, node=mem_node),
                workloads,
                pinned_pcpus=list(topo.pcpus_of_node(perm[i])),
                # Keep the placement as stated: first-touch would snap
                # memory to the run node and erase the remote traffic
                # the relation is exercising.
                first_touch_init=False,
            )
        )
    return build_machine(make_scheduler("credit"), cfg, domains, topo)


#: Relative tolerance for the node-permutation comparison.  The
#: hardware model sums per-node contributions in node-index order;
#: a permutation reorders those terms, and IEEE addition is not
#: associative, so permuted runs differ in the last couple of ULPs
#: (observed <= 3e-16 relative).  Real node-asymmetry bugs show up
#: orders of magnitude above this; exact equality would only flag the
#: summation order.
_PERM_REL_TOL = 1e-12


def check_node_permutation(
    spec: NodePermSpec, engine: str = "batched", every: int = 4
) -> MetamorphicResult:
    """Rotating domains across nodes must leave the summary unchanged
    (up to float summation order — see ``_PERM_REL_TOL``)."""
    identity = list(range(spec.num_nodes))
    rotated = [(i + 1) % spec.num_nodes for i in range(spec.num_nodes)]

    summaries = []
    for perm in (identity, rotated):
        machine = _pinned_machine(spec, perm, engine)
        machine.run(audit=InvariantChecker(every=every))
        summaries.append(summarize(machine).to_dict(include_profile=False))
    mismatches = _approx_mismatches(summaries[0], summaries[1], _PERM_REL_TOL)
    if mismatches:
        return MetamorphicResult(
            "node_permutation",
            ok=False,
            detail=(
                "rotating pinned domains across nodes changed the summary: "
                + "; ".join(mismatches[:5])
            ),
        )
    return MetamorphicResult("node_permutation", ok=True)


def _approx_mismatches(a: Any, b: Any, rel: float, path: str = "$") -> List[str]:
    """Structural comparison with relative tolerance on numeric leaves."""
    if isinstance(a, dict) and isinstance(b, dict):
        out: List[str] = []
        if set(a) != set(b):
            return [f"{path}: keys {sorted(a)} != {sorted(b)}"]
        for key in a:
            out.extend(_approx_mismatches(a[key], b[key], rel, f"{path}.{key}"))
        return out
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(_approx_mismatches(x, y, rel, f"{path}[{i}]"))
        return out
    if (
        isinstance(a, (int, float))
        and isinstance(b, (int, float))
        and not isinstance(a, bool)
        and not isinstance(b, bool)
    ):
        if a == b:
            return []
        scale = max(abs(a), abs(b))
        if abs(a - b) <= rel * scale:
            return []
        return [f"{path}: {a!r} != {b!r} (rel {abs(a - b) / scale:.2e})"]
    if a != b:
        return [f"{path}: {a!r} != {b!r}"]
    return []


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_metamorphic(
    scenario: FuzzScenario, engine: str = "batched", every: int = 4
) -> List[MetamorphicResult]:
    """All relations applicable to one generated scenario.

    The node-permutation relation runs on its own restricted spec drawn
    from the scenario's seed rather than on the scenario itself (see
    module docstring for why general equivariance is unsound).
    """
    return [
        check_relabel(scenario, engine, every),
        check_work_scale(scenario, engine, every),
        check_node_permutation(generate_node_perm_spec(scenario.seed), engine, every),
    ]


def _excerpt(a: str, b: str, context: int = 60) -> str:
    limit = min(len(a), len(b))
    idx = limit
    for i in range(limit):
        if a[i] != b[i]:
            idx = i
            break
    lo = max(0, idx - context)
    return (
        f"first difference at char {idx}: "
        f"...{a[lo:idx + context]!r} != ...{b[lo:idx + context]!r}"
    )
