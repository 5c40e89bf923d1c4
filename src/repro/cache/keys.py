"""Content-addressed keys for the result cache.

A cache key must capture *everything that can change a run's summary*
and nothing else.  Four inputs define a grid cell's result:

1. the **scenario builder** — which workload topology gets built, and
   with which bound arguments (``partial(spec_scenario, "soplex")``);
2. the **scheduler name** — resolved by
   :func:`repro.experiments.scenarios.make_scheduler`;
3. the **config** — ``work_scale`` (a builder-level knob) plus the
   result-defining :class:`~repro.xen.simulator.SimConfig` subset
   already hashed by :func:`repro.obs.manifest.config_hash` (seed,
   periods, latencies, fault plan, epoch cap; *not* engine/logging/
   label, which are proven result-neutral);
4. a **version stamp** — the cache schema plus the package version, so
   entries written by older code self-invalidate by never being looked
   up (and ``repro cache prune`` can sweep them).

Builder identity is derived structurally: :func:`builder_fingerprint`
unwraps ``functools.partial`` layers down to a module-level function
and renders ``module.qualname(bound args)``.  Anything it cannot prove
stable — lambdas, closures, bound methods, non-primitive bound
arguments — returns ``None``, and callers must then *bypass* the cache
for that cell rather than risk a false hit.  Every builder the figure
and table modules use is fingerprintable.
"""

from __future__ import annotations

import hashlib
import sys
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.obs.manifest import canonical_dumps, config_hash, fault_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenarios import ScenarioConfig

__all__ = [
    "CACHE_SCHEMA",
    "builder_fingerprint",
    "result_key",
    "scenario_key",
]

#: Cache entry/key schema identifier (bump on any breaking layout change;
#: bumping it orphans every existing entry, which is the point).
CACHE_SCHEMA = "repro.cache/v1"

#: Bound-argument types whose ``repr`` is stable across processes.
_PRIMITIVE = (str, int, float, bool, type(None))


def builder_fingerprint(builder: object) -> Optional[str]:
    """A stable identity string for a scenario builder, or ``None``.

    Unwraps ``functools.partial`` layers and requires the base callable
    to be a function reachable at module top level under its own name —
    the property that guarantees two processes (or two sessions)
    resolving the same string get the same code path.  Bound arguments
    must be primitives so their ``repr`` is canonical.
    """
    fn = builder
    bound: list[str] = []
    while isinstance(fn, partial):
        for arg in fn.args:
            if not isinstance(arg, _PRIMITIVE):
                return None
            bound.append(repr(arg))
        for kw, value in sorted(fn.keywords.items()):
            if not isinstance(value, _PRIMITIVE):
                return None
            bound.append(f"{kw}={value!r}")
        fn = fn.func
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname or "." in qualname:
        return None  # lambda, closure, or nested definition
    mod = sys.modules.get(module)
    if mod is None or getattr(mod, qualname, None) is not fn:
        return None  # not importable under its advertised name
    return f"{module}.{qualname}({', '.join(bound)})"


def scenario_key(builder_id: str, scheduler_id: str, cfg: "ScenarioConfig") -> str:
    """SHA-256 cache key from a builder fingerprint and scheduler name.

    ``builder_id`` is a :func:`builder_fingerprint`; the runner passes
    it memoised per grid, and :func:`result_key` derives it for a
    single cell.
    """
    from repro import __version__

    payload = {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "builder": builder_id,
        "scheduler": scheduler_id,
        "work_scale": cfg.work_scale,
        "config_hash": config_hash(cfg.sim_config()),
        "faults": fault_fingerprint(cfg.faults),
    }
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()


def result_key(
    builder: object, scheduler: str, cfg: "ScenarioConfig"
) -> Optional[str]:
    """Cache key for one (builder, scheduler, config) grid cell.

    Returns ``None`` when the builder has no provable identity, in
    which case the cell must run uncached.
    """
    builder_id = builder_fingerprint(builder)
    if builder_id is None:
        return None
    return scenario_key(builder_id, scheduler, cfg)
