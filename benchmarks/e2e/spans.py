"""Layer spans, taken from outside the program.

For one traced repeat the harness wraps the public functions and methods
listed in :data:`LAYERS`, and restores the originals afterwards; nothing
under ``src/`` is edited.  A span records its layer, start, end and
parent layer.  A layer called while a span of
the same layer is open (``VProbeScheduler.steal`` calling
``super().steal``) is folded into the open span.

Aggregates are kept per (layer, parent layer).  Raw spans are kept only
for the cell- and grid-level layers in :data:`RAW_TAGS`, tagged with a
cell id.  A layer's self time is its duration minus the durations of the
wrapped calls it made; the root span's self time is the traced time no
layer covers (``unattributed``), so all self times sum to the root's
duration.

Scenario builders (``spec_scenario`` and friends) are never wrapped:
``repro.cache.keys.builder_fingerprint`` requires the module attribute to
be the very function, so a wrapper would turn every grid cell into a
cache bypass.  Builds are timed through ``build_machine`` instead.

Importing this module does not import ``repro``.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "LAYERS",
    "ROOT",
    "Tracer",
    "install",
    "layer_names",
    "per_layer_metrics",
]

#: (layer, module, attribute), in report order.  ``Class.method`` wraps
#: the method on that class and on every subclass that overrides it; a
#: bare name wraps the function wherever a ``repro`` module binds it.
#: Missing modules or attributes are skipped, so the layer reads as
#: absent (0 calls).
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("machine.run", "repro.xen.simulator", "Machine.run"),
    ("engine.advance_batch", "repro.xen.engine", "BatchedEngine.advance_batch"),
    ("engine.advance_running", "repro.xen.engine", "VectorEngine.advance_running"),
    ("engine.compute_horizon", "repro.xen.engine", "BatchedEngine.compute_horizon"),
    ("engine.pop_due_wakes", "repro.xen.engine", "VectorEngine.pop_due_wakes"),
    ("engine.apply_phase_changes", "repro.xen.engine", "VectorEngine.apply_phase_changes"),
    ("stacked.run_stacked", "repro.xen.stacked", "run_stacked"),
    ("policy.steal", "repro.xen.credit", "SchedulerPolicy.steal"),
    ("policy.on_tick", "repro.xen.credit", "SchedulerPolicy.on_tick"),
    ("policy.on_vcpu_wake", "repro.xen.credit", "SchedulerPolicy.on_vcpu_wake"),
    ("policy.on_context_switch", "repro.xen.credit", "SchedulerPolicy.on_context_switch"),
    ("policy.on_sample_period", "repro.xen.credit", "SchedulerPolicy.on_sample_period"),
    ("analyzer.analyze", "repro.core.analyzer", "PmuAnalyzer.analyze"),
    ("partition.periodical_partition", "repro.core.partition", "periodical_partition"),
    ("scenario.build_machine", "repro.experiments.scenarios", "build_machine"),
    ("grid.cell", "repro.experiments.runner", "execute_cell"),
    ("grid.cell", "repro.recovery.checkpoint", "execute_cell_resumable"),
    ("grid.run_cells", "repro.experiments.parallel", "ParallelRunner.run_cells"),
    ("report.dump_report", "repro.experiments.jsonreport", "dump_report"),
    ("metrics.summarize", "repro.metrics.collectors", "summarize"),
    ("cache.get", "repro.cache.store", "ResultCache.get"),
    ("cache.put", "repro.cache.store", "ResultCache.put"),
    ("journal.record_cell", "repro.recovery.journal", "GridJournal.record_cell"),
    ("journal.record_job", "repro.recovery.journal", "GridJournal.record_job"),
)

#: Name of the root span around the traced section.
ROOT = "unattributed"


def _wchar() -> int:
    """Bytes this process has written so far (0 where /proc is absent)."""
    try:
        with open("/proc/self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


#: Per-layer counts beyond calls and time: layer -> (metric, unit,
#: before(args, kwargs), after(args, kwargs, result, before_value)).
#: A metric named ``hits`` is reported as ``hit_ratio`` = hits / calls.
EXTRAS: Dict[str, Tuple[str, str, Optional[Callable], Callable]] = {
    "machine.run": (
        "epochs",
        "count",
        lambda a, k: a[0].epoch_index,
        lambda a, k, r, pre: a[0].epoch_index - pre,
    ),
    "engine.advance_batch": ("epochs", "count", None, lambda a, k, r, pre: _arg(a, k, 3, "kb")),
    "stacked.run_stacked": ("lanes", "count", None, lambda a, k, r, pre: len(a[0])),
    "policy.steal": ("hits", "ratio", None, lambda a, k, r, pre: r is not None),
    "cache.get": ("hits", "ratio", None, lambda a, k, r, pre: r is not None),
    "journal.record_cell": ("bytes", "B", lambda a, k: _wchar(), lambda a, k, r, pre: _wchar() - pre),
}


def _cell_id(a: tuple) -> str:
    from repro.experiments.parallel import cell_name

    return cell_name((a[0], a[1], a[2]))


#: Layers whose every span is kept raw, with the cell id it belongs to.
RAW_TAGS: Dict[str, Callable[[tuple], str]] = {
    "machine.run": lambda a: f"{a[0].policy.name}/seed={a[0].config.seed}",
    "grid.cell": _cell_id,
    "grid.run_cells": lambda a: f"grid of {len(a[1])} cells",
    "stacked.run_stacked": lambda a: f"stack of {len(a[0])} lanes",
}


def layer_names() -> List[str]:
    """Every layer, in report order."""
    return list(dict.fromkeys(layer for layer, _module, _attr in LAYERS))


def per_layer_metrics() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric the benchmark reports."""
    out: List[Tuple[str, str]] = []
    for layer in layer_names():
        out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.self_share", "ratio"))
        extra = EXTRAS.get(layer)
        if extra is not None:
            metric, unit = extra[0], extra[1]
            out.append((f"{layer}.{'hit_ratio' if metric == 'hits' else metric}", unit))
    out += [
        ("trace.total_s", "s"),
        ("trace.unattributed_share", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


class Tracer:
    """Span bookkeeping for one traced section (single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._stack: List[List[Any]] = []  # [layer, start, wrapped child time]
        self._open: Set[str] = set()
        #: (layer, parent layer) -> [calls, total_s, self_s, extra]
        self.agg: Dict[Tuple[str, str], List[float]] = {}
        #: raw spans of the RAW_TAGS layers, times relative to the root
        self.spans: List[Dict[str, Any]] = []
        self._origin = 0.0

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside a span of ``layer``."""
        if layer in self._open:
            return fn(*args, **kwargs)
        extra = EXTRAS.get(layer)
        pre = extra[2](args, kwargs) if extra is not None and extra[2] is not None else None
        frame = [layer, 0.0, 0.0]
        self._stack.append(frame)
        self._open.add(layer)
        frame[1] = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, self.clock(), 0.0, args)
            raise
        end = self.clock()
        value = extra[3](args, kwargs, result, pre) if extra is not None else 0.0
        self._close(frame, end, float(value), args)
        return result

    def _close(self, frame: List[Any], end: float, value: float, args: tuple) -> None:
        layer, start, child = frame
        self._stack.pop()
        self._open.discard(layer)
        duration = end - start
        parent = self._stack[-1][0] if self._stack else ""
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.agg.setdefault((layer, parent), [0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        entry[3] += value
        tag = RAW_TAGS.get(layer)
        if tag is not None:
            self.spans.append(
                {
                    "layer": layer,
                    "parent": parent,
                    "start": start - self._origin,
                    "end": end - self._origin,
                    "cell": tag(args),
                }
            )

    @contextmanager
    def root(self) -> Iterator[None]:
        """The traced section; its self time is the unattributed time."""
        frame = [ROOT, 0.0, 0.0]
        self._stack.append(frame)
        self._origin = frame[1] = self.clock()
        try:
            yield
        finally:
            self._close(frame, self.clock(), 0.0, ())

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per-layer totals over all parents: calls, self_s, extra."""
        out: Dict[str, Dict[str, float]] = {}
        for (layer, _parent), (calls, _total, self_s, extra) in self.agg.items():
            entry = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "extra": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
            entry["extra"] += extra
        return out

    def by_parent(self) -> List[Dict[str, Any]]:
        """The raw aggregates, one row per (layer, parent layer)."""
        return [
            {"layer": layer, "parent": parent, "calls": int(c), "total_s": t, "self_s": s}
            for (layer, parent), (c, t, s, _x) in sorted(self.agg.items())
        ]


def _wrapper(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(layer, fn, args, kwargs)

    traced.__e2e_layer__ = layer  # type: ignore[attr-defined]
    return traced


def _import_all() -> None:
    """Import every ``repro`` module before any attribute is swapped.

    A module first imported while tracing is on would bind a wrapper
    through ``from x import f`` and keep it after :func:`install`'s
    restore.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            try:
                importlib.import_module(info.name)
            except ImportError:
                continue


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer for ``tracer``; returns the function that restores them."""
    _import_all()
    patches: List[Tuple[object, str, object]] = []

    def patch(owner: object, attr: str, original: object, wrapped: Callable) -> None:
        patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    for layer, module_name, attr in LAYERS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        if "." in attr:
            cls_name, method = attr.split(".")
            todo = [getattr(module, cls_name)] if hasattr(module, cls_name) else []
            while todo:
                cls = todo.pop()
                todo.extend(cls.__subclasses__())
                if method in vars(cls):
                    original = vars(cls)[method]
                    patch(cls, method, original, _wrapper(tracer, layer, original))
            continue
        original = getattr(module, attr, None)
        if original is None:
            continue
        wrapped = _wrapper(tracer, layer, original)
        for name, mod in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, key, original, wrapped)

    def restore() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore
