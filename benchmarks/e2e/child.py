"""One benchmark repeat, in a fresh interpreter.

``run.py`` starts ``python child.py SPEC_JSON`` with ``PYTHONPATH`` set to
the checkout's ``src``.  The child imports ``repro``, builds the cells (or
opens the report's cache), prints ``ready`` and closes its standard
output, then runs the timed section and writes its result as JSON to
``spec["result"]``.  It exits 0 when the section ran, whatever its
outputs; ``run.py`` checks them.

Spec keys: ``root``, ``result``, ``mode`` (``timed``, ``traced`` or
``reference``), ``seed``, ``workload`` (a :class:`workloads.Workload` as
a dict) and, for reports, ``outdir``, ``cache`` and ``jobs``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import resource
import sys
import time
import traceback
from typing import Any, Callable, ContextManager, Dict, Tuple

#: Report files that may differ between two identical runs: the run
#: accounting, and the host wall-clock per scheduler phase that Table III
#: prints beside its simulated overheads.
UNCOMPARED = "recovery.json"
MASKED = ("table3_overhead.json", "phase_wall_ms")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digests(outdir: pathlib.Path) -> Dict[str, str]:
    """sha256 of every report ``.json`` (masked where host time leaks in)."""
    from repro.obs.manifest import canonical_dumps

    out = {}
    for path in sorted(outdir.glob("*.json")):
        if path.name == UNCOMPARED:
            continue
        if path.name == MASKED[0]:
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["payload"][MASKED[1]] = None
            out[path.name] = _digest(canonical_dumps(doc))
        else:
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def cache_epochs(cache_dir: pathlib.Path) -> int:
    """Simulated epochs behind every entry of a result cache."""
    from repro.experiments.scenarios import ScenarioConfig

    epoch_s = ScenarioConfig().epoch_s
    total = 0
    for path in cache_dir.glob("??/*.json"):
        entry = json.loads(path.read_bytes())
        total += round(entry["summary"]["machine_stats"]["sim_time_s"] / epoch_s)
    return total


def setup_cells(spec: Dict[str, Any]) -> Tuple[Callable[[], Dict[str, Any]], Callable]:
    """Build the workload's machines; returns (timed section, finisher)."""
    import repro.experiments.scenarios as scenarios
    from repro.obs.manifest import canonical_dumps

    work = spec["workload"]
    engine = {"engine": "reference"} if spec["mode"] == "reference" else {}
    cfg = scenarios.ScenarioConfig(
        work_scale=work["work_scale"], seed=spec["seed"], **engine
    )
    machines = [
        (
            f"{fn}({arg})/{scheduler}",
            getattr(scenarios, fn)(arg, scenarios.make_scheduler(scheduler), cfg),
        )
        for fn, arg, scheduler in work["cells"]
    ]

    def timed() -> Dict[str, Any]:
        from repro.metrics.collectors import summarize

        summaries = {}
        for cell, machine in machines:
            machine.run(max_time_s=work["sim_s"])
            summaries[cell] = summarize(machine)
        return summaries

    def finish(summaries: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "epochs": sum(machine.epoch_index for _cell, machine in machines),
            "digests": {
                cell: _digest(canonical_dumps(s.to_dict(include_profile=False)))
                for cell, s in summaries.items()
            },
        }

    return timed, finish


def setup_report(spec: Dict[str, Any]) -> Tuple[Callable[[], Dict[str, Any]], Callable]:
    """Open the report's cache; returns (timed section, finisher)."""
    from repro.cache.store import ResultCache
    from repro.experiments.report_all import regenerate_all

    work = spec["workload"]
    cache_dir = pathlib.Path(spec["cache"])
    outdir = pathlib.Path(spec["outdir"])
    cache = ResultCache(cache_dir)
    only = tuple(work["only"]) if work["only"] else None

    def timed() -> Dict[str, Any]:
        return regenerate_all(outdir, fast=True, only=only, jobs=spec["jobs"], cache=cache)

    def finish(stats: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "epochs": cache_epochs(cache_dir),
            "digests": report_digests(outdir),
            "stats": stats,
        }

    return timed, finish


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Set up, signal ready, run the timed section; the result record."""
    root = pathlib.Path(spec["root"]).resolve()
    import repro

    where = pathlib.Path(repro.__file__).resolve()
    if not where.is_relative_to(root / "src"):
        raise RuntimeError(f"repro imported from {where}, not from {root / 'src'}")
    setup = setup_report if spec["workload"]["report"] else setup_cells
    timed, finish = setup(spec)

    print("ready", flush=True)
    # Nothing else may reach the pipe: the parent stops reading after
    # the ready line, and report tables would fill it.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    tracer = restore = None
    scope: ContextManager[None] = contextlib.nullcontext()
    if spec["mode"] == "traced":
        import spans

        tracer = spans.Tracer()
        restore = spans.install(tracer)
        scope = tracer.root()
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    try:
        with scope:
            output = timed()
    finally:
        if restore is not None:
            restore()
    wall = time.perf_counter() - wall0
    cpu = _cpu_s() - cpu0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {"ok": True, "wall_s": wall, "cpu_s": cpu, "peak_rss_kb": peak_kb}
    record.update(finish(output))
    if tracer is not None:
        record["trace"] = {
            "layers": tracer.layers(),
            "by_parent": tracer.by_parent(),
            "spans": tracer.spans,
        }
    return record


def main(argv: list) -> int:
    spec = json.loads(argv[1])
    result = pathlib.Path(spec["result"])
    try:
        record = measure(spec)
    except Exception:
        record = {"ok": False, "error": traceback.format_exc()}
    result.write_text(json.dumps(record), encoding="utf-8")
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
