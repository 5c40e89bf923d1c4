"""End-to-end benchmark of the vProbe reproduction, with a per-layer trace.

    python benchmarks/e2e/run.py [--workload W]... [--seed N]
        [--repeats N | --seconds S] [--trace [0|1]] [--out FILE]

Each repeat runs in a fresh child interpreter (``child.py``) with
``PYTHONPATH=<checkout>/src``, ``REPRO_CACHE_DIR`` unset and one BLAS
thread.  One client drives the load in a closed loop: repeats run one at
a time, round-robin across the selected workloads.  Cells run in one
process; reports use ``min(2, nproc)`` workers.

The harness prints every metric as ``workload metric value unit`` (the
median over repeats; ``repeats`` gives n), checks the outputs and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  It
exits 1 if any output check failed and 2 if the checkout has no
``src/repro``.

Output checks: each cell's canonical summary must equal the reference
engine's run of the same cell (run once per invocation, untimed); every
report repeat must write the same ``.json`` bytes as the cold report;
the warm report must hit the cache for every cell and the cold one for
none; nothing may be quarantined.

``--repeats`` fixes the repeat count (default 5/5/3/5); ``--seconds``
instead repeats each workload until it has run that long.  ``--trace``
adds one traced repeat per workload (reports at one worker, so the
grid's cells run in-process) and prints the per-layer metrics of
``spans.py``; with ``--trace`` the JSON line carries those instead of
the end-to-end metrics.  ``--out`` writes every repeat's values, the
median and quartiles, the host record and the raw spans.

Scratch files live under ``<checkout>/.e2e_work``.  The cold report's
cache is kept there, keyed by a hash of ``src/``, and serves as the
warm report's full cache in later invocations.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import spans
from workloads import E2E_METRICS, WORKLOADS, Workload

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = pathlib.Path(__file__).resolve().parent
WORK = ROOT / ".e2e_work"

#: A child that has not finished by then is killed with its workers.
CHILD_TIMEOUT_S = 150.0
#: Self times plus unattributed time must match the traced total this well.
SUM_TOLERANCE = 0.01


def source_hash() -> str:
    """Hash of every file under ``src/`` plus the interpreter and numpy."""
    h = hashlib.sha256(f"{sys.version}|{_numpy_version()}".encode())
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _numpy_version() -> Optional[str]:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_record() -> Dict[str, Any]:
    """Where and on what the numbers were measured."""
    in_git = _git("rev-parse", "--show-toplevel") == str(ROOT)
    cpu_model = None
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fstype, best = None, ""
    try:
        for line in pathlib.Path("/proc/mounts").read_text().splitlines():
            _dev, mount, kind = line.split()[:3]
            if str(WORK).startswith(mount) and len(mount) > len(best):
                fstype, best = kind, mount
    except OSError:
        pass
    return {
        "commit": _git("rev-parse", "HEAD") if in_git else None,
        "dirty": bool(_git("status", "--porcelain")) if in_git else None,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg": os.getloadavg(),
        "tmp_fs": fstype,
    }


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile (``statistics.quantiles``) and n."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


@dataclasses.dataclass
class Tally:
    """One workload's repeats, output checks and trace."""

    repeats: List[Dict[str, float]] = dataclasses.field(default_factory=list)
    runs: int = 0
    spent_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    notes: List[str] = dataclasses.field(default_factory=list)
    trace: Optional[Dict[str, Any]] = None

    def fail(self, units: int, note: str) -> None:
        self.failed += units
        self.notes.append(note)


class Harness:
    """Runs repeats in child processes and checks what they produced."""

    def __init__(
        self, workloads: Sequence[Workload], seed: int, scratch: pathlib.Path
    ) -> None:
        self.seed = seed
        self.scratch = scratch
        self.jobs = min(2, len(os.sched_getaffinity(0)))
        # Bytecode is always cached, in .e2e_work, so setup_s means the
        # same whatever the caller's PYTHONDONTWRITEBYTECODE says.
        dropped = ("REPRO_CACHE_DIR", "PYTHONDONTWRITEBYTECODE")
        self.env = {k: v for k, v in os.environ.items() if k not in dropped}
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            TMPDIR=str(scratch),
        )
        self.fill = WORK / f"fill-{source_hash()}"
        self.baseline: Optional[Dict[str, str]] = None
        if (self.fill / "digests.json").is_file():
            self.baseline = json.loads((self.fill / "digests.json").read_text())
        self.reference: Dict[str, Optional[Dict[str, str]]] = {}
        self.tallies = {w.name: Tally() for w in workloads}
        self._units = 0

    # -- children --------------------------------------------------------
    def spawn(
        self, workload: Workload, mode: str, **extra: Any
    ) -> Tuple[pathlib.Path, float, float, Dict[str, Any]]:
        """One child; returns (its directory, setup_s, elapsed_s, record)."""
        self._units += 1
        unit = self.scratch / f"{self._units:03d}-{workload.name}-{mode}"
        unit.mkdir(parents=True)
        spec = {
            "root": str(ROOT),
            "result": str(unit / "result.json"),
            "mode": mode,
            "seed": self.seed,
            "workload": dataclasses.asdict(workload),
            **extra,
        }
        line, timed_out = b"", False
        # Write back earlier repeats' files, so their dirty pages do not
        # land in this repeat's fsync calls.
        os.sync()
        start = time.perf_counter()
        with open(unit / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                cwd=ROOT,
                start_new_session=True,
            )
            try:
                if select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
                    line = proc.stdout.readline()
                setup = time.perf_counter() - start
                proc.wait(timeout=max(1.0, CHILD_TIMEOUT_S - setup))
            except subprocess.TimeoutExpired:
                timed_out = True
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                proc.stdout.close()
        elapsed = time.perf_counter() - start
        try:
            record = json.loads((unit / "result.json").read_text())
        except (OSError, ValueError):
            tail = (unit / "stderr.txt").read_text(errors="replace")[-2000:]
            why = "timed out" if timed_out else f"exit {proc.returncode}"
            record = {"ok": False, "error": f"{why}: {tail}"}
        if record["ok"] and line != b"ready\n":
            record = {"ok": False, "error": f"no ready line (got {line!r})"}
        return unit, setup, elapsed, record

    def _report_paths(self, unit_name: str, warm: bool) -> Dict[str, Any]:
        base = self.scratch / unit_name
        cache = self.fill / "cache" if warm else base / "cache"
        return {"cache": str(cache), "outdir": str(base / "report")}

    # -- output checks ---------------------------------------------------
    def check_reference(self, workload: Workload) -> None:
        """Run the workload's cells on the reference engine, once."""
        unit, _setup, _elapsed, record = self.spawn(workload, "reference")
        shutil.rmtree(unit, ignore_errors=True)
        if record["ok"]:
            self.reference[workload.name] = record["digests"]
        else:
            self.reference[workload.name] = None
            self.tallies[workload.name].notes.append(
                f"reference run failed: {record['error']}"
            )

    def _check(self, workload: Workload, record: Dict[str, Any], tally: Tally) -> None:
        units = max(1, len(workload.cells))
        tally.attempted += units
        if not record["ok"]:
            tally.fail(units, record["error"])
            return
        if workload.cells:
            expected = self.reference.get(workload.name) or {}
            for cell, digest in record["digests"].items():
                if expected.get(cell) != digest:
                    tally.fail(1, f"{cell}: summary differs from the reference engine")
            return
        stats = record["stats"]
        if stats["quarantined_cells"] or stats["quarantined_jobs"]:
            tally.fail(1, f"quarantined: {stats}")
        elif workload.report == "cold" and stats["cache_hits"]:
            tally.fail(1, f"cold report hit the cache: {stats}")
        elif workload.report == "warm" and (stats["cache_misses"] or not stats["cache_hits"]):
            tally.fail(1, f"warm report missed the cache: {stats}")
        elif self.baseline is not None and record["digests"] != self.baseline:
            differ = sorted(
                name
                for name in set(record["digests"]) | set(self.baseline)
                if record["digests"].get(name) != self.baseline.get(name)
            )
            tally.fail(1, f"report differs from the cold report: {differ}")

    def _publish_fill(self, base: pathlib.Path, digests: Dict[str, str]) -> None:
        """Keep a cold report's cache as the warm report's full cache."""
        shutil.rmtree(base / "report", ignore_errors=True)
        (base / "digests.json").write_text(json.dumps(digests))
        try:
            os.rename(base, self.fill)
        except OSError:
            return  # another invocation published it first
        for old in WORK.glob("fill-*"):
            if old != self.fill:
                shutil.rmtree(old, ignore_errors=True)

    def _ensure_fill(self, workload: Workload, tally: Tally) -> bool:
        """Fill the warm report's cache with one untimed cold report."""
        if self.baseline is not None:
            return True
        cold = dataclasses.replace(workload, report="cold")
        paths = self._report_paths(f"fill-{os.getpid()}", warm=False)
        unit, _setup, _elapsed, record = self.spawn(cold, "timed", jobs=self.jobs, **paths)
        shutil.rmtree(unit, ignore_errors=True)
        if not record["ok"]:
            tally.notes.append(f"filling the cache failed: {record['error']}")
            return False
        self.baseline = record["digests"]
        self._publish_fill(pathlib.Path(paths["outdir"]).parent, record["digests"])
        return True

    # -- repeats ---------------------------------------------------------
    def repeat(self, workload: Workload, traced: bool = False) -> None:
        """One repeat (timed, or traced), checked and recorded."""
        tally = self.tallies[workload.name]
        mode = "traced" if traced else "timed"
        tally.runs += not traced
        extra: Dict[str, Any] = {}
        if workload.report:
            warm = workload.report == "warm"
            if warm and not self._ensure_fill(workload, tally):
                tally.attempted += 1
                tally.fail(1, "no full cache for the warm report")
                return
            extra = self._report_paths(f"{workload.name}-{mode}-{tally.runs}", warm)
            extra["jobs"] = 1 if traced else self.jobs
        unit, setup, elapsed, record = self.spawn(workload, mode, **extra)
        shutil.rmtree(unit, ignore_errors=True)
        if not traced:
            tally.spent_s += elapsed
        failed = tally.failed
        first_cold = workload.report == "cold" and self.baseline is None and record["ok"]
        if first_cold:
            # The first cold report is the one every later report must match.
            self.baseline = record["digests"]
        self._check(workload, record, tally)
        if first_cold and tally.failed == failed:
            self._publish_fill(pathlib.Path(extra["outdir"]).parent, record["digests"])
        if workload.report:
            shutil.rmtree(pathlib.Path(extra["outdir"]).parent, ignore_errors=True)
        if not record["ok"]:
            return
        if traced:
            tally.trace = record["trace"]
            return
        tally.repeats.append(
            {
                "wall_s": record["wall_s"],
                "cpu_s": record["cpu_s"],
                "epochs_per_cpu_s": record["epochs"] / record["cpu_s"],
                "setup_s": setup,
                "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
            }
        )


def run_benchmark(
    workloads: Sequence[Workload],
    seed: int = 0,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    trace: bool = False,
) -> Tuple[Dict[str, Tally], Dict[str, Any]]:
    """Run every repeat; returns the tallies and the host record."""
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        harness = Harness(workloads, seed, scratch)
        for workload in workloads:
            if workload.cells:
                harness.check_reference(workload)

        def pending(workload: Workload) -> bool:
            # A workload that failed stops repeating; the failure is reported.
            tally = harness.tallies[workload.name]
            if tally.failed:
                return False
            if seconds is not None:
                return tally.runs == 0 or tally.spent_s < seconds
            return tally.runs < (repeats or workload.repeats)

        while any(pending(w) for w in workloads):
            for workload in workloads:
                if pending(workload):
                    harness.repeat(workload)
        if trace:
            for workload in workloads:
                harness.repeat(workload, traced=True)
        return harness.tallies, host_record()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def layer_metrics(tally: Tally) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Per-layer metrics of a traced repeat, and any bookkeeping problems."""
    trace = tally.trace
    if trace is None:
        return {}, ["no traced repeat"]
    layers = trace["layers"]
    total = next(r["total_s"] for r in trace["by_parent"] if r["layer"] == spans.ROOT)
    out: Dict[str, Tuple[float, str]] = {}
    for layer in spans.layer_names():
        row = layers.get(layer, {"calls": 0, "self_s": 0.0, "extra": 0.0})
        out[f"{layer}.calls"] = (row["calls"], "count")
        out[f"{layer}.self_s"] = (row["self_s"], "s")
        out[f"{layer}.self_share"] = (row["self_s"] / total, "ratio")
        extra = spans.EXTRAS.get(layer)
        if extra is not None:
            if extra[0] == "hits":
                ratio = row["extra"] / row["calls"] if row["calls"] else 0.0
                out[f"{layer}.hit_ratio"] = (ratio, "ratio")
            else:
                out[f"{layer}.{extra[0]}"] = (row["extra"], extra[1])
    unattributed = layers[spans.ROOT]["self_s"]
    attributed = sum(row["self_s"] for row in layers.values())
    out["trace.total_s"] = (total, "s")
    out["trace.unattributed_s"] = (unattributed, "s")
    out["trace.unattributed_share"] = (unattributed / total, "ratio")
    cpu = statistics.median(r["cpu_s"] for r in tally.repeats) if tally.repeats else None
    out["trace.overhead_frac"] = (total / cpu - 1.0 if cpu else 0.0, "ratio")
    problems = []
    if abs(attributed - total) > SUM_TOLERANCE * total:
        problems.append(f"self times sum to {attributed:.6f} s, traced total {total:.6f} s")
    return out, problems


def report(
    tallies: Dict[str, Tally], host: Dict[str, Any], trace: bool
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Print every metric line; returns (the JSON line, the --out document)."""
    for key, value in host.items():
        print(f"host {key} {json.dumps(value)}")
    metrics: Dict[str, Dict[str, Any]] = {}
    doc: Dict[str, Any] = {"host": host, "workloads": {}}
    attempted = failed = 0
    prefix = len(tallies) > 1
    wanted = {m for m, _unit in spans.per_layer_metrics()}
    for name, tally in tallies.items():
        layers, problems = layer_metrics(tally) if trace else ({}, [])
        for problem in problems:
            tally.fail(1, f"trace: {problem}")
            tally.attempted += 1
        attempted += tally.attempted
        failed += tally.failed
        summary = {}
        for metric, unit, _better in E2E_METRICS:
            values = [r[metric] for r in tally.repeats]
            if values:
                summary[metric] = quartiles(values)
                print(f"{name} {metric} {summary[metric]['median']:.6g} {unit}")
                if not trace:
                    metrics[f"{name}.{metric}" if prefix else metric] = {
                        "value": summary[metric]["median"],
                        "unit": unit,
                    }
        frac = tally.failed / tally.attempted if tally.attempted else 0.0
        print(f"{name} fail_frac {frac:.6g} ratio")
        print(f"{name} repeats {len(tally.repeats)} count")
        for note in tally.notes:
            print(f"{name} failure {note}", file=sys.stderr)
        for metric, (value, unit) in layers.items():
            print(f"{name} {metric} {value:.6g} {unit}")
            if metric in wanted:
                metrics[f"{name}.{metric}" if prefix else metric] = {
                    "value": value,
                    "unit": unit,
                }
        doc["workloads"][name] = {
            "repeats": tally.repeats,
            "summary": summary,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "notes": tally.notes,
            "layers": {m: v for m, (v, _u) in layers.items()},
            "trace": tally.trace,
        }
    line = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }
    return line, doc


def _trace_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("expected 0 or 1")
    return text == "1"


def main(
    argv: Optional[Sequence[str]] = None, table: Sequence[Workload] = WORKLOADS
) -> int:
    """The command line; ``table`` replaces the workload definitions."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=[w.name for w in WORKLOADS],
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed of the cell workloads")
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--repeats", type=int, help="repeats per workload")
    budget.add_argument("--seconds", type=float, help="run each workload this long")
    parser.add_argument(
        "--trace",
        nargs="?",
        const=True,
        default=False,
        type=_trace_flag,
        help="add one traced repeat per workload (optionally 0 or 1)",
    )
    parser.add_argument("--out", type=pathlib.Path, help="write all values here as JSON")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and
    # scratch files are removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    names = args.workload or [w.name for w in WORKLOADS]
    workloads = [w for w in table if w.name in names]
    tallies, host = run_benchmark(
        workloads, args.seed, args.repeats, args.seconds, args.trace
    )
    line, doc = report(tallies, host, args.trace)
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
