"""JSONL trace export: a run's observable history as a flat file.

One trace file is a sequence of self-describing JSON lines:

1. a ``manifest`` line (provenance — see :mod:`repro.obs.manifest`),
2. ``event`` and ``snapshot`` lines merged in time order — the
   scheduler's structured :class:`~repro.util.eventlog.EventLog` stream
   interleaved with :class:`~repro.metrics.timeseries.Snapshot` window
   captures,
3. a final ``summary`` line (the :func:`~repro.metrics.collectors.summarize`
   aggregates).

Everything is serialized through
:func:`~repro.obs.manifest.canonical_dumps`, and no wall-clock data is
included, so a fixed (scenario, seed, policy) run writes
**byte-identical** files from the reference and batched engines — the
engine-parity contract, extended to disk.
"""

from __future__ import annotations

import itertools
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.metrics.collectors import summarize
from repro.metrics.timeseries import Snapshot, Trace
from repro.obs.manifest import build_manifest, canonical_dumps
from repro.util.eventlog import LogEvent
from repro.xen.simulator import Machine

__all__ = ["TraceFile", "trace_lines", "write_trace", "read_trace", "diff_traces"]


def _event_line(event: LogEvent) -> Dict[str, Any]:
    return {"type": "event", "t": event.time, "kind": event.kind, "data": event.data}


def _snapshot_line(snap: Snapshot) -> Dict[str, Any]:
    return {
        "type": "snapshot",
        "t": snap.time_s,
        "accesses": {d: list(lr) for d, lr in snap.accesses.items()},
        "instructions": snap.instructions,
        "intensive_per_node": list(snap.intensive_per_node),
        "migrations": list(snap.migrations),
        "overhead_s": snap.overhead_s,
    }


def trace_lines(
    machine: Machine, trace: Optional[Trace] = None, scenario: str = ""
) -> Iterator[str]:
    """Yield the JSONL lines of a finished run, in canonical form.

    Events and snapshots are merged by timestamp (events first on a
    tie: an event *at* a window boundary happened before the window was
    observed).  The merge is stable, so the emission order — identical
    across engines by the parity contract — is preserved.
    """
    yield canonical_dumps(build_manifest(machine, scenario=scenario).to_dict())

    events = [(e.time, 0, _event_line(e)) for e in machine.log]
    snaps = [] if trace is None else [
        (s.time_s, 1, _snapshot_line(s)) for s in trace.snapshots
    ]
    # Both inputs are already time-sorted; sort() is stable, so equal
    # timestamps keep (event, snapshot) and emission order.
    merged = sorted(itertools.chain(events, snaps), key=lambda item: (item[0], item[1]))
    for _, _, line in merged:
        yield canonical_dumps(line)

    summary = summarize(machine).to_dict(include_profile=False)
    yield canonical_dumps({"type": "summary", **summary})


def write_trace(
    machine: Machine,
    path: Union[str, pathlib.Path],
    trace: Optional[Trace] = None,
    scenario: str = "",
) -> int:
    """Write the run's JSONL trace to ``path``; returns lines written.

    The machine must have run with ``log_events=True`` for the event
    stream to be present (an empty log still yields a valid trace).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for line in trace_lines(machine, trace=trace, scenario=scenario):
            fh.write(line + "\n")
            count += 1
    return count


@dataclass(slots=True)
class TraceFile:
    """A parsed trace: the manifest plus the typed line groups."""

    manifest: Dict[str, Any]
    events: List[Dict[str, Any]] = field(default_factory=list)
    snapshots: List[Dict[str, Any]] = field(default_factory=list)
    summary: Optional[Dict[str, Any]] = None

    def events_of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """Event lines with the given ``kind``, in file order."""
        return [e for e in self.events if e["kind"] == kind]


def read_trace(path: Union[str, pathlib.Path]) -> TraceFile:
    """Parse a JSONL trace back into its typed parts."""
    import json

    manifest: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = []
    snapshots: List[Dict[str, Any]] = []
    summary: Optional[Dict[str, Any]] = None
    with pathlib.Path(path).open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            line = json.loads(raw)
            kind = line.get("type")
            if kind == "manifest":
                manifest = line
            elif kind == "event":
                events.append(line)
            elif kind == "snapshot":
                snapshots.append(line)
            elif kind == "summary":
                summary = line
            else:
                raise ValueError(f"{path}:{lineno}: unknown trace line type {kind!r}")
    if manifest is None:
        raise ValueError(f"{path}: trace has no manifest line")
    return TraceFile(
        manifest=manifest, events=events, snapshots=snapshots, summary=summary
    )


def diff_traces(
    path_a: Union[str, pathlib.Path],
    path_b: Union[str, pathlib.Path],
    ignore_manifest: bool = False,
) -> List[str]:
    """Line-level differences between two trace files.

    Returns human-readable descriptions (empty list = identical).
    ``ignore_manifest=True`` skips the first line of each file — the
    right mode when diffing runs that differ only in provenance the
    manifest is *expected* to record (e.g. reference vs batched engine).
    """
    lines_a = pathlib.Path(path_a).read_text(encoding="utf-8").splitlines()
    lines_b = pathlib.Path(path_b).read_text(encoding="utf-8").splitlines()
    start = 1 if ignore_manifest else 0
    diffs: List[str] = []
    for i in range(start, max(len(lines_a), len(lines_b))):
        a = lines_a[i] if i < len(lines_a) else None
        b = lines_b[i] if i < len(lines_b) else None
        if a != b:
            diffs.append(f"line {i + 1}: {_abbrev(a)} != {_abbrev(b)}")
    if len(lines_a) != len(lines_b):
        diffs.append(f"length: {len(lines_a)} lines != {len(lines_b)} lines")
    return diffs


def _abbrev(line: Optional[str], width: int = 60) -> str:
    if line is None:
        return "<missing>"
    return line if len(line) <= width else line[: width - 3] + "..."
