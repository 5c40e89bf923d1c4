"""Write-ahead grid journal: per-cell outcomes that survive a crash.

The result cache (:mod:`repro.cache`) already makes *completed cells*
durable, but it is content-addressed and optional; the journal is the
run-scoped record that lets ``repro report --resume`` answer "which
cells of *this grid* already finished, and which were quarantined?"
without recomputing anything.  Its only writer and reader is
:class:`~repro.experiments.parallel.ParallelRunner`, through which every
report job runs its cells.  One JSONL file per report directory; each
line is a self-describing record::

    {"schema": "repro.journal/v1", "version": ..., "kind": "cell",
     "status": "done", "key": ..., "cell": ..., "summary": {...}}

Record kinds:

* ``cell`` / ``done`` — the cell's full canonical-JSON
  :class:`~repro.metrics.collectors.RunSummary` (the exact payload the
  result cache stores, so a journal hit is byte-for-byte a fresh run);
* ``cell`` / ``quarantined`` — the cell repeatedly blew its wall-clock
  deadline (or hit its ``max_epochs`` cap); resume must *not* retry it;
* ``job`` / ``done`` or ``quarantined`` — a whole report job (one
  figure/table) finished rendering, so resume can skip it outright.

Durability discipline: the journal is a true append-only log.  Each
record is one canonical line written with a single append, then
flushed and fsynced before the call returns, so a record that was
reported written survives a crash.  A crash mid-append can leave at
most one torn final line (no trailing ``\n``); ``resume=True``
truncates it before the first new append, so the next record starts
on a fresh line instead of being glued onto the torn one.  Loading is
defensive the same way reads are everywhere else in this codebase: a
malformed line, wrong schema or wrong package version makes that
*record* invisible (the cell simply recomputes), never an error.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Optional

from repro.cache.serialize import summary_from_payload, summary_to_payload
from repro.metrics.collectors import RunSummary
from repro.obs.manifest import canonical_dumps

__all__ = ["JOURNAL_SCHEMA", "GridJournal"]

#: Journal record schema (bump on breaking record-shape change; old
#: records then self-invalidate by being skipped on load).
JOURNAL_SCHEMA = "repro.journal/v1"

#: Errors that make a journal line invisible instead of fatal.
_RECORD_ERRORS = (ValueError, KeyError, TypeError, AttributeError)


class GridJournal:
    """Append-only record of grid outcomes, fsynced on every append.

    Parameters
    ----------
    path:
        The journal file (conventionally ``<outdir>/journal.jsonl``).
    resume:
        ``True`` loads any existing journal so completed cells resolve
        without recomputation; ``False`` (a fresh run) discards it.
    """

    def __init__(self, path: "pathlib.Path | str", resume: bool = False) -> None:
        self.path = pathlib.Path(path)
        self._cells: Dict[str, RunSummary] = {}
        self._quarantines: Dict[str, Dict[str, Any]] = {}
        self._jobs: Dict[str, str] = {}
        #: records recovered from disk by a ``resume=True`` load
        self.loaded_cells = 0
        self.loaded_quarantines = 0
        self.loaded_jobs = 0
        if resume and self.path.exists():
            self._load()
        elif self.path.exists():
            try:
                self.path.unlink()  # fresh run: a stale journal is noise
            except OSError:
                pass
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Loading (defensive)
    # ------------------------------------------------------------------
    def _load(self) -> None:
        from repro import __version__

        try:
            data = self.path.read_bytes()
        except OSError:
            return
        end = data.rfind(b"\n") + 1
        if end < len(data):
            # Torn final line from a crash mid-append: cut it off so the
            # next append starts on a fresh line.
            try:
                with self.path.open("r+b") as fh:
                    fh.truncate(end)
            except OSError:
                pass
        for line in data[:end].decode("utf-8", errors="replace").splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn or garbage line: invisible
            if (
                not isinstance(record, dict)
                or record.get("schema") != JOURNAL_SCHEMA
                or record.get("version") != __version__
            ):
                continue
            try:
                self._absorb(record)
            except _RECORD_ERRORS:
                continue

    def _absorb(self, record: Dict[str, Any]) -> None:
        kind = record["kind"]
        if kind == "cell":
            key = record["key"]
            if record["status"] == "done":
                self._cells[key] = summary_from_payload(record["summary"])
                # Replay keeps record_cell's semantics: a later success
                # supersedes an earlier quarantine of the same cell.
                if self._quarantines.pop(key, None) is not None:
                    self.loaded_quarantines -= 1
                self.loaded_cells += 1
            elif record["status"] == "quarantined":
                self._quarantines[key] = dict(record["quarantine"])
                self.loaded_quarantines += 1
            else:
                raise ValueError(f"unknown cell status {record['status']!r}")
        elif kind == "job":
            self._jobs[record["job"]] = record["status"]
            self.loaded_jobs += 1
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        """Append one canonical line, then flush and fsync.

        A journal write failure must never fail the experiment — the
        worst outcome of a lost record is recomputing a cell on resume.
        """
        from repro import __version__

        record = {"schema": JOURNAL_SCHEMA, "version": __version__, **record}
        try:
            line = canonical_dumps(record) + "\n"
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return
        try:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            pass

    def record_cell(self, key: str, cell: str, summary: RunSummary) -> None:
        """Journal a completed cell (its summary replays exactly)."""
        self._cells[key] = summary
        self._quarantines.pop(key, None)
        self._append(
            {
                "kind": "cell",
                "status": "done",
                "key": key,
                "cell": cell,
                "summary": summary_to_payload(summary),
            }
        )

    def record_quarantine(
        self, key: str, cell: str, info: Dict[str, Any]
    ) -> None:
        """Journal a quarantined cell; resume will not retry it."""
        self._quarantines[key] = dict(info)
        self._append(
            {
                "kind": "cell",
                "status": "quarantined",
                "key": key,
                "cell": cell,
                "quarantine": dict(info),
            }
        )

    def record_job(self, job: str, status: str = "done") -> None:
        """Journal a whole report job as finished (or quarantined)."""
        if status not in ("done", "quarantined"):
            raise ValueError(f"unknown job status {status!r}")
        self._jobs[job] = status
        self._append({"kind": "job", "status": status, "job": job})

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def get_cell(self, key: str) -> Optional[RunSummary]:
        """The journaled summary for a cell key, or ``None``."""
        return self._cells.get(key)

    def get_quarantine(self, key: str) -> Optional[Dict[str, Any]]:
        """The quarantine record for a cell key, or ``None``."""
        return self._quarantines.get(key)

    def job_status(self, job: str) -> Optional[str]:
        """``"done"``, ``"quarantined"`` or ``None`` for a report job."""
        return self._jobs.get(job)

    @property
    def cell_count(self) -> int:
        """Completed cells currently journaled."""
        return len(self._cells)

    @property
    def quarantine_count(self) -> int:
        """Quarantined cells currently journaled."""
        return len(self._quarantines)

    def quarantines(self) -> Dict[str, Dict[str, Any]]:
        """All quarantine records, keyed by cell key (copy)."""
        return {k: dict(v) for k, v in self._quarantines.items()}
