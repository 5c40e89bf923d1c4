"""The on-disk, content-addressed result store.

Layout: ``<root>/<key[:2]>/<key>.json`` — one canonical-JSON entry per
key, sharded by the first hash byte so no directory grows unbounded.
Every entry embeds the cache schema, the writing package version and a
small human-readable ``meta`` block next to the serialized summary, so
``repro cache stats`` and ``prune`` can reason about a cache directory
without re-deriving any keys.

It is the one store a report keeps its cells in: ``--cache-dir`` when
given, otherwise ``<outdir>/cells/``.  A cell that was quarantined
instead of finished leaves a *tombstone* next to where its entry would
be, ``<root>/<key[:2]>/<key>.quarantine``, holding the quarantine's
reason, strikes and detail but no summary.  A tombstone is never read
as a hit, and it does not match the ``??/*.json`` entry glob.

Concurrency, corruption and crashes are all handled at the write/read
boundary:

* **writes are atomic and durable** — the entry is written to a
  uniquely-named temp file in the destination directory, fsynced, and
  ``os.replace``d into place, so a reader never observes a torn entry,
  a stored cell survives a crash, and two processes racing on the same
  key both succeed (last writer wins with identical bytes, since
  entries are deterministic functions of the key);
* **reads are defensive** — a missing, truncated, garbage or
  wrong-schema entry is a *miss*, counted and then overwritten by the
  fresh run's ``put``.  The cache can therefore never poison a result:
  the worst failure mode is doing the work again.

A cache failure must never fail an experiment: ``put`` swallows OS
errors (full disk, read-only dir) and reports ``False`` instead of
raising.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.cache.keys import CACHE_SCHEMA
from repro.cache.serialize import summary_from_payload, summary_to_payload
from repro.metrics.collectors import RunSummary
from repro.obs.manifest import canonical_dumps

__all__ = ["ENV_CACHE_DIR", "CacheStats", "ResultCache", "resolve_cache"]

#: Environment variable naming the default cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Errors that turn a stored entry into a miss instead of a crash.
_ENTRY_ERRORS = (
    OSError,
    ValueError,  # includes json.JSONDecodeError
    KeyError,
    TypeError,
    AttributeError,
)


@dataclass(frozen=True, slots=True)
class CacheStats:
    """One scan of a cache directory."""

    entries: int  #: readable entries at the current schema/version
    stale: int  #: readable entries written by another schema/version
    corrupt: int  #: unreadable entries (truncated/garbage)
    total_bytes: int  #: bytes across all entry files

    def format(self) -> str:
        """One human line, ``repro cache stats`` style."""
        return (
            f"{self.entries} entries ({self.total_bytes / 1024:.1f} KiB)"
            f", {self.stale} stale, {self.corrupt} corrupt"
        )


class ResultCache:
    """Content-addressed store of serialized :class:`RunSummary` values.

    Hit/miss/store counters accumulate over the cache object's lifetime
    (a whole ``repro report`` invocation shares one instance), so the
    CLI can print a single honest summary line at the end.
    """

    def __init__(self, root: pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> pathlib.Path:
        """Where a key's entry lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunSummary]:
        """The cached summary for ``key``, or ``None`` (counted) on miss."""
        try:
            entry = json.loads(self.path_for(key).read_bytes())
            if entry.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"wrong cache schema: {entry.get('schema')!r}")
            summary = summary_from_payload(entry["summary"])
        except _ENTRY_ERRORS:
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def put(
        self,
        key: str,
        summary: RunSummary,
        meta: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Store ``summary`` under ``key`` atomically; False on failure."""
        from repro import __version__

        entry = {
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "key": key,
            "meta": meta or {},
            "summary": summary_to_payload(summary),
        }
        try:
            text = canonical_dumps(entry)
        except (TypeError, ValueError):
            return False  # non-finite float or unserializable: uncacheable
        if not self._write(self.path_for(key), text):
            return False
        self.stores += 1
        return True

    def _write(self, path: pathlib.Path, text: str) -> bool:
        """Temp file, fsync, ``os.replace``; False on any OS error."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------
    # Quarantine tombstones
    # ------------------------------------------------------------------
    def _tombstone_path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.quarantine"

    def put_quarantine(self, key: str, reason: str, strikes: int, detail: str) -> bool:
        """Record that ``key``'s cell was quarantined; False on failure."""
        from repro import __version__

        entry = {
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "key": key,
            "quarantine": {"reason": reason, "strikes": strikes, "detail": detail},
        }
        return self._write(self._tombstone_path(key), canonical_dumps(entry))

    def get_quarantine(self, key: str) -> Optional[Dict[str, Any]]:
        """``{"reason", "strikes", "detail"}`` of ``key``'s tombstone, or None.

        Unreadable tombstones are invisible (the cell simply runs).
        Not counted as a hit or a miss.
        """
        try:
            entry = json.loads(self._tombstone_path(key).read_bytes())
            if entry.get("schema") != CACHE_SCHEMA:
                return None
            info = entry["quarantine"]
            return {
                "reason": str(info["reason"]),
                "strikes": int(info["strikes"]),
                "detail": str(info["detail"]),
            }
        except _ENTRY_ERRORS:
            return None

    # ------------------------------------------------------------------
    # Maintenance (``repro cache stats|prune|clear``)
    # ------------------------------------------------------------------
    def _entry_files(self) -> Iterator[pathlib.Path]:
        yield from sorted(self.root.glob("??/*.json"))

    def _classify(self, path: pathlib.Path) -> str:
        """``"ok"``, ``"stale"`` or ``"corrupt"`` for one entry file."""
        from repro import __version__

        try:
            entry = json.loads(path.read_bytes())
            if (
                entry.get("schema") != CACHE_SCHEMA
                or entry.get("version") != __version__
            ):
                return "stale"
            summary_from_payload(entry["summary"])
        except _ENTRY_ERRORS:
            return "corrupt"
        return "ok"

    def scan(self) -> CacheStats:
        """Walk every entry and classify it."""
        entries = stale = corrupt = total_bytes = 0
        for path in self._entry_files():
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            kind = self._classify(path)
            if kind == "ok":
                entries += 1
            elif kind == "stale":
                stale += 1
            else:
                corrupt += 1
        return CacheStats(
            entries=entries, stale=stale, corrupt=corrupt, total_bytes=total_bytes
        )

    def prune(self) -> Tuple[int, int]:
        """Delete stale and corrupt entries; returns ``(stale, corrupt)``."""
        stale = corrupt = 0
        for path in self._entry_files():
            kind = self._classify(path)
            if kind == "ok":
                continue
            try:
                path.unlink()
            except OSError:
                continue
            if kind == "stale":
                stale += 1
            else:
                corrupt += 1
        return stale, corrupt

    def clear(self) -> int:
        """Delete every entry and tombstone; returns how many were removed."""
        removed = 0
        tombstones = sorted(self.root.glob("??/*.quarantine"))
        for path in [*self._entry_files(), *tombstones]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed


def resolve_cache(
    cache_dir: Optional[pathlib.Path] = None, no_cache: bool = False
) -> Optional[ResultCache]:
    """The CLI's cache-selection policy, in one place.

    ``--no-cache`` beats everything; an explicit ``--cache-dir`` beats
    the ``REPRO_CACHE_DIR`` environment variable.  With neither set this
    returns ``None``: ``compare`` then runs uncached, and ``report``
    keeps its cells in ``<outdir>/cells/`` only.
    """
    if no_cache:
        return None
    root = cache_dir or os.environ.get(ENV_CACHE_DIR)
    if not root:
        return None
    return ResultCache(pathlib.Path(root))
