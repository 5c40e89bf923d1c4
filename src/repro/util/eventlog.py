"""Structured event log for scheduler-level tracing.

The simulator records migrations, partitioning rounds, steals, and
overhead charges as structured events.  Tests assert on the event
stream (e.g. "vProbe never steals cross-node while local runnable
VCPUs exist"), and the experiment harness aggregates it for the
migration statistics reported alongside the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List

__all__ = ["LogEvent", "EventLog"]


@dataclass(frozen=True, slots=True)
class LogEvent:
    """A single timestamped simulator event.

    Attributes
    ----------
    time:
        Simulated time in seconds.
    kind:
        Event category, e.g. ``"migrate"``, ``"steal"``, ``"partition"``,
        ``"overhead"``, ``"phase_change"``.
    data:
        Free-form payload (kept small; values should be scalars/strings).
    """

    time: float
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)


class EventLog:
    """Append-only stream of :class:`LogEvent` with query helpers.

    Logging can be disabled (``enabled=False``) for long benchmark runs;
    in that state :meth:`emit` is a cheap no-op.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[LogEvent] = []

    def emit(self, time: float, kind: str, **data: Any) -> None:
        """Record an event."""
        if not self.enabled:
            return
        self._events.append(LogEvent(time=time, kind=kind, data=data))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[LogEvent]:
        return iter(self._events)

    def of_kind(self, kind: str) -> List[LogEvent]:
        """All events with the given ``kind``, in emission order."""
        return [e for e in self._events if e.kind == kind]

    def count(self, kind: str) -> int:
        """Number of events with the given ``kind``."""
        return sum(1 for e in self._events if e.kind == kind)

    def where(self, predicate: Callable[[LogEvent], bool]) -> List[LogEvent]:
        """All events satisfying ``predicate``."""
        return [e for e in self._events if predicate(e)]

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()
