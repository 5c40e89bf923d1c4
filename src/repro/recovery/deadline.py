"""Per-cell wall-clock deadlines, retries with backoff, quarantine.

A grid must not die because one cell is pathological.  Two
timeout-class failures exist:

* :class:`~repro.xen.simulator.SimulationTimeout` — the *simulated*
  epoch cap fired.  Deterministic: retrying reproduces it at full
  cost, so the cell is quarantined immediately (this is the
  ``max_epochs`` contract the parallel runner previously paid a full
  serial retry to rediscover);
* :class:`CellDeadlineExceeded` — the cell blew its *wall-clock*
  deadline.  Possibly environmental (a loaded machine, a cold page
  cache), so the parent retries with exponential backoff; after
  ``max_strikes`` total attempts the cell is quarantined.

Enforcement is cooperative and lives *in the process running the
cell*: a ``SIGALRM`` interval timer around the cell raises
:class:`CellDeadlineExceeded` at the deadline.  Worker processes run
tasks on their main thread, so the guard works identically in a
:class:`~concurrent.futures.ProcessPoolExecutor` worker and in the
parent's serial path; on platforms without ``setitimer`` the guard
degrades to no enforcement rather than breaking the run.

The guarded worker entry (:func:`run_cell_batch_guarded`) reports
per-cell *outcomes* instead of raising, so the parent can tell a
timeout (quarantine path) from a genuine error (serial-retry path)
even when both happen inside one chunk.
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CellDeadlineExceeded",
    "DeadlinePolicy",
    "Quarantine",
    "alarm_guard",
    "run_cell_batch_guarded",
    "TIMEOUT_EXCEPTIONS",
]


class CellDeadlineExceeded(RuntimeError):
    """A cell exceeded its wall-clock deadline and was cancelled."""

    def __init__(self, deadline_s: float) -> None:
        super().__init__(f"cell exceeded its {deadline_s:g}s wall-clock deadline")
        self.deadline_s = deadline_s


#: Exception type *names* treated as timeout-class when a worker
#: reports them (names, because the worker ships strings, not objects).
TIMEOUT_EXCEPTIONS = ("SimulationTimeout", "CellDeadlineExceeded")


@dataclasses.dataclass(frozen=True, slots=True)
class DeadlinePolicy:
    """How overrunning cells are cancelled, retried and quarantined.

    Attributes
    ----------
    deadline_s:
        Wall-clock budget per attempt.
    max_strikes:
        Total attempts (first run included) before quarantine.
    backoff_base_s / backoff_factor:
        Sleep before retry ``k`` is ``base * factor**(k-1)`` — the
        exponential backoff that lets a transiently-loaded host calm
        down between attempts.
    """

    deadline_s: float
    max_strikes: int = 3
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.max_strikes < 1:
            raise ValueError(f"max_strikes must be >= 1, got {self.max_strikes}")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")

    def backoff_s(self, strike: int) -> float:
        """Sleep before the attempt following strike number ``strike``."""
        return self.backoff_base_s * self.backoff_factor ** max(0, strike - 1)

    @classmethod
    def coerce(
        cls, value: "DeadlinePolicy | float | int | None"
    ) -> "Optional[DeadlinePolicy]":
        """Accept a policy, bare seconds, or ``None`` (no deadlines)."""
        if value is None or isinstance(value, DeadlinePolicy):
            return value
        return cls(deadline_s=float(value))


@dataclasses.dataclass(frozen=True, slots=True)
class Quarantine:
    """One cell removed from the grid instead of failing it."""

    cell: str  #: human-readable cell name (with its grid index)
    key: Optional[str]  #: cache/journal key, None for identity-less cells
    reason: str  #: ``"sim_timeout"`` or ``"deadline"``
    strikes: int  #: attempts consumed before quarantine
    detail: str  #: the final exception, rendered

    def to_dict(self) -> Dict[str, Any]:
        """JSON form (journal + recovery report)."""
        return {
            "cell": self.cell,
            "key": self.key,
            "reason": self.reason,
            "strikes": self.strikes,
            "detail": self.detail,
        }


@contextlib.contextmanager
def alarm_guard(deadline_s: Optional[float]):
    """Raise :class:`CellDeadlineExceeded` after ``deadline_s`` of wall time.

    No-op when ``deadline_s`` is None, off the main thread, or on a
    platform without ``signal.setitimer`` — enforcement degrades to
    "none" rather than crashing the run.  Restores the previous
    handler and any prior timer on exit.
    """
    usable = (
        deadline_s is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):  # pragma: no cover - timing dependent
        raise CellDeadlineExceeded(deadline_s)

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: One worker-side outcome: ("ok", summary) | ("timeout"|"error",
#: (exception type name, rendered message)).
CellOutcome = Tuple[str, Any]


def run_cell_batch_guarded(
    cells: Sequence[Tuple[Any, str, Any]],
    deadline_s: Optional[float] = None,
) -> List[CellOutcome]:
    """Worker entry: run a chunk of cells, reporting per-cell outcomes.

    Module-level (picklable) and cache-blind — the parent owns all
    cache traffic.  An exception in cell *k* never poisons cells
    *k+1..n* of the chunk, and the parent learns exactly which cell
    failed how: timeout-class failures route to the quarantine path,
    everything else to the crash-retry path.
    """
    from repro.experiments.runner import execute_cell
    from repro.xen.simulator import SimulationTimeout

    outcomes: List[CellOutcome] = []
    for builder, scheduler, cfg in cells:
        try:
            with alarm_guard(deadline_s):
                outcomes.append(("ok", execute_cell(builder, scheduler, cfg)))
        except (SimulationTimeout, CellDeadlineExceeded) as exc:
            outcomes.append(("timeout", (type(exc).__name__, str(exc))))
        except Exception as exc:
            outcomes.append(("error", (type(exc).__name__, str(exc))))
    return outcomes
