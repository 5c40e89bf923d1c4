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
cell*: :func:`cell_stop_check` builds the ``stop_check`` that
:meth:`~repro.xen.simulator.Machine.run` consults at every horizon
boundary, and it raises :class:`CellDeadlineExceeded` at the first
boundary past the deadline.  No signal handler or interval timer is
involved, so an overrun can never land inside a gc callback or a
``__del__`` and be lost, and the check works the same on any thread, in
a :class:`~concurrent.futures.ProcessPoolExecutor` worker and in the
parent's serial path.  The check reads no simulator state, so it cannot
change a result.  Scenario build and ``summarize`` run outside the run
loop and are unguarded: their time counts against the deadline, but
they are bounded and are never cut short.

The guarded worker entry (:func:`run_cell_guarded`) reports the
cell's *outcome* instead of raising, so the parent can tell a timeout
(quarantine path) from a genuine error (serial-retry path) without
unpickling a worker exception.
"""

from __future__ import annotations

import dataclasses
from time import monotonic
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "CellDeadlineExceeded",
    "DeadlinePolicy",
    "Quarantine",
    "cell_stop_check",
    "run_cell_guarded",
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
    key: Optional[str]  #: store key, None for identity-less cells
    reason: str  #: ``"sim_timeout"`` or ``"deadline"``
    strikes: int  #: attempts consumed before quarantine
    detail: str  #: the final exception, rendered

    def to_dict(self) -> Dict[str, Any]:
        """JSON form (``recovery.json``)."""
        return {
            "cell": self.cell,
            "key": self.key,
            "reason": self.reason,
            "strikes": self.strikes,
            "detail": self.detail,
        }


def cell_stop_check(
    deadline_s: Optional[float],
    requested: Optional[Callable[[], bool]] = None,
) -> Optional[Callable[[], bool]]:
    """The ``stop_check`` for one attempt at a cell, started now.

    Returns ``requested`` (a shutdown flag such as
    :meth:`~repro.recovery.shutdown.GracefulShutdown.is_requested`, or
    ``None``) unchanged when ``deadline_s`` is None, so a run without a
    deadline never reads a clock.  Otherwise the callable returns
    ``requested()`` until ``deadline_s`` of monotonic time has passed
    since this call, then raises :class:`CellDeadlineExceeded`.
    """
    if deadline_s is None:
        return requested
    expiry = monotonic() + deadline_s

    def stop_check() -> bool:
        if requested is not None and requested():
            return True
        if monotonic() >= expiry:
            raise CellDeadlineExceeded(deadline_s)
        return False

    return stop_check


#: One worker-side outcome: ("ok", summary) | ("timeout"|"error",
#: (exception type name, rendered message)).
CellOutcome = Tuple[str, Any]


def run_cell_guarded(
    builder: Any,
    scheduler: str,
    cfg: Any,
    deadline_s: Optional[float] = None,
) -> CellOutcome:
    """Worker entry: run one cell, reporting its outcome.

    Module-level (picklable) and cache-blind — the parent owns all
    cache traffic.  Timeout-class failures come back as ``"timeout"``
    (the quarantine path), everything else as ``"error"`` (the
    crash-retry path).
    """
    from repro.experiments.runner import execute_cell
    from repro.xen.simulator import SimulationTimeout

    try:
        stop_check = cell_stop_check(deadline_s)
        return ("ok", execute_cell(builder, scheduler, cfg, stop_check=stop_check))
    except (SimulationTimeout, CellDeadlineExceeded) as exc:
        return ("timeout", (type(exc).__name__, str(exc)))
    except Exception as exc:
        return ("error", (type(exc).__name__, str(exc)))
