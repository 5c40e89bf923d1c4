"""Graceful shutdown: turn SIGINT/SIGTERM into a resumable exit.

The contract a relaunch wrapper can rely on::

    repro report out/ --fast ... ; code=$?
    if [ $code -eq 75 ]; then repro report out/ --fast ... --resume; fi

``75`` is :data:`EXIT_RESUMABLE` (BSD ``EX_TEMPFAIL``): the run was
interrupted with every finished cell already in its result store (and
any in-flight serial cell checkpointed), so relaunching with
``--resume`` loses no completed work.  Any other non-zero exit is a real failure.

Mechanics: :class:`GracefulShutdown` installs handlers that raise
:class:`ShutdownRequested` *in the main thread* — which interrupts
even a blocking ``future.result()`` wait on a worker pool.  Code that
must not be interrupted at an arbitrary bytecode (a serial simulation
that wants to stop at a clean epoch boundary and checkpoint) wraps
itself in :meth:`GracefulShutdown.deferred`: inside, a signal only
sets the ``requested`` flag, and the run loop's ``stop_check`` picks
it up at the next horizon boundary.

:class:`ShutdownRequested` derives from ``BaseException`` on purpose:
the runner's crash-retry machinery catches ``Exception`` to recover
cells, and a shutdown must sail through that, not be "recovered".
"""

from __future__ import annotations

import signal
from types import TracebackType
from typing import Iterator, List, Optional, Tuple, Type

import contextlib

__all__ = ["EXIT_RESUMABLE", "ShutdownRequested", "GracefulShutdown"]

#: Documented exit code for "interrupted but resumable" (EX_TEMPFAIL).
EXIT_RESUMABLE = 75


class ShutdownRequested(BaseException):
    """Raised in the main thread when SIGINT/SIGTERM asks us to stop."""

    def __init__(self, signum: int) -> None:
        try:
            name = signal.Signals(signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = str(signum)
        super().__init__(f"shutdown requested by {name}")
        self.signum = signum


class GracefulShutdown:
    """Context manager owning the process's SIGINT/SIGTERM response.

    >>> shutdown = GracefulShutdown()
    >>> with shutdown:
    ...     run_the_grid(stop_check=shutdown.is_requested)

    Outside :meth:`deferred` sections a signal raises
    :class:`ShutdownRequested` immediately; inside, it only sets
    :attr:`requested` so cooperative loops can stop at a safe point.
    A second signal always raises — the operator's escape hatch when a
    deferred section is stuck.
    """

    #: Signals that trigger a graceful shutdown (SIGTERM may be absent
    #: on exotic platforms; filtered at install time).
    SIGNALS = tuple(
        s
        for s in (getattr(signal, "SIGINT", None), getattr(signal, "SIGTERM", None))
        if s is not None
    )

    def __init__(self) -> None:
        self.requested = False
        self.signum: Optional[int] = None
        self._defer_depth = 0
        self._previous: List[Tuple[int, object]] = []

    # -- signal plumbing ------------------------------------------------
    def _handle(self, signum: int, frame) -> None:
        repeated = self.requested
        self.requested = True
        self.signum = signum
        if self._defer_depth == 0 or repeated:
            raise ShutdownRequested(signum)

    def __enter__(self) -> "GracefulShutdown":
        self._previous = []
        for sig in self.SIGNALS:
            try:
                self._previous.append((sig, signal.signal(sig, self._handle)))
            except (ValueError, OSError):  # pragma: no cover - not main thread
                pass
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        for sig, previous in self._previous:
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous = []

    # -- cooperative-stop API ------------------------------------------
    def is_requested(self) -> bool:
        """``stop_check`` callable for :meth:`Machine.run`."""
        return self.requested

    def check(self) -> None:
        """Raise :class:`ShutdownRequested` if a signal already arrived."""
        if self.requested:
            raise ShutdownRequested(self.signum or signal.SIGTERM)

    @contextlib.contextmanager
    def deferred(self) -> Iterator["GracefulShutdown"]:
        """Within: signals set the flag instead of raising.

        Use around code that polls :meth:`is_requested` at safe points
        (epoch boundaries) and wants to checkpoint before exiting.
        """
        self._defer_depth += 1
        try:
            yield self
        finally:
            self._defer_depth -= 1
