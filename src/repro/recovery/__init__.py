"""Crash-safe, resumable experiment execution.

Three pillars, each its own module, all built on the same invariant the
engines already guarantee — a run is a deterministic function of
(builder, scheduler, config), and its state at any *epoch boundary* is
a complete description of the rest of the run:

* :mod:`repro.recovery.checkpoint` — versioned, ``config_hash``-stamped
  snapshots of a live :class:`~repro.xen.simulator.Machine`, with
  bitwise resume parity across both engines;
* :mod:`repro.recovery.deadline` — per-cell wall-clock deadlines,
  checked cooperatively at horizon boundaries, with exponential-backoff
  retries and quarantine after repeated strikes, folding
  :class:`~repro.xen.simulator.SimulationTimeout` into the same path;
* :mod:`repro.recovery.shutdown` — SIGINT/SIGTERM handlers that
  checkpoint in-flight serial runs and exit with the documented
  resumable code (:data:`~repro.recovery.shutdown.EXIT_RESUMABLE`).

Finished and quarantined cells are kept by the result store
(:mod:`repro.cache.store`), which fsyncs every entry; ``repro report
--resume`` reruns against that store, so only cells that never
finished are dispatched again.
"""

from repro.recovery.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    checkpoint_path_for,
    execute_cell_resumable,
    inspect_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.recovery.deadline import (
    CellDeadlineExceeded,
    DeadlinePolicy,
    Quarantine,
)
from repro.recovery.shutdown import (
    EXIT_RESUMABLE,
    GracefulShutdown,
    ShutdownRequested,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "checkpoint_path_for",
    "execute_cell_resumable",
    "inspect_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "CellDeadlineExceeded",
    "DeadlinePolicy",
    "Quarantine",
    "EXIT_RESUMABLE",
    "GracefulShutdown",
    "ShutdownRequested",
]
