"""Runtime invariant checking for the machine simulator.

The reproduction rests on a closed feedback loop — simulated PMU
counters drive scheduling decisions that in turn determine the
counters — so a silent bookkeeping bug (lost credits, a VCPU dropped
from a run queue, a negative counter delta) corrupts every figure
without failing any engine-parity test: both engines would
reproduce the same wrong numbers bit for bit.  This module provides the
independent witness: a registry of cheap, toggleable assertions over
live machine state, evaluated at epoch and sampling-period boundaries
of whichever engine is driving the run.

Invariant catalogue (``INVARIANT_NAMES``):

``placement``
    Every live VCPU is in exactly one place: RUNNING VCPUs are
    ``current`` on exactly the PCPU they record and queued nowhere;
    RUNNABLE VCPUs sit in exactly one run queue — their own PCPU's;
    BLOCKED/DONE VCPUs are neither queued nor current.  Never zero
    places, never two.  The run queues' shared queued count equals the
    number of VCPUs they hold.
``work_conservation``
    After a scheduling pass no PCPU idles while its own queue holds
    runnable VCPUs (checked post-pass: later in the same epoch a
    completing or blocking VCPU may legitimately leave work waiting
    until the next pass).
``credit_conservation``
    Credits stay inside ``[credit_floor, credit_cap]`` and are finite;
    between boundaries with no accounting tick the machine-wide credit
    total is *exactly* unchanged (credits move only at ticks), and
    across ticks the total moves by at most one refill supply up and
    one full debit down per tick.
``pmu_window``
    Every open sampling window's deltas (instructions, LLC refs and
    misses, per-node and local/remote accesses) are non-negative — the
    window base is a past snapshot of a monotone counter, so a
    negative delta means the base detached from the live bank.
``pmu_monotone``
    Cumulative counters never decrease between checked boundaries.
``partition_spread``
    After each Algorithm-1 partition round the per-node reassignment
    counts satisfy ``max(reassigned_load) - min(reassigned_load) <= 1``
    and sum to the number of decisions made.
``steal_locality``
    Algorithm-2 never steals across nodes while a victim queue on the
    thief's own node held an eligible candidate under the same
    cache-hot filter, and never takes a cache-hot VCPU unless the
    thief was about to idle.
``epoch_clock``
    Simulated time and the epoch/tick counters agree.  The checker
    keeps its own ``t = t + epoch_s`` chain from the first state it
    observes (auditors are not pickled into checkpoints, so a resumed
    run seeds a fresh chain) and requires ``machine.time`` to equal it
    exactly — the same float additions every engine performs — and
    ``tick_index == ceil(epoch_index / epochs_per_tick)``, since a
    Credit tick fires at every epoch index divisible by the tick
    length.  ``RunSummary`` comparison never sees these counters, yet
    ``epoch_index`` decides which epochs tick on a resume.

Violations raise :class:`InvariantViolation` carrying the epoch,
engine, and a canonical-JSON digest of the machine state, so a failure
inside a million-epoch fuzz run is immediately reproducible and
comparable across engines.

The checker is attached at runtime (``machine.run(audit=...)``), never
through :class:`~repro.xen.simulator.SimConfig`, so enabling it cannot
perturb config hashes, cache keys or trace manifests; every check is
strictly read-only, so an audited run produces bitwise-identical
results to an unaudited one (asserted by ``benchmarks/bench_audit.py``).
"""

from __future__ import annotations

import hashlib
import math
import operator
import weakref
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Tuple

from repro.xen.vcpu import VcpuState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.partition import PartitionDecision
    from repro.xen.pcpu import Pcpu
    from repro.xen.simulator import Machine
    from repro.xen.vcpu import Vcpu

__all__ = [
    "INVARIANT_NAMES",
    "InvariantViolation",
    "InvariantChecker",
    "state_digest",
]

#: Every invariant the checker knows, in documentation order.
INVARIANT_NAMES: Tuple[str, ...] = (
    "placement",
    "work_conservation",
    "credit_conservation",
    "pmu_window",
    "pmu_monotone",
    "partition_spread",
    "steal_locality",
    "epoch_clock",
)

_EPS = 1e-9


def state_digest(machine: "Machine") -> str:
    """Canonical-JSON digest of the schedulable machine state.

    Covers everything an invariant can see — time, per-VCPU
    state/placement/credits, per-PCPU current + queue order, and the
    headline counters — serialised with
    :func:`repro.obs.manifest.canonical_dumps` so two engines at the
    same boundary produce the same digest iff their states agree.
    """
    from repro.obs.manifest import canonical_dumps

    snapshot = {
        "time": machine.time,
        "epoch": machine.epoch_index,
        "tick": machine.tick_index,
        "vcpus": [
            [v.key, v.state.name, v.pcpu, v.credits, v.vcpu_type.name]
            for v in machine.vcpus
        ],
        "pcpus": [
            [
                p.pcpu_id,
                p.current.key if p.current is not None else None,
                [v.key for v in p.queue],
            ]
            for p in machine.pcpus
        ],
        "counters": [
            machine.context_switches,
            machine.migrations,
            machine.cross_node_migrations,
            machine.steals_local,
            machine.steals_remote,
        ],
    }
    raw = canonical_dumps(snapshot)
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


class InvariantViolation(RuntimeError):
    """A runtime invariant failed.

    Carries enough structure to file the failure without re-running:
    which invariant, at which epoch boundary, under which engine, and a
    canonical state digest for cross-engine comparison.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        epoch: int,
        time_s: float,
        engine: str,
        digest: str,
    ) -> None:
        super().__init__(
            f"[{invariant}] {message} "
            f"(engine={engine}, epoch={epoch}, t={time_s:.6f}s, state={digest})"
        )
        self.invariant = invariant
        self.detail = message
        self.epoch = epoch
        self.time_s = time_s
        self.engine = engine
        self.digest = digest


class InvariantChecker:
    """Registry of toggleable runtime assertions over a live machine.

    Parameters
    ----------
    enabled:
        Invariant names to run (default: all of ``INVARIANT_NAMES``).
    disabled:
        Names to subtract from ``enabled`` — convenient for "everything
        except" configurations.
    every:
        Boundary cadence: state checks run every ``every``-th stepper
        boundary (one per event horizon, often several epochs) and
        always at sampling-period boundaries, where the PMU windows
        turn over; ``1`` — what the fuzzer uses — checks them all.  On
        the loaded soplex cell a checked boundary costs about 30 us
        (every check walks all VCPUs), about one 27 us horizon, on top
        of a floor of about 3.5% for the hook calls, the sampling
        boundaries and the algorithm hooks, so the default of 128 keeps
        the always-on cost under the 5% budget of
        ``benchmarks/bench_audit.py`` (4.3-4.7%; 64 cost 5.1-5.4%).
        Algorithm hooks (``partition_spread``, ``steal_locality``) are
        event-driven and ignore the cadence.

    The checker is attached with ``machine.run(audit=checker)`` and
    counts every individual invariant evaluation in :attr:`checks_run`
    (the "exactly zero when disabled" guard observes this counter).
    The conservation checks keep per-machine history (previous credit
    total, previous PMU totals); the checker rebinds automatically when
    it sees a different machine, so one instance can audit a sequence
    of runs without history leaking between them.
    """

    def __init__(
        self,
        enabled: Optional[Iterable[str]] = None,
        disabled: Iterable[str] = (),
        every: int = 128,
    ) -> None:
        names = set(INVARIANT_NAMES if enabled is None else enabled)
        names -= set(disabled)
        unknown = names - set(INVARIANT_NAMES)
        if unknown:
            raise ValueError(
                f"unknown invariant(s) {sorted(unknown)}; "
                f"known: {list(INVARIANT_NAMES)}"
            )
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.enabled = frozenset(names)
        self.every = every
        #: individual invariant evaluations performed so far
        self.checks_run = 0
        self._boundaries = 0
        self._active = False
        # credit_conservation history
        self._credit_total: Optional[float] = None
        self._credit_tick: int = 0
        self._credit_n: int = -1
        # pmu_monotone history: key -> (instr, refs, misses, local, remote)
        self._pmu_prev: Dict[int, Tuple[float, float, float, float, float]] = {}
        # epoch_clock history: (epoch_index, chained time) last observed
        self._clock: Optional[Tuple[int, float]] = None
        # the machine the history above belongs to
        self._machine_ref: Optional["weakref.ReferenceType"] = None

    def _bind(self, machine: "Machine") -> None:
        """Reset per-machine history when the audited machine changes."""
        ref = self._machine_ref
        if ref is not None and ref() is machine:
            return
        self._machine_ref = weakref.ref(machine)
        self._credit_total = None
        self._credit_n = -1
        self._pmu_prev.clear()
        self._clock = None

    # ------------------------------------------------------------------
    # Machine hook points
    # ------------------------------------------------------------------
    def after_schedule(self, machine: "Machine") -> None:
        """Called by ``Machine._step_epoch`` right after the scheduling
        pass — the only point where work conservation must hold."""
        self._active = self._boundaries % self.every == 0
        self._boundaries += 1
        if not self._active:
            return
        self._bind(machine)
        if "placement" in self.enabled:
            self._check_placement(machine)
        if "work_conservation" in self.enabled:
            self._check_work_conservation(machine)

    def after_epoch(self, machine: "Machine", sample_boundary: bool) -> None:
        """Called by ``Machine._step_epoch`` at the epoch's end (after
        progress, phase changes and any sampling-period work)."""
        if not (self._active or sample_boundary):
            return
        self._bind(machine)
        if "credit_conservation" in self.enabled:
            self._check_credits(machine)
        if "pmu_window" in self.enabled:
            self._check_pmu_window(machine)
        if "pmu_monotone" in self.enabled:
            self._check_pmu_monotone(machine)
        if "epoch_clock" in self.enabled:
            self._check_epoch_clock(machine)

    def check_partition(
        self,
        machine: "Machine",
        now: float,
        reassigned_load: Sequence[int],
        decisions: Sequence["PartitionDecision"],
    ) -> None:
        """Called by Algorithm 1 after each partition round."""
        if "partition_spread" not in self.enabled:
            return
        self.checks_run += 1
        if not decisions:
            return
        spread = max(reassigned_load) - min(reassigned_load)
        if spread > 1:
            self._fail(
                machine,
                "partition_spread",
                f"uneven partition round: reassigned_load={list(reassigned_load)} "
                f"(spread {spread} > 1) over {len(decisions)} decisions",
            )
        if sum(reassigned_load) != len(decisions):
            self._fail(
                machine,
                "partition_spread",
                f"reassigned_load={list(reassigned_load)} sums to "
                f"{sum(reassigned_load)}, expected {len(decisions)} decisions",
            )

    def check_steal(
        self,
        machine: "Machine",
        thief: "Pcpu",
        vcpu: "Vcpu",
        now: float,
        only_cold: bool,
        hot_window: float,
    ) -> None:
        """Called by Algorithm 2 for every successful steal, before the
        machine rebinds ``vcpu.pcpu`` (so the victim is still visible)."""
        if "steal_locality" not in self.enabled:
            return
        self.checks_run += 1
        topo = machine.topology
        victim_node = topo.node_of_pcpu(vcpu.pcpu) if vcpu.pcpu is not None else None
        if not only_cold and now - vcpu.last_ran_time < hot_window:
            # The cache-hot fallback is reserved for a thief about to idle.
            if thief.current is not None or thief.queue:
                self._fail(
                    machine,
                    "steal_locality",
                    f"cache-hot steal of {vcpu.name} by busy pcpu "
                    f"{thief.pcpu_id} (current={thief.current is not None}, "
                    f"queued={len(thief.queue)})",
                )
        if victim_node is None or victim_node == thief.node:
            return
        # Cross-node steal: no local victim queue may still hold an
        # eligible candidate.  The stolen VCPU already left its (remote)
        # queue, so the thief's node queues are exactly as Algorithm 2
        # saw them when it scanned the local node first.
        for pid in topo.pcpus_of_node(thief.node):
            victim = machine.pcpus[pid]
            if victim is thief or not victim.queue:
                continue
            for cand in victim.queue:
                if not only_cold or now - cand.last_ran_time >= hot_window:
                    self._fail(
                        machine,
                        "steal_locality",
                        f"pcpu {thief.pcpu_id} (node {thief.node}) stole "
                        f"{vcpu.name} from node {victim_node} while local "
                        f"pcpu {victim.pcpu_id} queued eligible {cand.name} "
                        f"(only_cold={only_cold})",
                    )

    # ------------------------------------------------------------------
    # State checks
    # ------------------------------------------------------------------
    def _fail(self, machine: "Machine", invariant: str, message: str) -> None:
        raise InvariantViolation(
            invariant,
            message,
            epoch=machine.epoch_index,
            time_s=machine.time,
            engine=machine.config.engine,
            digest=state_digest(machine),
        )

    def _check_placement(self, machine: "Machine") -> None:
        self.checks_run += 1
        running = VcpuState.RUNNING
        runnable = VcpuState.RUNNABLE
        queued: Dict[int, int] = {}
        for pcpu in machine.pcpus:
            pid = pcpu.pcpu_id
            cur = pcpu.current
            if cur is not None:
                if cur.state is not running:
                    self._fail(
                        machine,
                        "placement",
                        f"pcpu {pid} current {cur.name} is "
                        f"{cur.state.name}, not RUNNING",
                    )
                if cur.pcpu != pid:
                    self._fail(
                        machine,
                        "placement",
                        f"{cur.name} is current on pcpu {pid} but "
                        f"records pcpu {cur.pcpu}",
                    )
            for v in pcpu.queue:
                key = v.key
                if key in queued:
                    self._fail(
                        machine,
                        "placement",
                        f"{v.name} queued on both pcpu {queued[key]} "
                        f"and pcpu {pid}",
                    )
                queued[key] = pid
        if machine.queued_vcpus != len(queued):
            self._fail(
                machine,
                "placement",
                f"queued count is {machine.queued_vcpus} but the run queues "
                f"hold {len(queued)} VCPUs",
            )
        pcpus = machine.pcpus
        for v in machine.vcpus:
            state = v.state
            if state is running:
                if v.key in queued:
                    self._fail(
                        machine,
                        "placement",
                        f"RUNNING {v.name} also queued on pcpu {queued[v.key]}",
                    )
                if v.pcpu is None or pcpus[v.pcpu].current is not v:
                    self._fail(
                        machine,
                        "placement",
                        f"RUNNING {v.name} is not current on its pcpu {v.pcpu}",
                    )
            elif state is runnable:
                where = queued.get(v.key)
                if where is None:
                    self._fail(
                        machine, "placement", f"RUNNABLE {v.name} is in no run queue"
                    )
                elif where != v.pcpu:
                    self._fail(
                        machine,
                        "placement",
                        f"RUNNABLE {v.name} queued on pcpu {where} but "
                        f"records pcpu {v.pcpu}",
                    )
            elif v.key in queued:  # BLOCKED / DONE
                self._fail(
                    machine,
                    "placement",
                    f"{state.name} {v.name} still queued on pcpu "
                    f"{queued[v.key]}",
                )

    def _check_work_conservation(self, machine: "Machine") -> None:
        self.checks_run += 1
        for pcpu in machine.pcpus:
            if pcpu.current is None and pcpu.queue:
                waiting = [v.name for v in pcpu.queue]
                self._fail(
                    machine,
                    "work_conservation",
                    f"pcpu {pcpu.pcpu_id} idles while its queue holds {waiting}",
                )

    def _check_credits(self, machine: "Machine") -> None:
        self.checks_run += 1
        params = machine.policy.params
        lo = params.credit_floor - _EPS
        hi = params.credit_cap + _EPS
        for v in machine.vcpus:
            c = v.credits
            if not (lo <= c <= hi) or c != c:
                self._fail(
                    machine,
                    "credit_conservation",
                    f"{v.name} credits {c!r} outside "
                    f"[{params.credit_floor}, {params.credit_cap}]",
                )
        total = math.fsum([v.credits for v in machine.vcpus])
        prev, prev_tick = self._credit_total, self._credit_tick
        self._credit_total = total
        self._credit_tick = machine.tick_index
        if prev is None or len(machine.vcpus) != self._credit_n:
            self._credit_n = len(machine.vcpus)
            return
        ticks = machine.tick_index - prev_tick
        if ticks == 0:
            if total != prev:
                self._fail(
                    machine,
                    "credit_conservation",
                    f"credit total moved {prev!r} -> {total!r} with no "
                    f"accounting tick in between",
                )
            return
        # At most one refill per accounting period and one full debit
        # per tick can have happened since the last checked boundary.
        supply = (
            params.credits_per_tick * params.ticks_per_acct * len(machine.pcpus)
        )
        refills = ticks // params.ticks_per_acct + 1
        max_up = refills * supply + _EPS
        max_down = ticks * params.credits_per_tick * len(machine.pcpus) + _EPS
        delta = total - prev
        if delta > max_up or delta < -max_down:
            self._fail(
                machine,
                "credit_conservation",
                f"credit total moved by {delta:+.6f} over {ticks} tick(s); "
                f"bounds [-{max_down:.1f}, +{max_up:.1f}]",
            )

    def _check_pmu_window(self, machine: "Machine") -> None:
        self.checks_run += 1
        pmu = machine.pmu
        peek = pmu.peek
        peek_base = pmu.peek_window_base
        for v in machine.vcpus:
            bank = peek(v.key)
            base = peek_base(v.key)
            if (
                bank.instructions < base.instructions
                or bank.llc_refs < base.llc_refs
                or bank.llc_misses < base.llc_misses
                or bank.local_accesses < base.local_accesses
                or bank.remote_accesses < base.remote_accesses
                or any(map(operator.lt, bank.node_accesses, base.node_accesses))
            ):
                self._fail(
                    machine,
                    "pmu_window",
                    f"negative sampling-window delta for {v.name}: the "
                    f"window base has overtaken the live counter bank",
                )

    def _check_pmu_monotone(self, machine: "Machine") -> None:
        self.checks_run += 1
        peek = machine.pmu.peek
        history = self._pmu_prev
        for v in machine.vcpus:
            bank = peek(v.key)
            now = (
                bank.instructions,
                bank.llc_refs,
                bank.llc_misses,
                bank.local_accesses,
                bank.remote_accesses,
            )
            prev = history.get(v.key)
            history[v.key] = now
            if prev is None or not (
                now[0] < prev[0]
                or now[1] < prev[1]
                or now[2] < prev[2]
                or now[3] < prev[3]
                or now[4] < prev[4]
            ):
                continue
            for field, a, b in zip(
                ("instructions", "llc_refs", "llc_misses", "local", "remote"),
                prev,
                now,
            ):
                if b < a:
                    self._fail(
                        machine,
                        "pmu_monotone",
                        f"cumulative {field} for {v.name} decreased "
                        f"{a!r} -> {b!r}",
                    )

    def _check_epoch_clock(self, machine: "Machine") -> None:
        self.checks_run += 1
        epoch = machine.epoch_index
        if self._clock is None:
            self._clock = (epoch, machine.time)
        else:
            last, t = self._clock
            if epoch < last:
                self._fail(
                    machine,
                    "epoch_clock",
                    f"epoch_index went backwards {last} -> {epoch}",
                )
            step = machine.config.epoch_s
            for _ in range(epoch - last):
                t = t + step
            self._clock = (epoch, t)
            if machine.time != t:
                self._fail(
                    machine,
                    "epoch_clock",
                    f"time {machine.time!r} is not the epoch chain's {t!r} "
                    f"at epoch_index {epoch}",
                )
        ticks = -(-epoch // machine._epochs_per_tick)
        if machine.tick_index != ticks:
            self._fail(
                machine,
                "epoch_clock",
                f"tick_index {machine.tick_index} after {epoch} epochs, "
                f"expected {ticks}",
            )

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Summary of the checker's configuration and activity."""
        return {
            "enabled": sorted(self.enabled),
            "every": self.every,
            "checks_run": self.checks_run,
        }
