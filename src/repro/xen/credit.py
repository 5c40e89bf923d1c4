"""Xen's Credit scheduler and the scheduler-policy interface.

The Credit scheduler is the substrate the paper modifies (§II-B, §IV).
Behaviour reproduced here, matching Xen 4.0.1's documented design:

* each domain's VCPUs earn *credits* in proportion to its weight every
  accounting period (30 ms); running VCPUs are debited every 10 ms tick;
* a VCPU with credits left has priority UNDER, an exhausted one OVER;
  queues serve UNDER before OVER, FIFO within a class;
* a running VCPU is preempted when its 30 ms slice expires (if anyone
  is waiting) or when an UNDER VCPU waits behind an OVER one;
* **load balancing is NUMA-blind**: an idle PCPU steals the head of any
  non-empty peer queue, scanning peers in arbitrary order with no regard
  for node boundaries or application behaviour — the §II-B problem.

Subclasses (vProbe and the baselines) override the hook methods; the
simulator only ever talks to :class:`SchedulerPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.xen.pcpu import Pcpu
from repro.xen.vcpu import Vcpu
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.simulator import Machine

__all__ = ["CreditParams", "SchedulerPolicy", "CreditScheduler"]


@dataclass(frozen=True, slots=True)
class CreditParams:
    """Credit-scheduler tuning constants (Xen defaults)."""

    tick_s: float = 0.010  #: accounting tick
    ticks_per_acct: int = 3  #: accounting period = 30 ms
    credits_per_tick: float = 100.0  #: debit per tick of running
    credit_cap: float = 300.0  #: clamp after refill
    credit_floor: float = -300.0  #: clamp after debit
    #: a VCPU that ran within this window is considered cache-hot and
    #: skipped by balance steals (__csched_vcpu_is_cache_hot); stolen
    #: work is therefore work that has waited, which rate-limits
    #: migration churn exactly as on real Xen
    cache_hot_s: float = 0.020

    def __post_init__(self) -> None:
        check_positive(self.tick_s, "tick_s")
        if self.ticks_per_acct <= 0:
            raise ValueError("ticks_per_acct must be > 0")
        check_positive(self.credits_per_tick, "credits_per_tick")

    @property
    def slice_s(self) -> float:
        """Maximum continuous run before round-robin preemption."""
        return self.tick_s * self.ticks_per_acct


class SchedulerPolicy:
    """Interface between the machine simulator and a VCPU scheduler.

    The machine owns all mechanics (queues, context switches, time); a
    policy makes decisions at the hook points below.  The base class
    implements stock Credit behaviour; subclasses override selectively.
    """

    #: Human-readable policy name used in reports.
    name = "base"

    #: Whether this policy reads PMU counters (charges collection cost).
    collects_pmu = False

    def __init__(self, params: CreditParams | None = None) -> None:
        self.params = params or CreditParams()
        self.machine: Optional["Machine"] = None

    # -- lifecycle -------------------------------------------------------
    def attach(self, machine: "Machine") -> None:
        """Bind the policy to a machine (called once by the machine)."""
        self.machine = machine

    # -- hooks ------------------------------------------------------------
    def on_tick(self, now: float, tick_index: int) -> None:
        """10 ms accounting tick: debit/refill credits, preempt."""
        raise NotImplementedError

    def steal(self, pcpu: Pcpu, now: float, under_only: bool = False) -> Optional[Vcpu]:
        """A PCPU without useful local work asks for some.

        Xen's balancer runs whenever the local candidate is the idle
        VCPU *or* has OVER priority; in the latter case only an UNDER
        VCPU is worth stealing (``under_only=True``).  Returns a VCPU
        already removed from its victim queue (the machine completes
        the migration bookkeeping), or None.

        A policy whose ``steal`` draws scheduler RNG differently from
        its parent's must also override :meth:`idle_steals`.
        """
        raise NotImplementedError

    def idle_steals(self, n: int) -> None:
        """Consume exactly the scheduler RNG that ``n`` steal calls would
        consume while every run queue is empty, and do nothing else.

        The batched engine calls this once per horizon for the steal
        attempts idle PCPUs make in its interior epochs: with every
        queue empty those attempts cannot find work, touch a queue or
        log anything, so only their RNG draws are observable.
        """
        raise NotImplementedError

    def on_sample_period(self, now: float) -> None:
        """End of a sampling period (vProbe's partitioning point)."""

    def on_context_switch(self, pcpu: Pcpu, prev: Optional[Vcpu], nxt: Optional[Vcpu]) -> None:
        """Called by the machine around every context switch."""

    def on_vcpu_wake(self, vcpu: Vcpu, now: float) -> int:
        """Choose the PCPU a waking VCPU is enqueued on.

        Base behaviour: wherever it last ran, falling back to PCPU 0
        before first placement.  Subclasses model tickle-time placement.
        """
        return vcpu.pcpu if vcpu.pcpu is not None else 0


@lru_cache(maxsize=256)
def _peer_rows(num_pcpus: int, n: int) -> np.ndarray:
    """``n`` read-only rows of ``arange(num_pcpus)``: ``permuted`` shuffles
    a copy and draws by shape alone, so one block per ``n`` serves all."""
    rows = np.tile(np.arange(num_pcpus), (n, 1))
    rows.flags.writeable = False
    return rows


class CreditScheduler(SchedulerPolicy):
    """Stock Xen Credit scheduler with NUMA-blind load balancing."""

    name = "credit"

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def on_tick(self, now: float, tick_index: int) -> None:
        machine = self.machine
        assert machine is not None, "policy not attached to a machine"
        params = self.params

        # Debit running VCPUs; a VCPU that received a full tick of
        # service also loses its wake-up BOOST (csched_vcpu_acct).
        floor = params.credit_floor
        debit = params.credits_per_tick
        for pcpu in machine.pcpus:
            cur = pcpu.current
            if cur is not None:
                cur.credits = max(floor, cur.credits - debit)
                cur.boosted = False

        # Accounting period: refill credits in proportion to weight.
        if tick_index % params.ticks_per_acct == 0:
            self._refill_credits()
            self._requeue_for_priority()

        # Preemption: slice expiry and higher-class-behind-lower.  A
        # slice expiry always re-enters schedule() (Xen's 30 ms timer),
        # even with an empty local queue — that is where the balancer
        # gets its chance to pull queued work from loaded peers, which
        # is what keeps surplus VCPUs fairly served machine-wide.
        slice_end = params.slice_s - 1e-12
        for pcpu in machine.pcpus:
            cur = pcpu.current
            if cur is None:
                continue
            if cur.slice_used_s >= slice_end or pcpu.queue.has_priority_over(cur):
                machine.preempt(pcpu, now)
        # Balancing itself happens at the machine's scheduling pass:
        # whenever a PCPU must pick work and its best local candidate
        # is OVER (or absent), the policy's steal() hook runs.  That
        # mirrors Xen, where csched_load_balance is only invoked from
        # schedule() — after a slice expiry, block or preemption
        # empties the CPU — never autonomously.

    def _refill_credits(self) -> None:
        """Distribute one period's credits over active VCPUs by weight."""
        machine = self.machine
        assert machine is not None
        params = self.params
        active = [v for v in machine.vcpus if v.runnable]
        if not active:
            return
        total_weight = 0.0  # left to right: ``sum`` is compensated on 3.12+
        for vcpu in active:
            total_weight += vcpu.domain.weight
        # Credit supply per period: one full slice's worth per PCPU.
        supply = params.credits_per_tick * params.ticks_per_acct * len(machine.pcpus)
        cap = params.credit_cap
        for vcpu in active:
            credits = vcpu.credits + supply * (vcpu.domain.weight / total_weight)
            vcpu.credits = credits if credits < cap else cap

    def _requeue_for_priority(self) -> None:
        """Re-sort queues after refill may have flipped UNDER/OVER."""
        machine = self.machine
        assert machine is not None
        for pcpu in machine.pcpus:
            pcpu.queue.reclassify()

    # ------------------------------------------------------------------
    # Load balancing (the NUMA-blind part the paper fixes)
    # ------------------------------------------------------------------
    def steal(self, pcpu: Pcpu, now: float, under_only: bool = False) -> Optional[Vcpu]:
        """Steal the head VCPU of any peer queue, NUMA-blind.

        Peers are scanned in a random order (modelling Xen's
        arbitrary-arrival scan from the idle CPU onwards), so roughly
        half the steals on a two-node machine cross the interconnect.
        """
        machine = self.machine
        assert machine is not None
        pcpus = machine.pcpus
        order = machine.rng.get("credit.steal").permutation(len(pcpus))
        if machine.queued_vcpus == len(pcpu.queue):
            return None  # only the thief's own queue holds work: nothing to steal
        order = order.tolist()
        max_rank = 1 if under_only else 2
        hot_window = self.params.cache_hot_s

        def cold(v: Vcpu) -> bool:
            return now - v.last_ran_time >= hot_window

        for idx in order:
            victim = pcpus[idx]
            if victim is pcpu:
                continue
            candidate = victim.queue.steal_candidate(max_rank, cold)
            if candidate is not None:
                victim.queue.remove(candidate)
                return candidate
        if not under_only:
            # A PCPU about to idle takes cache-hot work rather than none.
            for idx in order:
                victim = pcpus[idx]
                if victim is pcpu:
                    continue
                candidate = victim.queue.pop()
                if candidate is not None:
                    return candidate
        return None

    def idle_steals(self, n: int) -> None:
        """``n`` empty-machine steals: ``n`` draws of the peer permutation.

        One batched ``permuted`` call over ``n`` rows of ``arange(P)``
        leaves ``credit.steal`` in the same state, via the same values,
        as ``n`` ``permutation(P)`` calls.
        """
        if n <= 0:
            return
        machine = self.machine
        assert machine is not None
        machine.rng.get("credit.steal").permuted(_peer_rows(len(machine.pcpus), n), axis=1)

    # ------------------------------------------------------------------
    # Wake placement (the tickle path, equally NUMA-blind)
    # ------------------------------------------------------------------
    def on_vcpu_wake(self, vcpu: Vcpu, now: float) -> int:
        """Place a waking (BOOST) VCPU wherever capacity appears.

        Models __runq_tickle + the subsequent pull: the freshly boosted
        VCPU ends up on the least busy CPU that reacts to the IPI,
        with no regard for node boundaries.  If nowhere is less loaded
        than home, the VCPU stays put (work conservation).
        """
        machine = self.machine
        assert machine is not None
        home = vcpu.pcpu if vcpu.pcpu is not None else 0
        home_load = machine.pcpus[home].load_with_current
        lighter = [
            p.pcpu_id
            for p in machine.pcpus
            if p.pcpu_id != home and p.load_with_current < home_load
        ]
        if not lighter:
            return home
        rng = machine.rng.get("credit.wake")
        return int(lighter[int(rng.integers(len(lighter)))])
