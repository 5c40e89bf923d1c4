"""Per-PCPU run queue with Credit's three-priority discipline.

Xen 4.0's Credit scheduler keeps one queue per PCPU ordered by class —
BOOST (just woken from sleep), UNDER (credits remaining), OVER
(credits exhausted) — FIFO within each class.  BOOST is the mechanism
behind Credit's I/O responsiveness *and* its migration churn: boosted
VCPUs preempt immediately and are what the NUMA-blind balancer steals
across sockets (§II-B's "frequent migrations").

The queue also exposes the scan/remove operations the load balancers
need: remove a specific VCPU, pop restricted to a priority ceiling,
and pick the queued VCPU minimising an arbitrary key (vProbe steals
the smallest LLC pressure, regardless of class — Algorithm 2).

A machine's queues share a *queued count* (a one-element list), kept
by every enqueue and dequeue, so "is anything queued anywhere else?"
is one comparison instead of a scan over every queue.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Callable, Deque, Iterator, List, Optional, Tuple

from repro.xen.vcpu import Vcpu, VcpuState

__all__ = ["RunQueue"]


class RunQueue:
    """Three-class FIFO run queue (BOOST before UNDER before OVER).

    ``queued`` is the machine's shared queued count (default: its own).
    """

    def __init__(self, queued: Optional[List[int]] = None) -> None:
        self._classes: Tuple[Deque[Vcpu], Deque[Vcpu], Deque[Vcpu]] = (
            deque(),
            deque(),
            deque(),
        )
        self.queued: List[int] = [0] if queued is None else queued

    def __len__(self) -> int:
        boost, under, over = self._classes
        return len(boost) + len(under) + len(over)

    def __bool__(self) -> bool:
        return any(self._classes)

    def __iter__(self) -> Iterator[Vcpu]:
        """Iterate in scheduling order (class by class, FIFO within)."""
        return chain(*self._classes)

    def __contains__(self, vcpu: Vcpu) -> bool:
        boost, under, over = self._classes
        return vcpu in boost or vcpu in under or vcpu in over

    def push(self, vcpu: Vcpu) -> None:
        """Enqueue at the tail of the VCPU's priority class.

        Raises
        ------
        ValueError
            If the VCPU is not in a queueable state or already queued.
        """
        if vcpu.state is not VcpuState.RUNNABLE:
            raise ValueError(f"cannot enqueue {vcpu!r}: state is {vcpu.state.value}")
        boost, under, over = classes = self._classes
        if vcpu in boost or vcpu in under or vcpu in over:
            raise ValueError(f"{vcpu!r} is already queued")
        classes[vcpu.priority_rank].append(vcpu)
        self.queued[0] += 1

    def pop(self) -> Optional[Vcpu]:
        """Dequeue the head (best class, oldest); None when empty."""
        for q in self._classes:
            if q:
                self.queued[0] -= 1
                return q.popleft()
        return None

    def pop_rank_at_most(self, max_rank: int) -> Optional[Vcpu]:
        """Dequeue the head VCPU whose class is ``max_rank`` or better.

        Used by the Credit balancer, which only steals work strictly
        more urgent than what the thief would otherwise run.
        """
        for rank, q in enumerate(self._classes):
            if rank > max_rank:
                break
            if q:
                self.queued[0] -= 1
                return q.popleft()
        return None

    def peek(self) -> Optional[Vcpu]:
        """The VCPU :meth:`pop` would return, without removing it."""
        for q in self._classes:
            if q:
                return q[0]
        return None

    def steal_candidate(self, max_rank: int, predicate: Callable[[Vcpu], bool]) -> Optional[Vcpu]:
        """First queued VCPU of class <= ``max_rank`` satisfying ``predicate``.

        Scans in scheduling order and does not remove; callers
        :meth:`remove` the returned VCPU once committed.
        """
        for rank, q in enumerate(self._classes):
            if rank > max_rank:
                break
            for vcpu in q:
                if predicate(vcpu):
                    return vcpu
        return None

    def head_rank(self) -> Optional[int]:
        """Priority rank of the queue head (None when empty)."""
        boost, under, over = self._classes
        if boost:
            return 0
        if under:
            return 1
        if over:
            return 2
        return None

    def remove(self, vcpu: Vcpu) -> bool:
        """Remove a specific VCPU; returns False if it was not queued."""
        for q in self._classes:
            try:
                q.remove(vcpu)
            except ValueError:
                continue
            self.queued[0] -= 1
            return True
        return False

    def snapshot(self) -> List[Vcpu]:
        """A list copy in scheduling order (for scans that may mutate)."""
        return list(self)

    def min_by(
        self,
        key: Callable[[Vcpu], float],
        max_rank: int = 2,
    ) -> Optional[Vcpu]:
        """The queued VCPU minimising ``key`` (ties: scheduling order).

        ``max_rank`` optionally restricts the pool to classes at least
        that urgent (0 = BOOST only, 1 = BOOST+UNDER, 2 = all).
        """
        best: Optional[Vcpu] = None
        best_val = float("inf")
        for rank, q in enumerate(self._classes):
            if rank > max_rank:
                break
            for vcpu in q:
                val = key(vcpu)
                if val < best_val:
                    best, best_val = vcpu, val
        return best

    def has_priority_over(self, running: Optional[Vcpu]) -> bool:
        """Would the queue head preempt ``running`` under Credit rules?

        A head of a strictly better class preempts; nothing preempts
        within the same class mid-slice.
        """
        head_rank = self.head_rank()
        if head_rank is None:
            return False
        if running is None:
            return True
        return head_rank < running.priority_rank

    def reclassify(self) -> None:
        """Move every queued VCPU, in order, to the tail of its current
        class (credits were recomputed and may have flipped UNDER/OVER)."""
        classes = self._classes
        if classes[0] or classes[1] or classes[2]:
            drained = [*classes[0], *classes[1], *classes[2]]
            for q in classes:
                q.clear()
            for vcpu in drained:
                classes[vcpu.priority_rank].append(vcpu)
