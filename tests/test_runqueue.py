"""Tests for repro.xen.runqueue: three-class Credit queue discipline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.xen.runqueue import RunQueue
from repro.xen.vcpu import VcpuState

from tests.helpers import make_vcpu, make_vcpus


class TestPushPop:
    def test_fifo_within_class(self):
        q = RunQueue()
        a, b = make_vcpus([{"credits": 100}, {"credits": 100}])
        q.push(a)
        q.push(b)
        assert q.pop() is a
        assert q.pop() is b

    def test_class_order_boost_under_over(self):
        q = RunQueue()
        over = make_vcpu(0, credits=-100)
        under = make_vcpu(1, credits=100)
        boost = make_vcpu(2, credits=-100, boosted=True)
        q.push(over)
        q.push(under)
        q.push(boost)
        assert q.pop() is boost
        assert q.pop() is under
        assert q.pop() is over

    def test_pop_empty_returns_none(self):
        assert RunQueue().pop() is None

    def test_push_requires_runnable(self):
        q = RunQueue()
        vcpu = make_vcpu()
        vcpu.state = VcpuState.BLOCKED
        with pytest.raises(ValueError):
            q.push(vcpu)

    def test_double_push_rejected(self):
        q = RunQueue()
        vcpu = make_vcpu()
        q.push(vcpu)
        with pytest.raises(ValueError):
            q.push(vcpu)

    def test_len_and_bool(self):
        q = RunQueue()
        assert not q and len(q) == 0
        q.push(make_vcpu())
        assert q and len(q) == 1


class TestRankRestrictedPop:
    def test_pop_rank_at_most_skips_over(self):
        q = RunQueue()
        over = make_vcpu(0, credits=-10)
        q.push(over)
        assert q.pop_rank_at_most(1) is None
        assert q.pop_rank_at_most(2) is over

    def test_pop_rank_boost_only(self):
        q = RunQueue()
        under = make_vcpu(0, credits=10)
        boost = make_vcpu(1, boosted=True)
        q.push(under)
        q.push(boost)
        assert q.pop_rank_at_most(0) is boost
        assert q.pop_rank_at_most(0) is None

    def test_head_rank(self):
        q = RunQueue()
        assert q.head_rank() is None
        q.push(make_vcpu(0, credits=-10))
        assert q.head_rank() == 2
        q.push(make_vcpu(1, credits=10))
        assert q.head_rank() == 1


class TestRemoveAndScan:
    def test_remove_specific(self):
        q = RunQueue()
        a, b = make_vcpus([{}, {}])
        q.push(a)
        q.push(b)
        assert q.remove(a)
        assert not q.remove(a)
        assert q.pop() is b

    def test_min_by_pressure(self):
        q = RunQueue()
        heavy = make_vcpu(0, llc_pressure=25.0)
        light = make_vcpu(1, llc_pressure=0.1)
        q.push(heavy)
        q.push(light)
        assert q.min_by(lambda v: v.llc_pressure) is light

    def test_min_by_respects_max_rank(self):
        q = RunQueue()
        light_over = make_vcpu(0, credits=-10, llc_pressure=0.1)
        heavy_under = make_vcpu(1, credits=10, llc_pressure=25.0)
        q.push(light_over)
        q.push(heavy_under)
        assert q.min_by(lambda v: v.llc_pressure, max_rank=1) is heavy_under
        assert q.min_by(lambda v: v.llc_pressure, max_rank=2) is light_over

    def test_min_by_tie_prefers_scheduling_order(self):
        q = RunQueue()
        a, b = make_vcpus([{"llc_pressure": 1.0}, {"llc_pressure": 1.0}])
        q.push(a)
        q.push(b)
        assert q.min_by(lambda v: v.llc_pressure) is a

    def test_snapshot_is_copy(self):
        q = RunQueue()
        q.push(make_vcpu())
        snap = q.snapshot()
        snap.clear()
        assert len(q) == 1


class TestPreemptionPredicate:
    def test_under_head_preempts_over_running(self):
        q = RunQueue()
        q.push(make_vcpu(0, credits=10))
        running = make_vcpu(1, credits=-10)
        assert q.has_priority_over(running)

    def test_same_class_does_not_preempt(self):
        q = RunQueue()
        q.push(make_vcpu(0, credits=10))
        running = make_vcpu(1, credits=20)
        assert not q.has_priority_over(running)

    def test_anything_beats_idle(self):
        q = RunQueue()
        q.push(make_vcpu(0, credits=-300))
        assert q.has_priority_over(None)

    def test_empty_queue_never_preempts(self):
        assert not RunQueue().has_priority_over(make_vcpu())


class TestRequeue:
    def test_reclassify_follows_current_class(self):
        q = RunQueue()
        under, over = make_vcpus([{"credits": 10}, {"credits": -10}])
        q.push(under)
        q.push(over)
        under.credits, over.credits = -10.0, 10.0  # a refill flipped both
        q.reclassify()
        assert len(q) == 2 and q.queued == [2]
        assert q.pop() is over
        assert q.pop() is under


@given(
    st.lists(
        st.tuples(
            st.sampled_from([-200.0, -10.0, 10.0, 200.0]),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_property_pop_order_is_by_rank_then_fifo(specs):
    """pop() must always yield ranks in non-decreasing order, FIFO within."""
    q = RunQueue()
    vcpus = [
        make_vcpu(i, credits=credits, boosted=boosted)
        for i, (credits, boosted) in enumerate(specs)
    ]
    for v in vcpus:
        q.push(v)
    popped = []
    while True:
        v = q.pop()
        if v is None:
            break
        popped.append(v)
    assert len(popped) == len(vcpus)
    ranks = [v.priority_rank for v in popped]
    assert ranks == sorted(ranks)
    # FIFO within a rank: keys of equal-rank vcpus appear in push order.
    for rank in set(ranks):
        keys = [v.key for v in popped if v.priority_rank == rank]
        pushed = [v.key for v in vcpus if v.priority_rank == rank]
        assert keys == pushed
