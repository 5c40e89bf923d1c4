"""Tests for repro.hardware.cache: water-filling, miss curves, warmth."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.cache import CacheDemand, CacheModel, LLCState, waterfill_shares

MIB = 1024**2


def demand(ws_mib=8.0, intensity=1.0, min_mr=0.05, max_mr=0.8, shape=1.0):
    return CacheDemand(
        working_set_bytes=ws_mib * MIB,
        intensity=intensity,
        min_miss_rate=min_mr,
        max_miss_rate=max_mr,
        curve_shape=shape,
    )


class TestWaterfill:
    def test_single_item_capped_by_working_set(self):
        allocs = waterfill_shares(12 * MIB, [1.0], [4 * MIB])
        assert allocs[0] == pytest.approx(4 * MIB)

    def test_proportional_split_when_uncapped(self):
        allocs = waterfill_shares(12.0, [1.0, 2.0], [100.0, 100.0])
        assert allocs[0] == pytest.approx(4.0)
        assert allocs[1] == pytest.approx(8.0)

    def test_slack_redistribution(self):
        # First item caps at 2; its slack goes to the second.
        allocs = waterfill_shares(10.0, [1.0, 1.0], [2.0, 100.0])
        assert allocs[0] == pytest.approx(2.0)
        assert allocs[1] == pytest.approx(8.0)

    def test_zero_weight_gets_nothing(self):
        allocs = waterfill_shares(10.0, [0.0, 1.0], [5.0, 5.0])
        assert allocs[0] == 0.0
        assert allocs[1] == pytest.approx(5.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            waterfill_shares(1.0, [1.0], [1.0, 2.0])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=0.0, max_value=50.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_invariants(self, items, capacity):
        """Never exceed capacity, never exceed caps, never negative."""
        weights = [w for w, _ in items]
        caps = [c for _, c in items]
        allocs = waterfill_shares(capacity, weights, caps)
        assert all(a >= 0 for a in allocs)
        assert all(a <= c + 1e-6 for a, c in zip(allocs, caps))
        assert sum(allocs) <= capacity + 1e-6

    @given(st.floats(min_value=0.5, max_value=64.0))
    def test_fully_allocates_when_demand_exceeds_capacity(self, cap_scale):
        capacity = 10.0
        caps = [cap_scale * 10, cap_scale * 10]
        allocs = waterfill_shares(capacity, [1.0, 1.0], caps)
        if sum(caps) >= capacity:
            assert sum(allocs) == pytest.approx(capacity, rel=1e-6)


class TestMissRateCurve:
    def test_fully_resident_gives_floor(self):
        d = demand(min_mr=0.1, max_mr=0.9)
        assert d.miss_rate(1.0) == pytest.approx(0.1)

    def test_nothing_resident_gives_ceiling(self):
        d = demand(min_mr=0.1, max_mr=0.9)
        assert d.miss_rate(0.0) == pytest.approx(0.9)

    def test_monotone_decreasing_in_residency(self):
        d = demand(shape=1.3)
        rates = [d.miss_rate(f / 10) for f in range(11)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_clamps_out_of_range_inputs(self):
        d = demand()
        assert d.miss_rate(-0.5) == d.miss_rate(0.0)
        assert d.miss_rate(1.5) == d.miss_rate(1.0)

    def test_inverted_rates_rejected(self):
        with pytest.raises(ValueError):
            demand(min_mr=0.9, max_mr=0.1)


class TestLLCState:
    def test_warmth_charges_while_running(self):
        state = LLCState()
        state.advance(0.05, {1: 8 * MIB})
        first = state.warmth(1)
        state.advance(0.05, {1: 8 * MIB})
        assert 0 < first < state.warmth(1) <= 1.0

    def test_warmth_decays_when_absent(self):
        state = LLCState()
        state.advance(0.2, {1: 4 * MIB})
        warm = state.warmth(1)
        state.advance(0.05, {})
        assert state.warmth(1) < warm

    def test_tiny_warmth_entries_dropped(self):
        state = LLCState()
        state.advance(0.01, {1: 4 * MIB})
        state.advance(10.0, {})  # long absence
        assert state.warmth(1) == 0.0
        assert 1 not in state.warmth_table

    def test_small_working_set_warms_fast(self):
        state = LLCState()
        state.advance(0.005, {1: 256 * 1024})
        assert state.warmth(1) > 0.9


class TestCacheModel:
    def test_solo_fit_reaches_floor_miss_rate(self):
        model = CacheModel(12 * MIB)
        d = demand(ws_mib=8, min_mr=0.05)
        # Warm up.
        for _ in range(200):
            model.advance(0.01, {1: d})
        occ = model.solve({1: d})
        assert occ.miss_rates[1] == pytest.approx(0.05, abs=0.02)

    def test_contention_raises_miss_rate(self):
        model = CacheModel(12 * MIB)
        a, b = demand(ws_mib=10), demand(ws_mib=10)
        for _ in range(200):
            model.advance(0.01, {1: a, 2: b})
        shared = model.solve({1: a, 2: b}).miss_rates[1]

        solo_model = CacheModel(12 * MIB)
        for _ in range(200):
            solo_model.advance(0.01, {1: a})
        solo = solo_model.solve({1: a}).miss_rates[1]
        assert shared > solo

    def test_pressure_reflects_oversubscription(self):
        model = CacheModel(12 * MIB)
        occ = model.solve({1: demand(ws_mib=30)})
        assert occ.pressure == pytest.approx(30 / 12)

    def test_thrashing_workload_high_misses_even_alone(self):
        model = CacheModel(12 * MIB)
        d = demand(ws_mib=36, min_mr=0.45, max_mr=0.9)
        for _ in range(300):
            model.advance(0.01, {1: d})
        occ = model.solve({1: d})
        assert occ.miss_rates[1] > 0.6

    def test_empty_solve(self):
        occ = CacheModel(12 * MIB).solve({})
        assert occ.shares == {} and occ.pressure == 0.0
