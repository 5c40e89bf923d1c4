"""Tests for repro.hardware.memory: latency composition and queueing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.memory import (
    LatencySpec,
    MemorySystem,
    queue_inflation,
)
from repro.hardware.topology import xeon_e5620


@pytest.fixture
def memsys():
    return MemorySystem(xeon_e5620())


class TestQueueInflation:
    def test_zero_load_no_inflation(self):
        assert queue_inflation(0.0) == pytest.approx(1.0)

    def test_monotone_in_utilisation(self):
        values = [queue_inflation(u) for u in (0.0, 0.3, 0.6, 0.8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_caps_at_saturation(self):
        assert queue_inflation(1.0) == 8.0
        assert queue_inflation(5.0) == 8.0

    def test_custom_cap(self):
        assert queue_inflation(1.0, cap=4.0) == 4.0

    @given(st.floats(min_value=0, max_value=10))
    def test_bounded(self, u):
        assert 1.0 <= queue_inflation(u) <= 8.0


class TestLatencySpec:
    def test_remote_is_local_plus_extra(self):
        spec = LatencySpec(local_dram_ns=70, remote_extra_ns=50)
        assert spec.remote_dram_ns() == pytest.approx(120)

    def test_rejects_non_positive_local(self):
        with pytest.raises(ValueError):
            LatencySpec(local_dram_ns=0)


class TestMemorySystemSolve:
    def test_local_access_cheaper_than_remote(self, memsys):
        local = memsys.solve(
            {1: 1e9}, {1: 0}, {1: np.array([1.0, 0.0])}
        ).miss_penalty_ns[1]
        remote = memsys.solve(
            {1: 1e9}, {1: 0}, {1: np.array([0.0, 1.0])}
        ).miss_penalty_ns[1]
        assert remote > local

    def test_local_fraction_reported(self, memsys):
        costs = memsys.solve({1: 1e9}, {1: 0}, {1: np.array([0.7, 0.3])})
        assert costs.local_fraction[1] == pytest.approx(0.7)

    def test_imc_utilisation_accumulates_by_target_node(self, memsys):
        costs = memsys.solve(
            {1: 2e9, 2: 2e9},
            {1: 0, 2: 1},
            {1: np.array([1.0, 0.0]), 2: np.array([1.0, 0.0])},
        )
        assert costs.imc_utilisation[0] > 0
        assert costs.imc_utilisation[1] == 0

    def test_qpi_counts_only_cross_node_flows(self, memsys):
        all_local = memsys.solve({1: 2e9}, {1: 0}, {1: np.array([1.0, 0.0])})
        assert all_local.qpi_utilisation == 0
        all_remote = memsys.solve({1: 2e9}, {1: 0}, {1: np.array([0.0, 1.0])})
        assert all_remote.qpi_utilisation == pytest.approx(2e9 / 4.0e9)

    def test_qpi_contention_inflates_remote_penalty(self, memsys):
        light = memsys.solve({1: 0.1e9}, {1: 0}, {1: np.array([0.0, 1.0])})
        heavy = memsys.solve({1: 3.9e9}, {1: 0}, {1: np.array([0.0, 1.0])})
        assert heavy.miss_penalty_ns[1] > light.miss_penalty_ns[1]

    def test_imc_contention_inflates_even_local(self, memsys):
        light = memsys.solve({1: 0.1e9}, {1: 0}, {1: np.array([1.0, 0.0])})
        heavy = memsys.solve({1: 12.0e9}, {1: 0}, {1: np.array([1.0, 0.0])})
        assert heavy.miss_penalty_ns[1] > light.miss_penalty_ns[1]

    def test_mix_length_mismatch_rejected(self, memsys):
        with pytest.raises(ValueError):
            memsys.solve({1: 1e9}, {1: 0}, {1: np.array([1.0])})

    def test_negative_traffic_rejected(self, memsys):
        with pytest.raises(ValueError):
            memsys.solve({1: -1.0}, {1: 0}, {1: np.array([1.0, 0.0])})

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=1e6, max_value=5e9),
    )
    def test_penalty_between_local_and_contended_remote(self, remote_frac, traffic):
        memsys = MemorySystem(xeon_e5620())
        mix = np.array([1.0 - remote_frac, remote_frac])
        costs = memsys.solve({1: traffic}, {1: 0}, {1: mix})
        lat = memsys.latency
        lower = lat.local_dram_ns
        upper = (lat.local_dram_ns + lat.remote_extra_ns) * 8.0
        assert lower - 1e-9 <= costs.miss_penalty_ns[1] <= upper + 1e-9
