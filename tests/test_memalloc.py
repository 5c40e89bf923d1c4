"""Tests for repro.xen.memalloc: placement policies, drift, migration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.xen.memalloc import (
    MemoryPlacement,
    place_interleaved,
    place_single_node,
    place_split,
    place_weighted,
)


class TestConstruction:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MemoryPlacement(np.array([[0.5, 0.4]]))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            MemoryPlacement(np.array([[1.5, -0.5]]))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            MemoryPlacement(np.array([1.0]))


class TestPolicies:
    def test_split_stripes_slices(self):
        placement = place_split(4, 2)
        assert placement.home_node(0) == 0
        assert placement.home_node(1) == 1
        assert placement.home_node(2) == 0
        assert placement.home_node(3) == 1

    def test_split_overall_mix_even(self):
        mix = place_split(4, 2).overall_mix()
        assert mix == pytest.approx([0.5, 0.5])

    def test_single_node_concentrates(self):
        placement = place_single_node(3, 2, node=1)
        for s in range(3):
            assert placement.slice_mix(s)[1] == 1.0

    def test_interleave_uniform(self):
        placement = place_interleaved(2, 4)
        assert placement.slice_mix(0) == pytest.approx([0.25] * 4)

    def test_weighted_normalises(self):
        placement = place_weighted([[2.0, 2.0], [1.0, 3.0]])
        assert placement.slice_mix(0) == pytest.approx([0.5, 0.5])
        assert placement.slice_mix(1) == pytest.approx([0.25, 0.75])

    def test_weighted_rejects_zero_row(self):
        with pytest.raises(ValueError):
            place_weighted([[0.0, 0.0]])


class TestPageMix:
    def test_full_concentration_is_slice_mix(self):
        placement = place_split(4, 2)
        assert placement.page_mix(0, 1.0) == pytest.approx([1.0, 0.0])

    def test_zero_concentration_is_overall_mix(self):
        placement = place_split(4, 2)
        assert placement.page_mix(0, 0.0) == pytest.approx([0.5, 0.5])

    def test_blend(self):
        placement = place_split(2, 2)
        mix = placement.page_mix(0, 0.8)
        assert mix[0] == pytest.approx(0.8 * 1.0 + 0.2 * 0.5)

    @given(st.floats(min_value=0, max_value=1))
    def test_page_mix_always_a_distribution(self, conc):
        placement = place_split(4, 2)
        mix = placement.page_mix(1, conc)
        assert sum(mix) == pytest.approx(1.0)
        assert all(share >= 0 for share in mix)


class TestDrift:
    def test_drift_moves_toward_node(self):
        placement = place_single_node(1, 2, node=0)
        placement.drift_slice(0, toward_node=1, amount=0.5)
        assert placement.slice_mix(0) == pytest.approx([0.5, 0.5])

    def test_drift_preserves_distribution(self):
        placement = place_split(2, 2)
        for _ in range(10):
            placement.drift_slice(0, 1, 0.1)
        assert sum(placement.slice_mix(0)) == pytest.approx(1.0)

    def test_zero_drift_noop(self):
        placement = place_split(2, 2)
        before = placement.slice_mix(0)
        placement.drift_slice(0, 1, 0.0)
        assert placement.slice_mix(0) == pytest.approx(before)

    def test_repeated_drift_converges(self):
        placement = place_single_node(1, 2, node=0)
        for _ in range(200):
            placement.drift_slice(0, 1, 0.05)
        assert placement.slice_mix(0)[1] > 0.99


class TestMigration:
    def test_migrate_slice_moves_fraction(self):
        placement = place_single_node(1, 2, node=0)
        moved = placement.migrate_slice(0, to_node=1, fraction=0.4, slice_bytes=100.0)
        assert moved == pytest.approx(40.0)
        assert placement.slice_mix(0)[1] == pytest.approx(0.4)

    def test_migrating_to_home_is_free(self):
        placement = place_single_node(1, 2, node=0)
        moved = placement.migrate_slice(0, to_node=0, fraction=0.4, slice_bytes=100.0)
        assert moved == pytest.approx(0.0)

    def test_rows_stay_normalised(self):
        placement = place_interleaved(1, 3)
        placement.migrate_slice(0, 2, 0.7, 10.0)
        assert sum(placement.slice_mix(0)) == pytest.approx(1.0)


class _NdarrayPlacement:
    """The ndarray arithmetic ``MemoryPlacement`` kept before its rows
    became plain lists, transcribed as the oracle for bitwise parity."""

    def __init__(self, slice_nodes):
        self.matrix = np.clip(np.asarray(slice_nodes, dtype=float), 0.0, None)
        self.overall = self.matrix.mean(axis=0)

    def page_mix(self, slice_id, concentration):
        mix = (
            concentration * self.matrix[slice_id]
            + (1.0 - concentration) * self.overall
        )
        return mix / mix.sum()

    def home_node(self, slice_id):
        return int(np.argmax(self.matrix[slice_id]))

    def drift_slice(self, slice_id, toward_node, amount):
        if amount <= 0.0:
            return
        row = self.matrix[slice_id]
        before = row.copy()
        row *= 1.0 - amount
        row[toward_node] += amount
        self.overall += (row - before) / self.matrix.shape[0]

    def migrate_slice(self, slice_id, to_node, fraction, slice_bytes):
        row = self.matrix[slice_id]
        moved_fraction = fraction * (1.0 - row[to_node])
        before = row.copy()
        row *= 1.0 - fraction
        row[to_node] += fraction
        row /= row.sum()
        self.overall += (row - before) / self.matrix.shape[0]
        return moved_fraction * slice_bytes


class TestListArithmeticIsBitwise:
    """Drift, migration and page mixes match the ndarray code exactly.

    Every node sum in ``MemoryPlacement`` runs left to right from 0.0,
    numpy's order below eight elements; a compensated sum (builtin
    ``sum`` on Python 3.12, ``math.fsum``) moves bits on three or more
    nodes, which exact equality here catches.
    """

    @pytest.mark.parametrize("num_nodes", [2, 3, 4])
    def test_scripted_sequence_matches_ndarray_code(self, num_nodes):
        rng = np.random.default_rng(num_nodes)
        num_slices = 5
        weights = rng.random((num_slices, num_nodes)) + 0.05
        start = weights / weights.sum(axis=1, keepdims=True)
        placement = MemoryPlacement(start)
        oracle = _NdarrayPlacement(start)
        rows = placement.rows
        overall = placement.overall
        for step in range(400):
            slice_id = int(rng.integers(num_slices))
            node = int(rng.integers(num_nodes))
            op = step % 4
            if op == 3:
                fraction = float(rng.random())
                moved = placement.migrate_slice(slice_id, node, fraction, 3e9)
                assert moved == oracle.migrate_slice(slice_id, node, fraction, 3e9)
            else:
                amount = float(rng.random()) * 0.2 if op else 0.0
                placement.drift_slice(slice_id, node, amount)
                oracle.drift_slice(slice_id, node, amount)
            conc = float(rng.random())
            assert placement.page_mix(slice_id, conc) == (
                oracle.page_mix(slice_id, conc).tolist()
            )
            assert placement.home_node(slice_id) == oracle.home_node(slice_id)
            assert placement.rows == oracle.matrix.tolist()
            assert placement.overall == oracle.overall.tolist()
        # Mutations write into the same list objects readers hold.
        assert placement.rows is rows and placement.overall is overall
        assert all(a is b for a, b in zip(placement.rows, rows))

    def test_home_node_takes_the_first_maximum(self):
        placement = place_weighted([[1.0, 2.0, 2.0, 1.0]])
        assert placement.home_node(0) == 1
