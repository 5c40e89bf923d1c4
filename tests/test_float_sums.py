"""Float sums that give the same bits on every Python version.

From Python 3.12 the builtin ``sum`` of floats is compensated, so it
can differ in the last bit from the left-to-right loop earlier versions
run.  Result-defining sums therefore add left to right from 0.0.  The
inputs here separate the two kinds of sum: left to right, each ``1e-16``
is lost against ``1.0``; a compensated (or exact) sum keeps them.
"""

import math

from repro.experiments.fig9_faults import _seed_mean
from repro.experiments.scenarios import ScenarioConfig, make_scheduler, solo_scenario
from repro.hardware.cache import waterfill_shares
from repro.metrics.collectors import MachineStats

VALUES = [1.0, 1e-16, 1e-16]


def test_the_inputs_separate_the_two_kinds_of_sum():
    left_to_right = 0.0
    for value in VALUES:
        left_to_right += value
    assert left_to_right == 1.0
    assert math.fsum(VALUES) != 1.0


def test_waterfill_total_weight_adds_left_to_right():
    # Uncapped items split the capacity by weight / total weight.
    allocs = waterfill_shares(3.0, VALUES, [10.0, 10.0, 10.0])
    assert allocs[0] == 3.0


def test_overhead_totals_add_left_to_right():
    overhead = dict(zip("abc", VALUES))
    stats = MachineStats(0.0, 0.0, 0, 0, 0, 0, 0, overhead_s=overhead)
    assert stats.total_overhead_s == 1.0
    machine = solo_scenario("lu", make_scheduler("credit"), ScenarioConfig())
    machine.overhead_s = overhead
    assert machine.total_overhead_s == 1.0


def test_fig9_seed_means_add_left_to_right():
    assert _seed_mean(VALUES) == 1.0 / 3
    assert _seed_mean([3, 0, 0]) == 1.0
