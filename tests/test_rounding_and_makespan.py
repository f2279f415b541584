"""Tests for the rounding policy and the makespan view."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fifo import optimal_fifo_schedule
from repro.core.makespan import makespan_for_load, predicted_makespan, schedule_for_total_load
from repro.core.platform import StarPlatform, Worker
from repro.core.rounding import integer_load_schedule, round_loads, round_values
from repro.core.schedule import fifo_schedule
from repro.exceptions import ScheduleError


class TestRoundLoads:
    def test_paper_example(self):
        """The worked example of Section 5: M=1000, K=2 extra tasks to P1, P2."""
        loads = {"P1": 200.4, "P2": 300.2, "P3": 139.8, "P4": 359.6}
        sigma1 = ["P1", "P2", "P3", "P4"]
        rounded = round_loads(loads, sigma1, 1000)
        assert rounded == {"P1": 201, "P2": 301, "P3": 139, "P4": 359}
        assert sum(rounded.values()) == 1000

    def test_exact_integers_are_unchanged(self):
        loads = {"A": 3.0, "B": 7.0}
        assert round_loads(loads, ["A", "B"], 10) == {"A": 3, "B": 7}

    def test_rescales_when_total_differs(self):
        loads = {"A": 1.0, "B": 1.0}
        rounded = round_loads(loads, ["A", "B"], 7)
        assert sum(rounded.values()) == 7
        assert abs(rounded["A"] - rounded["B"]) <= 1

    def test_zero_total(self):
        assert round_loads({"A": 1.0}, ["A"], 0) == {"A": 0}

    def test_extra_units_follow_sigma1_order(self):
        loads = {"A": 0.5, "B": 0.5, "C": 2.0}
        rounded = round_loads(loads, ["C", "B", "A"], 3)
        # floor gives C=2, B=0, A=0; the single leftover goes to C (first in sigma1)
        assert rounded == {"C": 3, "B": 0, "A": 0}

    def test_validation(self):
        with pytest.raises(ScheduleError):
            round_loads({"A": 1.0}, [], 1)
        with pytest.raises(ScheduleError):
            round_loads({"A": 1.0}, ["B"], 1)
        with pytest.raises(ScheduleError):
            round_loads({"A": -1.0}, ["A"], 1)
        with pytest.raises(ScheduleError):
            round_loads({"A": 1.0}, ["A"], -1)
        with pytest.raises(ScheduleError):
            round_loads({"A": 0.0}, ["A"], 5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=2000),
    )
    def test_rounded_totals_are_exact(self, values, total):
        names = [f"P{i}" for i in range(len(values))]
        loads = dict(zip(names, values))
        if sum(values) <= 0:
            loads[names[0]] = 1.0
        rounded = round_loads(loads, names, total)
        assert sum(rounded.values()) == total
        assert all(value >= 0 for value in rounded.values())

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=2000),
    )
    def test_rounding_moves_each_load_by_less_than_one_unit_after_scaling(self, values, total):
        names = [f"P{i}" for i in range(len(values))]
        loads = dict(zip(names, values))
        rounded = round_loads(loads, names, total)
        scale = total / sum(values)
        for name in names:
            assert abs(rounded[name] - loads[name] * scale) <= 1.0 + 1e-6


def scalar_round_values(values, total, tol=1e-6):
    """The scalar rounding the row-wise ``round_values`` replaced, verbatim."""
    if total < 0:
        raise ScheduleError("total must be non-negative")
    if not values:
        raise ScheduleError("sigma1 must not be empty")
    if total == 0:
        return [0] * len(values)
    current_total = sum(values)
    if current_total <= 0:
        raise ScheduleError("cannot round an all-zero load assignment to a positive total")

    if not math.isclose(current_total, total, rel_tol=tol, abs_tol=tol):
        scale = total / current_total
        values = [value * scale for value in values]

    # Degenerate inputs (e.g. a vanishingly small total load) can overflow the
    # rescaling; fall back to an even distribution through the leftover loop.
    if any(not math.isfinite(value) for value in values):
        values = [0.0] * len(values)

    floor = math.floor
    counts = [int(floor(value + tol)) for value in values]
    leftover = total - sum(counts)
    if leftover < 0:
        # Floating-point slack pushed a floor one unit too high; shave the
        # excess from the end of the permutation (largest indices first).
        for index in range(len(counts) - 1, -1, -1):
            while leftover < 0 and counts[index] > 0:
                counts[index] -= 1
                leftover += 1
    # Paper policy: one extra unit to each of the first `leftover` workers of
    # the sending permutation.
    index = 0
    while leftover > 0:
        counts[index % len(counts)] += 1
        leftover -= 1
        index += 1
    return counts


def assert_matches_scalar(rows, total, tol=1e-6):
    """Row-wise rounding equals the scalar rounding of every row, or both raise."""
    expected = []
    for row in rows:
        try:
            expected.append(scalar_round_values(row, total, tol))
        except ScheduleError:
            with pytest.raises(ScheduleError):
                round_values(rows, total, tol)
            return None
    counts = round_values(rows, total, tol)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected
    return expected


#: Loads that tie, vanish, sit just below an integer or overflow a rescale.
_LOADS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 2.9999995, 0.6, 1e-300, 5e-324]),
    st.floats(min_value=-1.0, max_value=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def load_matrices(draw):
    q = draw(st.integers(min_value=1, max_value=7))
    total = draw(st.integers(min_value=0, max_value=60))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        row = draw(st.lists(_LOADS, min_size=q, max_size=q))
        branch = draw(st.integers(min_value=0, max_value=9))
        if branch < 5 and sum(row) > 0:
            # Already summing to the total: the no-rescale branch.
            scale = total / sum(row)
            row = [value * scale for value in row]
        elif branch < 7:
            # Tied shares of the total: with a coarse tol every floor can
            # round up, and the overshoot is shaved across several workers.
            row = [total / q] * q
        elif branch == 9:
            row[draw(st.integers(min_value=0, max_value=q - 1))] = draw(
                st.sampled_from([math.inf, math.nan])
            )
        rows.append(row)
    return rows, total, draw(st.sampled_from([1e-6, 1e-6, 0.3, 0.45]))


class TestRowWiseRounding:
    """``round_values`` rounds every row exactly like the scalar policy."""

    @settings(max_examples=400, deadline=None)
    @given(load_matrices())
    def test_matches_scalar_oracle(self, case):
        rows, total, tol = case
        assert_matches_scalar(rows, total, tol)

    @pytest.mark.parametrize(
        "rows, total, tol, expected",
        [
            # Tied and zero loads: leftovers go to the front of sigma1.
            ([[1.0, 1.0, 0.0, 1.0]], 4, 1e-6, [[2, 1, 0, 1]]),
            # Rescale branch: the paper's worked example at unit scale.
            ([[0.2004, 0.3002, 0.1398, 0.3596]], 1000, 1e-6, [[201, 301, 139, 359]]),
            # Overshoot shaved across three workers from the end, skipping a zero.
            ([[0.6, 0.6, 0.6, 0.6, 0.6, 0.0]], 2, 0.45, [[1, 1, 0, 0, 0, 0]]),
            # Leftover > q after the non-finite fallback: dealt round after round.
            ([[5e-324, 0.0, 0.0]], 10, 1e-6, [[4, 3, 3]]),
            # Non-finite input, rescaled away to the same fallback.
            ([[math.inf, 1.0], [math.nan, 1.0]], 5, 1e-6, [[3, 2], [3, 2]]),
            # Total 0 wins over every other branch, even an all-zero row.
            ([[0.0, 0.0], [1.0, 3.0]], 0, 1e-6, [[0, 0], [0, 0]]),
            # q = 1.
            ([[0.3], [7.0]], 7, 1e-6, [[7], [7]]),
            # Rows taking different branches within one call.
            (
                [[3.0, 4.0], [1.0, 1.0], [5e-324, 0.0], [0.6, 0.6]],
                7,
                0.45,
                [[3, 4], [4, 3], [4, 3], [4, 3]],
            ),
        ],
    )
    def test_branches(self, rows, total, tol, expected):
        assert assert_matches_scalar(rows, total, tol) == expected

    def test_all_zero_row_fails_the_whole_call(self):
        with pytest.raises(ScheduleError, match="all-zero"):
            round_values([[1.0, 2.0], [0.0, 0.0]], 3)
        with pytest.raises(ScheduleError, match="empty"):
            round_values([[]], 3)
        with pytest.raises(ScheduleError, match="non-negative"):
            round_values([[1.0]], -1)


class TestIntegerLoadSchedule:
    def test_round_trip_preserves_orders(self, three_workers):
        solution = optimal_fifo_schedule(three_workers)
        rounded = integer_load_schedule(solution.schedule.scaled_to_total_load(100), 100)
        assert rounded.sigma1 == solution.schedule.sigma1
        assert rounded.sigma2 == solution.schedule.sigma2
        assert rounded.total_load == pytest.approx(100)
        assert all(float(v).is_integer() for v in rounded.loads.values())

    def test_deadline_equals_eager_makespan(self, three_workers):
        solution = optimal_fifo_schedule(three_workers)
        rounded = integer_load_schedule(solution.schedule, 50)
        assert rounded.deadline == pytest.approx(rounded.makespan())

    def test_rejects_non_positive_total(self, three_workers):
        solution = optimal_fifo_schedule(three_workers)
        with pytest.raises(ScheduleError):
            integer_load_schedule(solution.schedule, 0)


class TestMakespanView:
    def test_makespan_for_load(self):
        assert makespan_for_load(2.0, 10.0) == pytest.approx(5.0)
        with pytest.raises(ScheduleError):
            makespan_for_load(0.0, 10.0)
        with pytest.raises(ScheduleError):
            makespan_for_load(1.0, -1.0)

    def test_predicted_makespan_matches_throughput(self, three_workers):
        solution = optimal_fifo_schedule(three_workers)
        predicted = predicted_makespan(solution.schedule, 500.0)
        assert predicted == pytest.approx(500.0 / solution.throughput)

    def test_predicted_makespan_requires_load(self, three_workers):
        empty = fifo_schedule(three_workers, {}, three_workers.worker_names)
        with pytest.raises(ScheduleError):
            predicted_makespan(empty, 10.0)

    def test_schedule_for_total_load(self, three_workers):
        solution = optimal_fifo_schedule(three_workers)
        scaled = schedule_for_total_load(solution.schedule, 250.0)
        assert scaled.total_load == pytest.approx(250.0)
        assert scaled.deadline == pytest.approx(predicted_makespan(solution.schedule, 250.0))
        scaled.verify()

    def test_makespan_consistency_with_simulation(self):
        """Predicted makespan equals the eager makespan for a tight schedule."""
        platform = StarPlatform(
            [Worker("P1", c=1.0, w=2.0, d=0.5), Worker("P2", c=0.5, w=3.0, d=0.25)]
        )
        solution = optimal_fifo_schedule(platform)
        scaled = schedule_for_total_load(solution.schedule, 20.0)
        assert scaled.makespan() == pytest.approx(scaled.deadline, rel=1e-7)
