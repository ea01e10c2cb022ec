"""Schedule shapes: validation, the factory functions, grouped windows,
and the fraction table the engines read."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealdp import schedules
from annealdp.schedules import (
    AnnealSchedule,
    forward_schedule,
    fraction_table,
    grouped_cycle_schedule,
)


class TestValidation:
    def test_fraction_above_one_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            AnnealSchedule(10.0, ((0.0, 0.0), (10.0, 1.2)))

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            AnnealSchedule(10.0, ((0.0, -0.1), (10.0, 1.0)))

    def test_time_beyond_total_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            AnnealSchedule(10.0, ((0.0, 0.0), (11.0, 1.0)))

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            AnnealSchedule(10.0, ((5.0, 0.0), (3.0, 1.0)))

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="at least one breakpoint"):
            AnnealSchedule(10.0, ())

    def test_negative_total_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AnnealSchedule(-1.0, ((0.0, 0.0),))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_breakpoint_time_rejected(self, t):
        # NaN fails every comparison, so it once passed every check
        with pytest.raises(ValueError, match="outside"):
            AnnealSchedule(10.0, ((0.0, 0.0), (t, 0.5), (10.0, 1.0)))
        with pytest.raises(ValueError, match="outside"):
            AnnealSchedule(10.0, ((0.0, 0.0), (10.0, 1.0)), variable_paths={0: ((t, 1.0),)})

    @pytest.mark.parametrize("total", [math.nan, math.inf])
    def test_non_finite_total_time_rejected(self, total):
        with pytest.raises(ValueError, match="finite"):
            AnnealSchedule(total, ((0.0, 0.0),))

    def test_reversal_target_range(self):
        # the target is a fraction of every dipping path
        with pytest.raises(ValueError, match="fraction 1.5 outside"):
            grouped_cycle_schedule(10.0, [(0,)], reversal_target=1.5)

    def test_cycles_minimum(self):
        with pytest.raises(ValueError, match="cycles"):
            AnnealSchedule(10.0, ((0.0, 0.0), (10.0, 1.0)), cycles=0)

    def test_variable_paths_validated_too(self):
        with pytest.raises(ValueError, match="variable 3"):
            AnnealSchedule(
                10.0,
                ((0.0, 0.0), (10.0, 1.0)),
                variable_paths={3: ((0.0, 2.0),)},
            )


class TestShapes:
    def test_forward_endpoints_and_midpoint(self):
        sched = forward_schedule(20.0)
        assert sched.s_at(0.0) == 0.0
        assert sched.s_at(10.0) == pytest.approx(0.5)
        assert sched.s_at(20.0) == 1.0
        assert not sched.needs_initial_state(4)

    def test_variable_override_and_min_fraction(self):
        sched = AnnealSchedule(
            10.0,
            ((0.0, 1.0), (10.0, 1.0)),
            variable_paths={1: ((0.0, 1.0), (5.0, 0.0), (10.0, 1.0))},
        )
        assert sched.s_at(5.0) == 1.0
        assert sched.s_at(5.0, var=0) == 1.0
        assert sched.s_at(5.0, var=1) == 0.0

    def test_interp_clamps_outside_path(self):
        sched = AnnealSchedule(10.0, ((2.0, 0.4), (8.0, 0.8)))
        assert sched.s_at(0.0) == 0.4
        assert sched.s_at(10.0) == 0.8


class TestGroupedWindows:
    def test_alternating_window_structure(self):
        # groups of one variable each, C=2: four windows of width 12
        sched = grouped_cycle_schedule(48.0, [(0,), (1,)], cycles=2, down_fraction=0.25)
        assert sched.total_time == 48.0
        assert sched.cycles == 2
        # window w dips group w % 2; the low point sits at start + 3
        for w, owner in enumerate((0, 1, 0, 1)):
            low_t = w * 12.0 + 3.0
            assert sched.s_at(low_t, var=owner) == pytest.approx(0.0)
            assert sched.s_at(low_t, var=1 - owner) == 1.0
        # global path never moves
        assert sched.s_at(17.3) == 1.0

    def test_always_active_dips_every_window(self):
        sched = grouped_cycle_schedule(
            48.0, [(0,), (1,)], cycles=2, always_active=(5,), down_fraction=0.25
        )
        for w in range(4):
            assert sched.s_at(w * 12.0 + 3.0, var=5) == pytest.approx(0.0)

    def test_partial_reversal_and_hold(self):
        sched = grouped_cycle_schedule(
            40.0, [(0,), (1,)], reversal_target=0.4,
            down_fraction=0.1, hold_fraction=0.3,
        )
        # width 20: drop to t=2, plateau through t=8, then rise
        assert sched.s_at(2.0, var=0) == pytest.approx(0.4)
        assert sched.s_at(5.0, var=0) == pytest.approx(0.4)
        assert sched.s_at(8.0, var=0) == pytest.approx(0.4)
        assert sched.s_at(14.0, var=0) == pytest.approx(0.7)

    def test_grouped_needs_initial_state(self):
        sched = grouped_cycle_schedule(16.0, [(0,), (1,)])
        assert sched.needs_initial_state(2)

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="more than one group"):
            grouped_cycle_schedule(16.0, [(0, 1), (1, 2)])

    def test_always_active_cannot_be_grouped(self):
        with pytest.raises(ValueError, match="always_active"):
            grouped_cycle_schedule(16.0, [(0,), (1,)], always_active=(1,))

    def test_down_fraction_range(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="down_fraction"):
                grouped_cycle_schedule(16.0, [(0,)], down_fraction=bad)

    def test_hold_fraction_range(self):
        with pytest.raises(ValueError, match="hold_fraction"):
            grouped_cycle_schedule(16.0, [(0,)], down_fraction=0.3, hold_fraction=0.8)

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError, match="at least one group"):
            grouped_cycle_schedule(16.0, [])


class TestSharedPaths:
    """A grouped schedule builds one path per group and one for the
    always-active variables, each shared by its variables, and freezes and
    validates each distinct path once."""

    def grouped(self, cycles):
        return grouped_cycle_schedule(
            30.0, [(0, 3), (1,), (2, 5)], cycles=cycles, reversal_target=0.2,
            always_active=(6, 4), down_fraction=0.3, hold_fraction=0.1)

    @pytest.mark.parametrize("cycles", [1, 3])
    def test_one_path_object_per_group(self, cycles):
        paths = self.grouped(cycles).variable_paths
        assert paths[0] is paths[3] and paths[2] is paths[5] and paths[6] is paths[4]
        assert len({id(p) for p in paths.values()}) == 4

    @pytest.mark.parametrize("cycles", [1, 3])
    def test_same_table_as_per_variable_copies(self, cycles):
        sched = self.grouped(cycles)
        copies = AnnealSchedule(
            sched.total_time, sched.breakpoints,
            {v: [list(pt) for pt in p] for v, p in sched.variable_paths.items()},
            cycles=sched.cycles)
        assert copies.variable_paths == sched.variable_paths
        assert copies.variable_paths[0] is not copies.variable_paths[3]
        times = np.linspace(-1.0, 31.0, 203).tolist() + [t for p in sched.variable_paths.values()
                                                           for t, _ in p]
        want = fraction_table(copies, times, 8)
        assert fraction_table(sched, times, 8).tobytes() == want.tobytes()

    def test_each_distinct_path_validated_once(self):
        with mock.patch.object(schedules, "_validate_path",
                               side_effect=schedules._validate_path) as check:
            self.grouped(3)
        # the global path, three groups and the always-active path
        assert check.call_count == 5

    def test_shared_invalid_path_names_its_first_variable(self):
        bad = ((0.0, 1.0), (5.0, 1.5))
        with pytest.raises(ValueError, match="path of variable 7: fraction 1.5"):
            AnnealSchedule(10.0, ((0.0, 0.0), (10.0, 1.0)),
                           variable_paths={7: bad, 2: bad, 4: ((0.0, 2.0),)})


class TestFractionTable:
    def cases(self):
        sched = grouped_cycle_schedule(
            30.0, [(0, 3), (1,), (2, 5)], cycles=2, reversal_target=0.2,
            always_active=(6,), down_fraction=0.3, hold_fraction=0.1)
        # each variable holds its own copy of its group's path
        copies = dataclasses.replace(sched, variable_paths={
            v: tuple(list(p)) for v, p in sched.variable_paths.items()})
        assert copies.variable_paths[0] == copies.variable_paths[3]
        assert copies.variable_paths[0] is not copies.variable_paths[3]
        # a reverse anneal with a hold plateau on the global path
        reverse = AnnealSchedule(
            9.0, ((0.0, 1.0), (2.7, 0.3), (6.3, 0.3), (9.0, 1.0)))
        override = AnnealSchedule(
            10.0, ((0.0, 0.0), (10.0, 1.0)), variable_paths={1: ((0.0, 1.0), (10.0, 0.5))})
        return [
            (forward_schedule(12.0), 4),
            (reverse, 3),
            (override, 3),
            (sched, 8),  # variable 7 follows the global path
            (copies, 8),
        ]

    def test_equals_s_at_everywhere(self):
        for sched, n in self.cases():
            sweeps = 37
            times = [(k + 0.5) * sched.total_time / sweeps for k in range(sweeps)] + [0.0, sched.total_time]
            table = fraction_table(sched, times, n)
            assert table.shape == (len(times), n)
            for r, t in enumerate(times):
                for v in range(n):
                    assert table[r, v] == sched.s_at(t, v), (sched, t, v)

    def test_each_distinct_path_evaluated_once_per_table(self):
        # groups (0,3) (1,) (2,5), always (6,), and the global path
        copies = self.cases()[-1][0]
        with mock.patch.object(schedules, "_interp_all", side_effect=schedules._interp_all) as interp:
            fraction_table(copies, [0.5, 1.5, 2.5], 8)
        assert interp.call_count == 5

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_s_at_bit_for_bit(self, data):
        # breakpoint times from a small grid, so paths repeat times (steps
        # and holds at one instant); -0.0 fractions too, since a path equal
        # by value to one holding 0.0 shares its column
        total = data.draw(st.sampled_from([1.0, 3.0, 40.0]))
        grid = st.sampled_from([0.0, 0.1, 0.5, 1.0 / 3.0, 0.75, 1.0])
        fraction = st.one_of(st.floats(0.0, 1.0), st.just(-0.0))

        def path():
            ts = sorted(data.draw(st.lists(grid, min_size=1, max_size=6)))
            return tuple((total * t, data.draw(fraction)) for t in ts)

        n = data.draw(st.integers(1, 5))
        own = data.draw(st.sets(st.integers(0, n - 1)))
        sched = AnnealSchedule(total, path(), {v: path() for v in own} or None)
        knots = {t for p in [sched.breakpoints, *(sched.variable_paths or {}).values()] for t, _ in p}
        times = [-1.0, total + 1.0, *data.draw(st.lists(st.floats(0.0, total), max_size=8))]
        for t in knots:
            times += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
        want = np.array([[sched.s_at(t, v) for v in range(n)] for t in times])
        assert fraction_table(sched, times, n).tobytes() == want.tobytes()

    def test_no_variables_or_times(self):
        sched = forward_schedule(4.0)
        assert fraction_table(sched, [1.0, 2.0], 0).shape == (2, 0)
        assert fraction_table(sched, [], 3).shape == (0, 3)
