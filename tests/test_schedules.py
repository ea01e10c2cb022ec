"""Schedule shapes: validation, the factory functions, grouped windows,
CSV round-trips, and the fraction table the engines read."""

import math
from unittest import mock

import pytest

from annealdp.bqm import ParseError
from annealdp.schedules import (
    AnnealSchedule,
    forward_schedule,
    fraction_table,
    grouped_cycle_schedule,
    read_schedule_csv,
    reverse_schedule,
    write_schedule_csv,
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
        with pytest.raises(ValueError, match="reversal_target"):
            AnnealSchedule(10.0, ((0.0, 0.0), (10.0, 1.0)), reversal_target=1.5)

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

    def test_reverse_dips_to_target(self):
        sched = reverse_schedule(20.0, reversal_target=0.3)
        assert sched.s_at(0.0) == 1.0
        assert sched.s_at(10.0) == pytest.approx(0.3)
        assert sched.s_at(20.0) == 1.0
        assert sched.needs_initial_state(1)

    def test_reverse_hold_plateau(self):
        sched = reverse_schedule(20.0, reversal_target=0.2, hold=0.5)
        # bottom occupies the middle half: [5, 15]
        for t in (5.0, 8.0, 10.0, 12.0, 15.0):
            assert sched.s_at(t) == pytest.approx(0.2)
        assert sched.s_at(0.0) == 1.0 and sched.s_at(20.0) == 1.0

    def test_reverse_hold_range(self):
        with pytest.raises(ValueError, match="hold"):
            reverse_schedule(20.0, hold=1.0)

    def test_variable_override_and_min_fraction(self):
        sched = AnnealSchedule(
            10.0,
            ((0.0, 1.0), (10.0, 1.0)),
            variable_paths={1: ((0.0, 1.0), (5.0, 0.0), (10.0, 1.0))},
        )
        assert sched.s_at(5.0) == 1.0
        assert sched.s_at(5.0, var=0) == 1.0
        assert sched.s_at(5.0, var=1) == 0.0
        assert sched.min_fraction_at(5.0) == 0.0
        assert sched.min_fraction_at(0.0) == 1.0

    def test_interp_clamps_outside_path(self):
        sched = AnnealSchedule(10.0, ((2.0, 0.4), (8.0, 0.8)))
        assert sched.s_at(0.0) == 0.4
        assert sched.s_at(10.0) == 0.8


class TestGroupedWindows:
    def test_alternating_window_structure(self):
        # groups of one variable each, C=2: four windows of width 12
        gs = grouped_cycle_schedule(48.0, [(0,), (1,)], cycles=2, down_fraction=0.25)
        sched = gs.schedule
        assert gs.total_time == 48.0
        assert sched.cycles == 2
        # window w dips group w % 2; the low point sits at start + 3
        for w, owner in enumerate((0, 1, 0, 1)):
            low_t = w * 12.0 + 3.0
            assert sched.s_at(low_t, var=owner) == pytest.approx(0.0)
            assert sched.s_at(low_t, var=1 - owner) == 1.0
        # global path never moves
        assert sched.s_at(17.3) == 1.0

    def test_always_active_dips_every_window(self):
        gs = grouped_cycle_schedule(
            48.0, [(0,), (1,)], cycles=2, always_active=(5,), down_fraction=0.25
        )
        for w in range(4):
            assert gs.schedule.s_at(w * 12.0 + 3.0, var=5) == pytest.approx(0.0)

    def test_partial_reversal_and_hold(self):
        gs = grouped_cycle_schedule(
            40.0, [(0,), (1,)], reversal_target=0.4,
            down_fraction=0.1, hold_fraction=0.3,
        )
        sched = gs.schedule
        # width 20: drop to t=2, plateau through t=8, then rise
        assert sched.s_at(2.0, var=0) == pytest.approx(0.4)
        assert sched.s_at(5.0, var=0) == pytest.approx(0.4)
        assert sched.s_at(8.0, var=0) == pytest.approx(0.4)
        assert sched.s_at(14.0, var=0) == pytest.approx(0.7)

    def test_grouped_needs_initial_state(self):
        gs = grouped_cycle_schedule(16.0, [(0,), (1,)])
        assert gs.schedule.needs_initial_state(2)

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


class TestCsvRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        gs = grouped_cycle_schedule(
            32.0, [(0, 2), (1, 3)], cycles=2, reversal_target=0.25,
            always_active=(4, 5), reinitialize=False, down_fraction=0.5,
        )
        path = str(tmp_path / "sched.csv")
        write_schedule_csv(gs, path)
        back = read_schedule_csv(path)
        assert back.groups == gs.groups
        assert back.always_active == gs.always_active
        assert back.schedule == gs.schedule

    def test_round_trip_keeps_group_order_past_ten(self, tmp_path):
        gs = grouped_cycle_schedule(48.0, [(k,) for k in range(12)], always_active=(12,))
        path = str(tmp_path / "sched.csv")
        write_schedule_csv(gs, path)
        back = read_schedule_csv(path)
        assert back.groups == gs.groups
        assert back.schedule == gs.schedule

    def test_group_name_must_be_an_index(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# total_time_us=10.0\n# group first: 0 1\ntime_us,group,fraction\n")
        with pytest.raises(ParseError, match="bad group line") as exc:
            read_schedule_csv(str(p))
        assert exc.value.lineno == 2

    def test_missing_total_time_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time_us,group,fraction\n0.0,global,1.0\n")
        with pytest.raises(ParseError, match="total_time_us"):
            read_schedule_csv(str(p))

    def test_malformed_row_has_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "# total_time_us=10.0\ntime_us,group,fraction\n0.0,global\n"
        )
        with pytest.raises(ParseError) as exc:
            read_schedule_csv(str(p))
        assert exc.value.lineno == 3

    def test_unparseable_number_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "# total_time_us=10.0\ntime_us,group,fraction\nzero,global,1.0\n"
        )
        with pytest.raises(ParseError, match="bad row"):
            read_schedule_csv(str(p))

    @pytest.mark.parametrize("row", ["nan,global,0.5", "inf,global,0.5"])
    def test_non_finite_time_is_a_parse_error(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(
            f"# total_time_us=10.0\ntime_us,group,fraction\n0.0,global,0.0\n{row}\n"
            "10.0,global,1.0\n"
        )
        with pytest.raises(ParseError, match="outside"):
            read_schedule_csv(str(p))

    @pytest.mark.parametrize("header", ["total_time_us=nan", "total_time_us=10.0 cycles=inf",
                                        "total_time_us=ten"])
    def test_bad_header_value_is_a_parse_error(self, tmp_path, header):
        p = tmp_path / "bad.csv"
        p.write_text(f"# {header}\ntime_us,group,fraction\n0.0,global,1.0\n")
        with pytest.raises(ParseError):
            read_schedule_csv(str(p))


class TestFractionTable:
    def cases(self, tmp_path):
        gs = grouped_cycle_schedule(
            30.0, [(0, 3), (1,), (2, 5)], cycles=2, reversal_target=0.2,
            always_active=(6,), down_fraction=0.3, hold_fraction=0.1)
        path = str(tmp_path / "sched.csv")
        write_schedule_csv(gs, path)
        back = read_schedule_csv(path).schedule
        # the reader gives each variable its own copy of its group's path
        assert back.variable_paths[0] == back.variable_paths[3]
        assert back.variable_paths[0] is not back.variable_paths[3]
        override = AnnealSchedule(
            10.0, ((0.0, 0.0), (10.0, 1.0)), variable_paths={1: ((0.0, 1.0), (10.0, 0.5))})
        return [
            (forward_schedule(12.0), 4),
            (reverse_schedule(9.0, 0.3, hold=0.4), 3),
            (override, 3),
            (gs.schedule, 8),  # variable 7 follows the global path
            (back, 8),
        ]

    def test_equals_s_at_everywhere(self, tmp_path):
        for sched, n in self.cases(tmp_path):
            sweeps = 37
            times = [(k + 0.5) * sched.total_time / sweeps for k in range(sweeps)] + [0.0, sched.total_time]
            table = fraction_table(sched, times, n)
            assert table.shape == (len(times), n)
            for r, t in enumerate(times):
                for v in range(n):
                    assert table[r, v] == sched.s_at(t, v), (sched, t, v)

    def test_one_s_at_call_per_distinct_path(self, tmp_path):
        # groups (0,3) (1,) (2,5), always (6,), and the global path
        back = self.cases(tmp_path)[-1][0]
        with mock.patch.object(AnnealSchedule, "s_at", autospec=True,
                               side_effect=AnnealSchedule.s_at) as s_at:
            fraction_table(back, [0.5, 1.5, 2.5], 8)
        assert s_at.call_count == 5 * 3

    def test_no_variables_or_times(self):
        sched = forward_schedule(4.0)
        assert fraction_table(sched, [1.0, 2.0], 0).shape == (2, 0)
        assert fraction_table(sched, [], 3).shape == (0, 3)
