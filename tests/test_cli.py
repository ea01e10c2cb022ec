"""End-to-end checks of the command-line interface.

Everything drives main(argv) in-process; one test exercises the
installed console entry point. Runs use small registers and few reads
so the whole module stays fast.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import tempfile
import warnings
import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealdp import cli, engines
from annealdp.cli import (
    ALGORITHMS,
    ENGINES,
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    RunConfig,
    build_parser,
    main,
    read_config_file,
    resolve_config,
)
from annealdp.pbf import Poly, read_poly, write_poly

TRUTH = (0.3135, -18.116633445402133, 1.4566642388929352)
ALG1_FIXED2 = (0.3112428489077642, -18.128433813540788, 1.4414371661060008)
COMB6 = (0.3118011784996823, -18.259284102452543, 1.3993152531097488)


def read_summary(path):
    with open(path, newline="") as fh:
        return {row["parameter"]: row for row in csv.DictReader(fh)}


def assert_csv_parses(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) >= 2
    width = len(rows[0])
    for row in rows[1:]:
        assert len(row) == width


def assert_svg_parses(path):
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nalgorithm = classical\n\nseed=7 # trailing\nj2 = 6\n")
        values = read_config_file(str(cfg))
        assert values == {"algorithm": "classical", "seed": 7, "j2": 6}

    def test_file_is_closed_after_reading(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            read_config_file(str(cfg))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jj2 = 6\n")
        rc = main(["solve", "--config", str(cfg)])
        assert rc == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_value_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = soon\n")
        assert main(["solve", "--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--s2", "--s3", "--anneal-time", "--bias"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_exits_2(self, tmp_path, flag, value):
        argv = ["solve", "--algorithm", "one-shot", "--reads", "2", f"{flag}={value}",
                "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert not any(tmp_path.iterdir())

    def test_missing_equals_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("classical\n")
        assert main(["solve", "--config", str(cfg)]) == EXIT_USAGE

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algorithm = one-shot\nseed = 3\n")
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(cfg), "--algorithm", "classical",
                   "--iterations", "1", "--out-dir", str(out)])
        assert rc == EXIT_OK
        text = (out / "classical_config.txt").read_text()
        assert "algorithm = classical" in text
        assert "seed = 3" in text  # file value survives where no flag given

    def test_bad_algorithm_exits_2(self, tmp_path):
        assert main(["solve", "--config", "/nonexistent.cfg"]) == EXIT_USAGE

    def test_validation_rejections(self):
        with pytest.raises(Exception):
            RunConfig(algorithm="annealer").validate()
        for bad in (
            RunConfig(keep_fraction=0.0),
            RunConfig(reversal=1.0),
            RunConfig(j1=0),
            RunConfig(executions=0),
            RunConfig(bias=-0.1),
            RunConfig(anneal_time=1.0),
            RunConfig(k_count=1),
            RunConfig(seed=-1),
        ):
            with pytest.raises(Exception):
                bad.validate()

    # the three configs that passed validation and exited 1
    @pytest.mark.parametrize("flags", [
        ("--algorithm", "hybrid", "--engine", "greedy", "--reads", "4", "--iterations", "2",
         "--s3=5e-324"),
        ("--algorithm", "hybrid", "--engine", "greedy", "--s2=1.7e308"),
        ("--algorithm", "one-shot", "--engine", "heuristic", "--s3=1e300"),
    ])
    def test_extreme_register_scale_exits_2(self, tmp_path, capsys, flags):
        assert main(["solve", *flags, "--out-dir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "must have magnitude in [1e-06, 1000]" in err
        assert not any(tmp_path.iterdir())

    SAMPLER_PAIRS = [("hybrid", "greedy"), ("hybrid", "heuristic"), ("hybrid", "statevector"),
                     ("multi-anneal", "greedy"), ("multi-anneal", "heuristic"),
                     ("one-shot", "greedy"), ("one-shot", "heuristic")]

    @pytest.mark.parametrize("algorithm,engine", SAMPLER_PAIRS)
    def test_register_scales_give_documented_exits(self, tmp_path, algorithm, engine):
        # extremes, the edges of the accepted range and just outside it
        codes = set()
        for flag in ("--s2", "--s3"):
            for v in (5e-324, 1e-300, 1e-13, 9.9e-7, 1e-6, 1e3, 1.01e3, 1e300, 1.7e308):
                for value in (v, -v):
                    rc = main(["solve", "--algorithm", algorithm, "--engine", engine,
                               f"{flag}={value!r}", "--j1", "3", "--j2", "3", "--j3", "3",
                               "--reads", "4", "--iterations", "1", "--sweeps", "16",
                               "--cycles", "1", "--out-dir", str(tmp_path)])
                    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY), (flag, value, rc)
                    assert (rc == EXIT_USAGE) == (not 1e-6 <= v <= 1e3), (flag, value, rc)
                    codes.add(rc)
        assert EXIT_OK in codes

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as ei:
            main(["solve", "--bogus"])
        assert ei.value.code == 2

    def test_emitted_config_round_trips(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["solve", "--algorithm", "one-shot", "--j1", "3", "--j2", "3",
                     "--j3", "3", "--reads", "20", "--out-dir", str(out1)]) == EXIT_OK
        assert main(["solve", "--config", str(out1 / "one_shot_config.txt"),
                     "--out-dir", str(out2)]) == EXIT_OK
        assert (out1 / "one_shot_summary.csv").read_bytes() == \
            (out2 / "one_shot_summary.csv").read_bytes()


def solve_options():
    """The solve subparser's option strings, keyed by destination."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.option_strings for a in sub.choices["solve"]._actions}


# one accepted, non-default raw value per RunConfig field; None marks the
# bare flag of the one bool field
FIELD_SAMPLES = {
    "algorithm": "one-shot", "engine": "greedy", "j1": "5", "j2": "7", "j3": "4",
    "s2": "-0.02", "s3": "0.004", "reads": "3", "cycles": "2", "iterations": "1",
    "executions": "2", "reversal": "0.25", "seed": "5", "keep_fraction": "0.5",
    "k_count": "20", "sweeps": "8", "anneal_time": "30.5", "bias": "0.5",
    "init_true": None, "out_dir": "elsewhere",
}


class TestSchema:
    """RunConfig's fields are the one declaration of the solve settings."""

    def test_options_are_the_fields(self):
        fields = [f.name for f in dataclasses.fields(RunConfig)]
        assert sorted(FIELD_SAMPLES) == sorted(fields)
        assert sorted(solve_options()) == sorted([*fields, "config", "help"])

    @pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
    def test_flag_and_config_key_agree(self, tmp_path, field):
        raw = FIELD_SAMPLES[field.name]
        flag = "--" + field.name.replace("_", "-")
        assert solve_options()[field.name] == [flag]
        by_flag = resolve_config(
            build_parser().parse_args(["solve", flag, *([] if raw is None else [raw])]))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{field.name} = {'true' if raw is None else raw}\n")
        by_file = resolve_config(build_parser().parse_args(["solve", "--config", str(cfg)]))
        assert by_flag == by_file
        value = getattr(by_flag, field.name)
        assert value != field.default
        assert type(value).__name__ in field.type  # "int | None" holds an int
        assert dataclasses.replace(by_flag, **{field.name: field.default}) == RunConfig()


class TestSolve:
    def test_classical_two_iterations(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["solve", "--algorithm", "classical", "--iterations", "2",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        summary = read_summary(out / "classical_summary.csv")
        for name, want in zip(("x1", "x2", "x3"), ALG1_FIXED2):
            assert float(summary[name]["mean_estimate"]) == pytest.approx(want, rel=1e-12)
        # single execution: iteration log carries per-iteration history
        with open(out / "classical_iterations.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["iteration"] for r in rows] == ["1", "2"]
        assert "classical" in capsys.readouterr().out
        assert_csv_parses(out / "classical_iterations.csv")
        assert_svg_parses(out / "classical_errors.svg")

    def test_combinatorial_small_matches_joint_argmin(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--algorithm", "combinatorial", "--j2", "6", "--j3", "6",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        summary = read_summary(out / "combinatorial_summary.csv")
        for name, want in zip(("x1", "x2", "x3"), COMB6):
            assert float(summary[name]["mean_estimate"]) == pytest.approx(want, rel=1e-12)

    def test_hybrid_oracle_agrees_with_exhaustive(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--algorithm", "hybrid", "--engine", "greedy",
                   "--j2", "6", "--j3", "6", "--out-dir", str(out)])
        assert rc == EXIT_OK
        summary = read_summary(out / "hybrid_summary.csv")
        for name, want in zip(("x1", "x2", "x3"), COMB6):
            assert float(summary[name]["mean_estimate"]) == pytest.approx(want, rel=1e-12)

    def test_init_true_noop(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--algorithm", "classical", "--init-true",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        summary = read_summary(out / "classical_summary.csv")
        for name in ("x1", "x2", "x3"):
            assert float(summary[name]["mean_pct_error"]) == 0.0

    def test_zero_iterations_needs_init_true(self, tmp_path):
        rc = main(["solve", "--algorithm", "classical", "--iterations", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE

    def test_one_shot_small(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["solve", "--algorithm", "one-shot", "--j1", "3", "--j2", "3",
                   "--j3", "3", "--reads", "30", "--cycles", "2",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "per-anneal time: 69.0 us" in text
        summary = read_summary(out / "one_shot_summary.csv")
        assert 0.0 < float(summary["x1"]["mean_estimate"]) < 1.0

    @pytest.mark.parametrize("engine,flags,line", [
        # the state-vector engine integrates 40 us by default, the others 20 us
        ("statevector", (), "per-anneal time: 40.0 us   reads: 100   accounting total: 25000 us"),
        ("heuristic", (), "per-anneal time: 20.0 us   reads: 100   accounting total: 23000 us"),
        ("statevector", ("--anneal-time", "25"),
         "per-anneal time: 25.0 us   reads: 100   accounting total: 23500 us"),
    ])
    def test_hybrid_per_anneal_line(self, tmp_path, capsys, engine, flags, line):
        rc = main(["solve", "--algorithm", "hybrid", "--engine", engine, "--j2", "3",
                   "--j3", "3", "--iterations", "1", *flags, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert line in capsys.readouterr().out.splitlines()

    def test_multi_anneal_greedy_small(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--algorithm", "multi-anneal", "--engine", "greedy",
                   "--reads", "2", "--j1", "3", "--j2", "3", "--j3", "3",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK

    def test_multi_anneal_skips_degenerate_reads(self, tmp_path):
        # the lowest-policy-loss read decodes x1 = 0; the next one is kept
        out = tmp_path / "out"
        rc = main(["solve", "--algorithm", "multi-anneal", "--engine", "heuristic",
                   "--reads", "4", "--seed", "1815163413", "--out-dir", str(out)])
        assert rc == EXIT_OK
        assert (out / "multi_anneal_summary.csv").is_file()
        assert (out / "multi_anneal_iterations.csv").is_file()

    def test_merged_statevector_rejected(self, tmp_path, capsys):
        rc = main(["solve", "--algorithm", "one-shot", "--engine", "statevector",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "statevector" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        # the one kept read decodes x3 = 0, which anchors no policy surrogate
        ("--algorithm", "one-shot", "--j1", "1", "--j2", "1", "--j3", "1", "--reads", "1"),
        # a negative slope register cannot hold a positive x3
        ("--algorithm", "hybrid", "--engine", "heuristic", "--s2", "0.5", "--s3", "-0.5"),
        # the only read decodes x1 = 0
        ("--algorithm", "multi-anneal", "--engine", "heuristic", "--reads", "1",
         "--seed", "102"),
        # the kept reads average to x1 = 0, which anchors no valuation step
        ("--algorithm", "one-shot", "--j1", "1", "--j2", "2", "--j3", "1", "--reads", "2",
         "--sweeps", "7", "--seed", "13844", "--k-count", "5", "--cycles", "2",
         "--s2", "-0.05144396749277069", "--s3", "-0.9264741205325697"),
    ])
    def test_degenerate_estimate_exits_3(self, tmp_path, capsys, flags):
        rc = main(["solve", *flags, "--out-dir", str(tmp_path)])
        assert rc == EXIT_VERIFY
        err = capsys.readouterr().err
        assert err.startswith("error: degenerate estimate:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("anneal_time", ["1e308", "1e9"])
    def test_overlong_statevector_anneal_exits_4(self, tmp_path, capsys, anneal_time):
        # the step guard fires before the schedule table is built
        with mock.patch.object(engines, "fraction_table", side_effect=AssertionError):
            rc = main(["solve", "--algorithm", "hybrid", "--engine", "statevector",
                       "--j2", "4", "--j3", "4", "--anneal-time", anneal_time,
                       "--out-dir", str(tmp_path)])
        assert rc == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err.startswith("error: anneal time") and "integration steps" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("algorithm", ["one-shot", "multi-anneal"])
    def test_wide_greedy_group_exits_4(self, tmp_path, capsys, algorithm):
        # the 42-bit valuation group fails the guard before any group step
        with mock.patch.object(engines, "_best_assignment", side_effect=AssertionError):
            rc = main(["solve", "--algorithm", algorithm, "--engine", "greedy",
                       "--j2", "20", "--j3", "20", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err == "error: greedy group of 42 variables exceeds the guard of 26\n"

    def test_executions_logged_per_run(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--algorithm", "one-shot", "--j1", "2", "--j2", "2",
                   "--j3", "2", "--reads", "15", "--executions", "3",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        with open(out / "one_shot_iterations.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        summary = read_summary(out / "one_shot_summary.csv")
        assert float(summary["x1"]["sd_estimate"]) >= 0.0

    def test_executions_build_the_problem_once(self, tmp_path):
        # executions differ only in their seed: one problem, one schedule
        with mock.patch.object(cli, "build_merged_problem",
                               side_effect=cli.build_merged_problem) as build, \
                mock.patch.object(cli, "merged_schedule",
                                  side_effect=cli.merged_schedule) as schedule:
            rc = main(["solve", "--algorithm", "one-shot", "--engine", "greedy", "--reads", "2",
                       "--cycles", "1", "--executions", "3", "--seed", "4",
                       "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert build.call_count == 1 and schedule.call_count == 1
        with open(tmp_path / "one_shot_iterations.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 3

    def test_same_seed_identical_artifacts(self, tmp_path):
        out = tmp_path / "out"
        argv = ["solve", "--algorithm", "one-shot", "--j1", "3", "--j2", "3",
                "--j3", "3", "--reads", "25", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        first = {p.name: file_digest(p) for p in out.iterdir()}
        assert main(argv) == EXIT_OK
        second = {p.name: file_digest(p) for p in out.iterdir()}
        assert first == second

    def test_different_seed_changes_estimates(self, tmp_path):
        # needs the full-width grid: tiny registers quantize different
        # noise realizations onto the same handful of grid points
        outs = []
        for seed in ("0", "1"):
            out = tmp_path / seed
            assert main(["solve", "--algorithm", "one-shot", "--reads", "40",
                         "--seed", seed, "--out-dir", str(out)]) == EXIT_OK
            outs.append(read_summary(out / "one_shot_summary.csv"))
        est = [tuple(o[n]["mean_estimate"] for n in ("x1", "x2", "x3")) for o in outs]
        assert est[0] != est[1]


class TestQuadratize:
    def cubic_file(self, tmp_path):
        path = tmp_path / "cubic.poly"
        z = Poly.variable
        poly = -2.5 * (z(0) * z(1) * z(2)) + z(1) * z(3) + 0.75 * z(2) - 0.25
        write_poly(poly, str(path))
        return path, poly

    def test_round_trip_and_verify(self, tmp_path, capsys):
        path, poly = self.cubic_file(tmp_path)
        rc = main(["quadratize", str(path), "--verify"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "equivalent on all 2^4 assignments" in text
        assert "aux" in text
        reduced = read_poly(str(path) + ".quad")
        assert reduced.degree <= 2

    def test_explicit_out_path(self, tmp_path):
        path, _ = self.cubic_file(tmp_path)
        out = tmp_path / "reduced.poly"
        assert main(["quadratize", str(path), "--out", str(out)]) == EXIT_OK
        assert out.exists()

    def test_verify_capacity_guard(self, tmp_path, capsys):
        path = tmp_path / "wide.poly"
        z = Poly.variable
        poly = sum((z(i) * z(i + 1) * z(i + 2) for i in range(11)), Poly({}))
        write_poly(poly, str(path))
        rc = main(["quadratize", str(path), "--verify"])
        assert rc == EXIT_CAPACITY
        assert "2^13" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("3 x0 x1 banana\n")
        assert main(["quadratize", str(path)]) == EXIT_USAGE

    @pytest.mark.parametrize("text", ["nan 0 1 2\n2.0 0 1 2\n", "nan 3\n1.0 0 1 2\n"])
    def test_non_finite_coefficient_exits_2(self, tmp_path, capsys, text):
        # a dropped NaN term once reduced silently, or freed x3 for an auxiliary
        path = tmp_path / "nan.poly"
        path.write_text(text)
        assert main(["quadratize", str(path), "--verify"]) == EXIT_USAGE
        assert "line 1" in capsys.readouterr().err
        assert not (tmp_path / "nan.poly.quad").exists()


class TestAppendixB:
    def test_greedy_rows(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["appendix-b", "--engine", "greedy", "--out-dir", str(out)])
        assert rc == EXIT_OK
        with open(out / "appendix_b.csv", newline="") as fh:
            rows = {(r["model"], int(r["cycles"])): r for r in csv.DictReader(fh)}
        assert rows[("single-activation", 1)]["verdict"] == "incorrect"
        assert rows[("single-activation", 1)]["modal_state"] == "01"
        assert rows[("single-activation", 2)]["verdict"] == "correct"
        assert rows[("single-activation", 2)]["modal_state"] == "11"
        assert rows[("two-component", 1)]["verdict"] == "incorrect"
        assert rows[("two-component", 2)]["verdict"] == "correct"
        assert float(rows[("two-component", 2)]["energy"]) == -1.0

    def test_all_engines_share_improves_with_cycles(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["appendix-b", "--reads", "400", "--out-dir", str(out)])
        assert rc == EXIT_OK
        with open(out / "appendix_b.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        by_key = {(r["model"], r["engine"], int(r["cycles"])): float(r["ground_share"])
                  for r in rows}
        for model in ("single-activation", "two-component"):
            for engine in ("greedy", "heuristic", "statevector"):
                assert by_key[(model, engine, 2)] > by_key[(model, engine, 1)] or \
                    by_key[(model, engine, 1)] == 1.0


class TestSimulate:
    def test_true_policy_coincides(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--true", "--out-dir", str(out)])
        assert rc == EXIT_OK
        assert "max relative gap 0.0000%" in capsys.readouterr().out
        assert_csv_parses(out / "consumption.csv")
        assert_svg_parses(out / "consumption.svg")

    def test_explicit_x1(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--x1", "0.31", "--periods", "6",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        with open(out / "consumption.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert rows[0]["z_index"] == "2"
        assert rows[1]["z_index"] == "0"

    def test_from_summary(self, tmp_path):
        out = tmp_path / "solve"
        assert main(["solve", "--algorithm", "classical", "--iterations", "2",
                     "--out-dir", str(out)]) == EXIT_OK
        sim_out = tmp_path / "sim"
        rc = main(["simulate", "--from-summary",
                   str(out / "classical_summary.csv"), "--out-dir", str(sim_out)])
        assert rc == EXIT_OK

    def test_missing_policy_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "--x1" in capsys.readouterr().err

    def test_summary_without_x1_exits_2(self, tmp_path):
        bad = tmp_path / "s.csv"
        bad.write_text("parameter,mean_estimate\nx9,0.5\n")
        assert main(["simulate", "--from-summary", str(bad)]) == EXIT_USAGE


class TestBench:
    def test_worked_total_present(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["bench", "--out-dir", str(out)])
        assert rc == EXIT_OK
        assert "23000" in capsys.readouterr().out
        with open(out / "bench.csv", newline="") as fh:
            rows = {(int(r["reads"]), float(r["t_anneal_us"])): float(r["total_us"])
                    for r in csv.DictReader(fh)}
        assert rows[(100, 20.0)] == 23000.0
        assert rows[(1, 5.0)] == 9125.0


class TestRewriteInPlace:
    """Every writer rewrites its file in place: a rerun over longer, stale
    files leaves exactly what a run into an empty directory writes, and a
    file keeps its inode, mode, links and symlink target."""

    # argv (out is the output directory) and the files it writes there
    RUNS = {
        "solve-classical": (["solve", "--algorithm", "classical", "--out-dir", "{out}"],
                            ["classical_iterations.csv", "classical_config.txt",
                             "classical_summary.csv", "classical_errors.svg"]),
        "solve-one-shot": (["solve", "--algorithm", "one-shot", "--engine", "greedy",
                            "--reads", "2", "--cycles", "1", "--out-dir", "{out}"],
                           ["one_shot_iterations.csv", "one_shot_config.txt",
                            "one_shot_summary.csv", "one_shot_errors.svg"]),
        "simulate": (["simulate", "--true", "--out-dir", "{out}"],
                     ["consumption.csv", "consumption.svg"]),
        "appendix-b": (["appendix-b", "--engine", "greedy", "--reads", "1", "--out-dir", "{out}"],
                       ["appendix_b.csv"]),
        "bench": (["bench", "--out-dir", "{out}"], ["bench.csv"]),
        "quadratize": (["quadratize", "{out}/cubic.poly", "--out", "{out}/cubic.quad"],
                       ["cubic.quad"]),
    }

    @staticmethod
    def _run(argv, out, capsys):
        (out / "cubic.poly").write_text("1.5 0 1 2\n-2.0 1 2 3\n0.5 0\n")
        assert main([a.format(out=out) for a in argv]) == EXIT_OK
        return capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_rerun_over_longer_stale_files_writes_a_fresh_runs_bytes(self, tmp_path, capsys,
                                                                     name):
        argv, files = self.RUNS[name]
        out = tmp_path / "out"
        out.mkdir()
        stdout = self._run(argv, out, capsys)
        fresh = {f: (out / f).read_bytes() for f in files}
        for f, data in fresh.items():
            (out / f).write_bytes(b"stale," * (len(data) // 3 + 40))
        assert self._run(argv, out, capsys) == stdout
        assert {f: (out / f).read_bytes() for f in files} == fresh

    def test_rewrite_keeps_the_files_identity(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["solve", "--algorithm", "classical", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        summary = out / "classical_summary.csv"
        first = summary.read_bytes()
        link = tmp_path / "link.csv"
        link.hardlink_to(summary)
        summary.chmod(0o640)
        inode = summary.stat().st_ino
        # the errors plot is a symlink to a file elsewhere
        target = tmp_path / "plot.svg"
        (out / "classical_errors.svg").rename(target)
        (out / "classical_errors.svg").symlink_to(target)
        plot = target.read_bytes()
        # one iteration moves the estimates, so every byte count changes
        assert main([*argv, "--iterations", "1"]) == EXIT_OK
        second = summary.read_bytes()
        assert second != first and link.read_bytes() == second
        assert summary.stat().st_ino == inode and summary.stat().st_nlink == 2
        assert summary.stat().st_mode & 0o777 == 0o640
        assert (out / "classical_errors.svg").is_symlink()
        assert target.read_bytes() != plot
        assert_svg_parses(target)

    def test_unwritable_artifact_names_its_path(self, tmp_path, capsys):
        (tmp_path / "bench.csv").mkdir()
        assert main(["bench", "--out-dir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: cannot write {tmp_path / 'bench.csv'}: Is a directory\n"


class TestEntryPoint:
    def test_console_script_help(self):
        import subprocess
        import sys

        proc = subprocess.run([sys.executable, "-m", "annealdp.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("solve", "quadratize", "appendix-b", "simulate", "bench"):
            assert name in proc.stdout


@pytest.mark.parametrize("argv", [
    ["simulate", "--x1", "1.5"],
    ["simulate", "--x1", "nan"],
    ["simulate", "--true", "--periods", "0"],
    ["simulate", "--true", "--shock-index", "9"],
    ["simulate", "--true", "--k0", "-1"],
    ["appendix-b", "--reads", "0", "--engine", "heuristic"],
    ["appendix-b", "--reads", "0", "--engine", "greedy"],
    ["appendix-b", "--reads", "0"],
    ["quadratize", "missing.poly"],
    ["solve", "--seed", "-1"],
    ["solve", "--algorithm", "annealer"],
    ["solve", "--engine", "quantum"],
    ["solve", "--config", "latin1.cfg"],
    ["quadratize", "latin1.poly"],
    ["simulate", "--from-summary", "words.csv"],
    ["appendix-b", "--seed", "-1", "--engine", "heuristic"],
    ["solve", "--algorithm", "classical", "--out-dir", "words.csv/out"],
    ["bench", "--out-dir", ""],
    # a directory sits where an output file goes
    ["solve", "--algorithm", "one-shot", "--engine", "greedy", "--reads", "2", "--cycles", "1",
     "--out-dir", "blocked"],
    ["solve", "--algorithm", "classical", "--out-dir", "blocked-iterations"],
    ["solve", "--algorithm", "classical", "--out-dir", "blocked-config"],
    ["solve", "--algorithm", "classical", "--out-dir", "blocked-summary"],
    ["solve", "--algorithm", "classical", "--out-dir", "blocked-svg"],
    ["simulate", "--true", "--out-dir", "blocked"],
    ["simulate", "--true", "--out-dir", "blocked-svg"],
    ["appendix-b", "--engine", "greedy", "--reads", "1", "--out-dir", "blocked"],
    ["bench", "--out-dir", "blocked"],
    ["quadratize", "cubic.poly", "--out", "blocked"],
])
def test_bad_input_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.cfg").write_bytes("seed = 1 # r\xe9sum\xe9\n".encode("latin-1"))
    (tmp_path / "latin1.poly").write_bytes("1.0 0 1 # r\xe9sum\xe9\n".encode("latin-1"))
    (tmp_path / "words.csv").write_text("parameter,mean_estimate\nx1,about a third\n")
    (tmp_path / "cubic.poly").write_text("1.0 0 1 2\n")
    for blocked in ("blocked/one_shot_summary.csv", "blocked/consumption.csv",
                    "blocked/appendix_b.csv", "blocked/bench.csv",
                    "blocked-iterations/classical_iterations.csv",
                    "blocked-config/classical_config.txt",
                    "blocked-summary/classical_summary.csv",
                    "blocked-svg/classical_errors.svg", "blocked-svg/consumption.svg"):
        (tmp_path / blocked).mkdir(parents=True)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALGORITHMS), st.sampled_from(ENGINES), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 16),
       st.integers(1, 2), st.integers(0, 3))
def test_solve_config_space_exits_with_a_documented_code(algorithm, engine, j1, j2, j3, reads,
                                                         sweeps, executions, seed):
    # every solve in a small corner of the config space writes its
    # artifacts or exits 2, 3 or 4 with one error line, never a traceback
    argv = ["solve", "--algorithm", algorithm, "--engine", engine, "--j1", str(j1),
            "--j2", str(j2), "--j3", str(j3), "--reads", str(reads), "--sweeps", str(sweeps),
            "--executions", str(executions), "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = main([*argv, "--out-dir", tmp])
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY, EXIT_CAPACITY), argv
    assert err.getvalue().count("error:") == (rc != EXIT_OK)
    assert "Traceback" not in err.getvalue()
