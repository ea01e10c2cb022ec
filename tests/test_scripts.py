"""Smoke test of the analysis scripts under scripts/.

Each script's run function is called with small arguments and an output
directory under tmp_path; it must succeed and write its files. This
catches a script left behind by a change to the package's API.
"""

from __future__ import annotations

import contextlib
import glob
import importlib.util
import io
import os
import re

import pytest

from annealdp import cli
from annealdp.rbc import DEFAULT_PARAMS, classical_ppi, pct_errors, true_parameters

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPTS = os.path.join(ROOT, "scripts")

CASES = {
    "run_loss_correlations": (
        ["--reads", "20", "--cycles", "1"],
        ["correlations.csv"] + [f"adjusted_vs_error_x{p}.svg" for p in (1, 2, 3)],
    ),
}
# smoke-tested here: the CASES, and solve_matrix by its own test
SMOKE_TESTED = {*CASES, "solve_matrix"}


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_runs(name, tmp_path):
    argv, outputs = CASES[name]
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        rc = load(name).run([*argv, "--out-dir", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == sorted(outputs)


def run_solve_matrix(monkeypatch, tmp_path, flags):
    # the script pins BLAS threads in os.environ on import; keep that out
    # of this process's environment
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.chdir(tmp_path)
    return load("solve_matrix").run([flags])


def test_solve_matrix_classical(monkeypatch, tmp_path):
    matrix = run_solve_matrix(monkeypatch, tmp_path, ["--algorithm", "classical"])
    assert os.listdir(tmp_path) == []  # every solve wrote into its temporary directory
    row = matrix["configs"]["--algorithm classical"]
    assert row["exit_codes"] == [0, 0, 0, 0]
    # classical is deterministic, so every seed's terminal is the one solve's
    expected = list(pct_errors(classical_ppi(DEFAULT_PARAMS), true_parameters(DEFAULT_PARAMS)))
    assert row["seed_pct_errors"] == [expected] * 20
    assert [round(e, 3) for e in expected] == [0.720, 0.065, 1.045]
    assert [row["pct_error"][p]["max"] for p in ("x1", "x2", "x3")] == expected
    assert row["wall_s"] > 0.0 and row["wall_ref_s"] > 0.0
    # no sampler, so no modelled device time
    assert row["modelled_device_us"] is None


def test_solve_matrix_modelled_device_time(monkeypatch, tmp_path):
    flags = ["--algorithm", "hybrid", "--engine", "greedy"]
    row = run_solve_matrix(monkeypatch, tmp_path, flags)["configs"][" ".join(flags)]
    cfg = cli.resolve_config(cli.build_parser().parse_args(["solve", *flags]))
    _, device_us = cli._modelled_device_time(cfg, cli._per_anneal_time(cfg))
    assert row["modelled_device_us"] == device_us == 46000.0


def test_readme_lists_every_script():
    with open(os.path.join(ROOT, "README.md")) as fh:
        listed = re.findall(r"python scripts/(\w+)\.py", fh.read())
    for name in listed:
        assert os.path.isfile(os.path.join(SCRIPTS, f"{name}.py")), name
    scripts = {os.path.basename(p)[:-3] for p in glob.glob(os.path.join(SCRIPTS, "*.py"))}
    assert scripts - {"pin_golden"} == set(listed) == SMOKE_TESTED
