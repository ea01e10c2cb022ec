"""Smoke test of the analysis scripts under scripts/.

Each script's run(argv) is called with small arguments and an output
directory under tmp_path; it must return 0 and write its files. This
catches a script left behind by a change to the package's API.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")

CASES = {
    "run_anneal_distributions": (
        ["--executions", "2", "--reads", "20", "--multi-reads", "3", "--cycles", "1"],
        ["terminals.csv", "one_shot_errors.svg", "multi_anneal_errors.svg"],
    ),
    "run_baselines": (
        ["--iterations", "1"],
        [f"{alg}_{suffix}" for alg in ("classical", "combinatorial", "hybrid")
         for suffix in ("summary.csv", "iterations.csv", "errors.svg", "config.txt")],
    ),
    "run_loss_correlations": (
        ["--reads", "20", "--cycles", "1"],
        ["correlations.csv"] + [f"adjusted_vs_error_x{p}.svg" for p in (1, 2, 3)],
    ),
}


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
