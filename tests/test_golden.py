"""Golden artifacts: a few fixed solves must reproduce their pinned bytes.

Each case in golden/cases.json is rerun and its summary CSV, iterations
CSV and error SVG are compared byte for byte with golden/<case>/. The
cases cover the state-vector integrator, brute force, the greedy oracle
and the heuristic annealer, so a speedup in any of them that moves an
output bit fails here. Rewrite the pins with scripts/pin_golden.py only
for a change that alters artifacts on purpose.
"""

from __future__ import annotations

import json
import os

import pytest

from annealdp.cli import EXIT_OK, main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
with open(os.path.join(GOLDEN, "cases.json")) as _fh:
    CASES = json.load(_fh)
SUFFIXES = ("summary.csv", "iterations.csv", "errors.svg")


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_pins(name, tmp_path, capsys):
    flags = CASES[name]
    assert main(["solve", *flags, "--out-dir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    tag = flags[flags.index("--algorithm") + 1].replace("-", "_")
    pinned = sorted(os.listdir(os.path.join(GOLDEN, name)))
    assert pinned == sorted(f"{tag}_{s}" for s in SUFFIXES)
    for fname in pinned:
        with open(os.path.join(GOLDEN, name, fname), "rb") as fh:
            want = fh.read()
        got = (tmp_path / fname).read_bytes()
        assert got == want, f"{name}: {fname} differs from its pin"
