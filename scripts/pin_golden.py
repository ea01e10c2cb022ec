"""Rewrite the golden artifacts that tests/test_golden.py compares against.

For every case in tests/golden/cases.json this runs `annealdp solve`
with the case's flags and copies the summary CSV, iterations CSV and
error SVG into tests/golden/<case>/. Artifacts are meant to stay byte
for byte the same from change to change, so re-pin only when a change
alters them on purpose, and say why in CHANGES.md.

Usage: python scripts/pin_golden.py [case ...]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden")
ARTIFACTS = ("summary.csv", "iterations.csv", "errors.svg")

sys.path.insert(0, os.path.join(ROOT, "src"))

from annealdp.cli import main as cli_main


def load_cases() -> dict[str, list[str]]:
    with open(os.path.join(GOLDEN, "cases.json")) as fh:
        return json.load(fh)


def solve_into(flags: list[str], out_dir: str) -> list[str]:
    """Run one solve into out_dir; return the paths of its pinned artifacts."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(["solve", *flags, "--out-dir", out_dir])
    if rc != 0:
        raise RuntimeError(f"solve {' '.join(flags)} exited {rc}")
    tag = flags[flags.index("--algorithm") + 1].replace("-", "_")
    return [os.path.join(out_dir, f"{tag}_{suffix}") for suffix in ARTIFACTS]


def run(argv=None) -> int:
    cases = load_cases()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("case", nargs="*", help="default: every case")
    args = ap.parse_args(argv)
    unknown = sorted(set(args.case) - set(cases))
    if unknown:
        ap.error(f"unknown case {unknown[0]!r}; known: {', '.join(cases)}")
    for name in args.case or cases:
        dest = os.path.join(GOLDEN, name)
        os.makedirs(dest, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for path in solve_into(cases[name], tmp):
                shutil.copyfile(path, os.path.join(dest, os.path.basename(path)))
        print(f"pinned {name}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
