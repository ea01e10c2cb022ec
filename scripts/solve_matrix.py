"""Wall time and |error| % of `annealdp solve` for each algorithm x engine pair.

For each configuration in CONFIGS this times three in-process solves at
seed 0, then runs one solve over seeds 1-20 with --executions and reads
each execution's terminal, the last of its rows in the iterations CSV.
It prints one JSON object: per configuration, every exit code, the median
wall time (as measured, and rescaled to the reference host speed of
perfbench/hostspeed.py), the modelled device time per execution that the
first solve prints (null for a config without a sampler, which prints
none) and the mean, sd and worst |error| % of each parameter over the
seeds. BLAS runs on one thread, and every file the solves write goes to
a temporary directory.

The median of three solves does not resolve a change of a few per cent:
run back to back on two consecutive commits, it read the one-shot
heuristic solve at 0.0832 s and then 0.0938 s, where ten alternating
pairs of perfbench/run.py runs put the second commit 3 % faster. Compare
two commits' times with such pairs; compare their errors here.

Usage: python scripts/solve_matrix.py > matrix.json
"""

from __future__ import annotations

import contextlib
import csv
import glob
import io
import json
import os
import platform
import re
import statistics
import sys
import tempfile
import time

# set before numpy loads, so the times do not depend on the core count
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from annealdp.cli import main as cli_main
from hostspeed import HostSpeed

# `annealdp solve` flags of each row; every other setting is the default
CONFIGS = [
    ["--algorithm", "classical"],
    ["--algorithm", "combinatorial"],
    ["--algorithm", "hybrid", "--engine", "greedy"],
    ["--algorithm", "hybrid", "--engine", "heuristic"],
    ["--algorithm", "hybrid", "--engine", "statevector", "--j2", "4", "--j3", "4"],
    ["--algorithm", "hybrid", "--engine", "statevector", "--j2", "6", "--j3", "6"],
    ["--algorithm", "multi-anneal", "--engine", "heuristic"],
    ["--algorithm", "multi-anneal", "--engine", "greedy"],
    ["--algorithm", "one-shot", "--engine", "heuristic"],
    ["--algorithm", "one-shot", "--engine", "greedy"],
]
PARAMS = ("x1", "x2", "x3")
SEEDS = 20  # the errors come from seeds 1..SEEDS
REPEATS = 3  # timed solves at seed 0 per config


DEVICE_LINE = re.compile(r"modelled device time per execution: (\S+) us")


def solve(flags: list[str], out_dir: str) -> tuple[int, str]:
    """The exit code and stdout of one solve."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli_main(["solve", *flags, "--out-dir", out_dir])
    return code, out.getvalue()


def modelled_device_us(stdout: str) -> float | None:
    """The modelled device time per execution a solve printed, if any."""
    match = DEVICE_LINE.search(stdout)
    return float(match.group(1)) if match else None


def seed_errors(out_dir: str) -> list[list[float]]:
    """|error| % of x1, x2 and x3 at each execution's last row of the one
    iterations CSV in out_dir, in seed order."""
    (path,) = glob.glob(os.path.join(out_dir, "*_iterations.csv"))
    with open(path, newline="") as fh:
        last = {row["execution"]: row for row in csv.DictReader(fh)}
    return [[float(row[f"err_{p}_pct"]) for p in PARAMS] for row in last.values()]


def run(configs: list[list[str]] = CONFIGS) -> dict:
    """The matrix over configs."""
    host = HostSpeed()
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, flags in enumerate(configs):
            out_dir = os.path.join(tmp, str(i))
            codes, outs, raw, rescaled = [], [], [], []
            before = host.sample()
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                code, out = solve([*flags, "--seed", "0"], out_dir)
                seconds = time.perf_counter() - t0
                codes.append(code)
                outs.append(out)
                after = host.sample()
                raw.append(seconds)
                rescaled.append(seconds / host.factor(before, after))
                before = after
            codes.append(solve([*flags, "--seed", "1", "--executions", str(SEEDS)], out_dir)[0])
            row = {"exit_codes": codes, "wall_s": statistics.median(raw),
                   "wall_ref_s": statistics.median(rescaled),
                   "modelled_device_us": modelled_device_us(outs[0])}
            if codes[-1] == 0:
                errs = seed_errors(out_dir)
                row["pct_error"] = {
                    p: {"mean": statistics.fmean(col), "sd": statistics.pstdev(col),
                        "max": max(col)}
                    for p, col in zip(PARAMS, zip(*errs))}
                row["seed_pct_errors"] = errs
            rows[" ".join(flags)] = row
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "timed_seed": 0, "repeats": REPEATS, "error_seeds": [1, SEEDS], "configs": rows}


if __name__ == "__main__":
    print(json.dumps(run()))
