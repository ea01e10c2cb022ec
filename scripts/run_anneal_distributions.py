"""Estimate distributions for the annealing drivers across many seeds.

Repeats the one-shot and chained-anneal solvers over independent
seeds and reports the spread of terminal estimates, the analogue of
running the same experiment many times on hardware. Writes a CSV of
per-execution terminals and an SVG of percentage errors by seed.

Usage: python scripts/run_anneal_distributions.py [--executions 20] [--reads 200]
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from annealdp.merged import build_merged_problem, merged_schedule, multi_anneal_ppi, one_shot_ppi
from annealdp.rbc import DEFAULT_PARAMS, pct_errors, true_parameters
from annealdp.svgplot import Series, line_chart


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--executions", type=int, default=20)
    ap.add_argument("--reads", type=int, default=200)
    ap.add_argument("--multi-reads", type=int, default=50, dest="multi_reads",
                    help="reads per execution for the chained driver")
    ap.add_argument("--cycles", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--skip-multi", action="store_true",
                    help="the chained driver re-anneals per read and dominates runtime")
    ap.add_argument("--out-dir", default="runs/distributions")
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    problem = build_merged_problem(DEFAULT_PARAMS)
    truth = true_parameters(DEFAULT_PARAMS)

    drivers = {
        "one_shot": lambda seed: one_shot_ppi(
            problem, reads=args.reads, cycles=args.cycles, seed=seed,
        ),
    }
    if not args.skip_multi:
        drivers["multi_anneal"] = lambda seed: multi_anneal_ppi(
            problem,
            schedule=merged_schedule(problem, reinitialize=False),
            reads=args.multi_reads, seed=seed,
        )

    rows = []
    for name, driver in drivers.items():
        errs = []
        for e in range(args.executions):
            state = driver(args.seed + e)
            pct = pct_errors(state, truth)
            errs.append(pct)
            rows.append([name, args.seed + e, *map(repr, state.as_tuple()), *map(repr, pct)])
        arr = np.array(errs)
        print(f"{name}: {args.executions} executions, "
              f"{args.reads if name == 'one_shot' else args.multi_reads} reads each")
        print(f"{'param':<6}{'mean |err| %':>14}{'sd':>10}{'max':>10}")
        for p, pname in enumerate(("x1", "x2", "x3")):
            print(f"{pname:<6}{arr[:, p].mean():>14.3f}{arr[:, p].std():>10.3f}"
                  f"{arr[:, p].max():>10.3f}")
        print()
        xs = tuple(range(args.executions))
        line_chart(
            os.path.join(args.out_dir, f"{name}_errors.svg"),
            [Series(pname, xs, tuple(arr[:, p])) for p, pname in
             enumerate(("x1", "x2", "x3"))],
            title=f"{name}: terminal error by execution",
            x_label="execution", y_label="absolute error (%)",
        )

    with open(os.path.join(args.out_dir, "terminals.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["driver", "seed", "x1", "x2", "x3",
                    "err_x1_pct", "err_x2_pct", "err_x3_pct"])
        w.writerows(rows)
    print(f"artifacts in {args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(run())
