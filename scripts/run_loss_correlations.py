"""Rank the loss measures by how well they predict parameter error.

Draws an ensemble of independent anneal reads of the merged problem,
scores each read with the unadjusted, adjusted, and (test-only)
minimum losses, and prints the rank correlation of each measure with
the absolute parameter errors. The adjusted loss is the feasible
selection signal; it should track error closely where the unadjusted
loss does not.

Usage: python scripts/run_loss_correlations.py [--reads 200] [--seed 0]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from annealdp.merged import build_merged_problem, one_shot_ensemble
from annealdp.pbf import write_csv
from annealdp.rbc import DEFAULT_PARAMS, true_parameters
from annealdp.svgplot import Series, line_chart


def midranks(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr))
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(a, b) -> float:
    ra, rb = midranks(a), midranks(b)
    if ra.std() == 0.0 or rb.std() == 0.0:
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reads", type=int, default=200)
    ap.add_argument("--cycles", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="runs/correlations")
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    problem = build_merged_problem(DEFAULT_PARAMS)
    truth = true_parameters(DEFAULT_PARAMS)
    outcomes = one_shot_ensemble(problem, reads=args.reads, cycles=args.cycles,
                                 seed=args.seed, reference=truth)

    errors = np.array([[abs(o.params[p] - truth[p]) for p in range(3)]
                       for o in outcomes])
    measures = {
        "unadjusted": np.array([[o.unadjusted_loss] * 3 for o in outcomes]),
        "adjusted": np.array([o.adjusted_loss for o in outcomes]),
        "minimum": np.array([o.minimum_loss for o in outcomes]),
    }

    print(f"{args.reads} reads, seed {args.seed}")
    print(f"{'measure':<12}{'corr x1':>10}{'corr x2':>10}{'corr x3':>10}")
    table = {}
    for name, m in measures.items():
        corr = [spearman(m[:, p], errors[:, p]) for p in range(3)]
        table[name] = corr
        print(f"{name:<12}" + "".join(f"{c:>10.3f}" for c in corr))

    write_csv(os.path.join(args.out_dir, "correlations.csv"),
              [["measure", "corr_x1", "corr_x2", "corr_x3"],
               *([name, *map(repr, corr)] for name, corr in table.items())])

    # adjusted loss vs error, reads sorted by error: a monotone-looking
    # curve is exactly what a high rank correlation means
    for p, pname in enumerate(("x1", "x2", "x3")):
        order = np.argsort(errors[:, p], kind="stable")
        xs = tuple(errors[order, p])
        line_chart(
            os.path.join(args.out_dir, f"adjusted_vs_error_{pname}.svg"),
            [Series("adjusted loss", xs, tuple(measures["adjusted"][order, p]))],
            title=f"adjusted loss against |{pname} error|",
            x_label=f"|{pname} - true|", y_label="adjusted loss",
            markers=False,
        )
    print(f"artifacts in {args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(run())
