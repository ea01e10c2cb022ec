"""Benchmark of ``annealdp solve``: timed, accuracy-checked, optionally traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``. One process drives ``annealdp.cli.main`` in a closed loop, one
step after another, with BLAS pinned to one thread. Step i of a run uses
``--seed <seed>+i``. The run repeats its workload's fixed step list
(a pass) until ``--seconds`` have elapsed. Times are reported at a
reference host speed (see hostspeed.py).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes over the same seeds, fails any traced step whose CSVs
differ from the untraced ones, and reports per-layer metrics as means per
step. Both metric lists come from BENCHMARK.json. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

# Set before numpy is imported here or in any child process.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 5

# Engines whose sample sets feed engines.distinct_share.
SAMPLERS = ("engines.heuristic_anneal", "engines.schrodinger_anneal",
            "merged.greedy_merged_sampler")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import and set up only, then exit")
    return p.parse_args(argv)


def metric_units(section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def prepare(workload_name: str):
    """Import the program and do the benchmark's own set-up."""
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Runner

    if workload_name not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload_name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    work_dir = os.path.join(WORK, workload_name)
    os.makedirs(work_dir, exist_ok=True)
    runner = Runner(WORKLOADS[workload_name], work_dir)
    runner.warm_up()
    return runner


def measure_setup(workload_name: str, host) -> float:
    """Median time, at reference host speed, of fresh interpreters that
    import the program and set up."""
    times = []
    before = host.sample()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload_name, "--seed", "0"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120,
        )
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        after = host.sample()
        times.append(seconds / host.factor(before, after))
        before = after
    return statistics.median(times)


def run_passes(runner, host, seed: int, seconds: float, tracer=None):
    """Closed loop of passes until ``seconds`` have gone by.

    Untraced, the loop stops at the first step past the deadline once one
    pass is complete. With a tracer, every pass runs untraced and then
    traced over the same seeds, and the loop stops only between passes.
    Every step is bracketed by host-speed samples. Returns (untraced
    passes, traced passes, failure messages); a pass is a list of
    StepResults, and the last untraced one may be partial.
    """
    steps = runner.workload.steps
    plain, traced, failures = [], [], []
    deadline = time.perf_counter() + seconds
    cal = host.sample()

    def timed_step(slot: str, seed: int):
        nonlocal cal
        r = runner.step(seed, slot)
        after = host.sample()
        r.host_factor = host.factor(cal, after)
        cal = after
        if r.failure:
            failures.append(f"seed {seed} ({slot}): {r.failure}")
        return r

    first = seed
    while True:
        seeds = range(first, first + steps)
        first += steps
        plain.append([])
        for j, s in enumerate(seeds):
            plain[-1].append(timed_step(f"u{j}", s))
            if tracer is None and len(plain) > 1 and time.perf_counter() >= deadline:
                return plain, traced, failures
        if tracer is not None:
            traced.append([])
            tracer.install()
            try:
                for j, s in enumerate(seeds):
                    tracer.begin_step(s)
                    traced[-1].append(timed_step(f"t{j}", s))
                    tracer.end_step()
            finally:
                tracer.uninstall()
            for s, ref, got in zip(seeds, plain[-1], traced[-1]):
                if got.failure is None and ref.failure is None and got.outputs != ref.outputs:
                    got.failure = "traced CSVs differ from the untraced run"
                    failures.append(f"seed {s} (traced): {got.failure}")
        if time.perf_counter() >= deadline:
            return plain, traced, failures


def pass_seconds(passes, steps: int) -> list[float]:
    """Each complete pass's step list time, at reference host speed."""
    return [sum(r.ref_seconds for r in p) for p in passes if len(p) == steps]


def layer_metrics(names, tracer, plain, traced) -> dict[str, float]:
    """Per-layer metrics as means per traced step; self times rescaled."""
    per_step = tracer.per_step_totals()
    factor = {r.seed: r.host_factor for p in traced for r in p}
    n = len(per_step)
    totals: dict[str, float] = {}
    for step, row in per_step.items():
        for key, value in row.items():
            if key.endswith(".self_s"):
                value /= factor[step]
            totals[key] = totals.get(key, 0.0) + value
    out = {name: totals.get(name, 0.0) / n for name in names}
    reads = sum(totals.get(f"{s}.reads", 0) for s in SAMPLERS)
    distinct = sum(totals.get(f"{s}.distinct", 0) for s in SAMPLERS)
    out["engines.distinct_share"] = distinct / reads if reads else 0.0
    out["quadratize.aux_vars"] = totals.get("quadratize.quadratize_full.aux_vars", 0) / n
    errors = [r.errors for p in traced for r in p if not r.failure]
    for i, p in enumerate(("x1", "x2", "x3")):
        out[f"cli.cmd_solve.err_{p}_pct"] = (
            statistics.fmean(e[i] for e in errors) if errors else math.nan)
    steps = len(traced[0])
    out["trace.overhead_s"] = (statistics.median(pass_seconds(traced, steps))
                               - statistics.median(pass_seconds(plain, steps)))
    return out


def report_shares(metrics: dict[str, float], step_s: float) -> None:
    """Human-readable: each layer's self time as a share of a traced step."""
    rows = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
    print(f"traced step mean {step_s:.4f} s; self time by layer:")
    for v, k in rows:
        if v > 0.0:
            print(f"  {k:<40}{v:>10.4f} s  {100.0 * v / step_s:6.2f} %")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_PIN)
    if not os.path.isfile(os.path.join(SRC, "annealdp", "cli.py")):
        print(f"error: no annealdp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        prepare(args.workload)
        return 0

    from hostspeed import HostSpeed

    host = HostSpeed()
    setup_s = None if args.trace else measure_setup(args.workload, host)
    runner = prepare(args.workload)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced, failures = run_passes(runner, host, args.seed, args.seconds, tracer)
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)

    steps = [r for p in plain + traced for r in p]
    plain_steps = [r for p in plain for r in p]
    step_times = [r.ref_seconds for r in plain_steps]
    wall = pass_seconds(plain, runner.workload.steps)
    print(f"workload {args.workload}: {len(wall)} passes of {runner.workload.steps} "
          f"step(s); {len(step_times)} untraced steps; times at reference host speed")
    print(f"measured step median {statistics.median(r.seconds for r in plain_steps):.4f} s; "
          f"host speed factor (measured / reference) median "
          f"{statistics.median(r.host_factor for r in plain_steps):.3f}")
    if args.trace:
        units = metric_units("per_layer")
        metrics = layer_metrics(units, tracer, plain, traced)
        report_shares(metrics, statistics.fmean(r.ref_seconds for p in traced for r in p))
        tracer.dump(os.path.join(WORK, args.workload, "spans.json"))
    else:
        units = metric_units("end_to_end")
        metrics = {"setup_s": setup_s, "wall_s": statistics.median(wall),
                   "step_p50_s": statistics.median(step_times)}
    for name in units:
        note = f"  (median of n={len(step_times)} steps)" if name == "step_p50_s" else ""
        print(f"  {name:<40}{metrics[name]:>14.6g} {units[name]}{note}")
    result = {
        "correct": not failures,
        "attempted": len(steps),
        "failed": sum(1 for r in steps if r.failure),
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name]) else None,
                           "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
