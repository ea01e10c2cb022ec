"""Command-line front end for the solver pipeline.

Subcommands:
  solve       run one of the five policy-iteration algorithms
  quadratize  reduce a polynomial file to quadratic, with provenance
  appendix-b  the two didactic activation models under cyclic schedules
  simulate    consumption path of an estimated policy vs the closed form
  bench       device timing accounting table

Configuration merges three layers with increasing precedence: built-in
defaults, a key=value config file (--config), and explicit flags. Every
artifact a run writes is a pure function of the resolved config, so
reruns produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import math
import os
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .bqm import CapacityError, QuboModel, brute_force, qubo_energy
from .engines import (
    Sampler,
    SamplerRequest,
    heuristic_anneal,
    schrodinger_anneal,
    sequential_greedy,
    timing_report,
)
from .merged import (
    CYCLE_BASE_US,
    MergedProblem,
    build_merged_problem,
    default_merged_encodings,
    greedy_merged_sampler,
    merged_schedule,
    multi_anneal_ppi,
    one_shot_ppi,
)
from .pbf import (
    BinaryEncoding,
    ParseError,
    Poly,
    read_poly,
    to_qubo,
    write_csv,
    write_poly,
    write_text,
)
from .quadratize import min_over_aux, quadratize_full
from .rbc import (
    DEFAULT_INIT,
    DEFAULT_PARAMS,
    DegenerateEstimateError,
    PpiState,
    classical_ppi,
    collocation_grid,
    combinatorial_ppi,
    default_valuation_encodings,
    hybrid_ppi,
    oracle_sampler,
    pct_errors,
    simulate_consumption,
    true_parameters,
    write_consumption_csv,
    write_iteration_csv,
)
from .schedules import forward_schedule, grouped_cycle_schedule
from .svgplot import Series, line_chart

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_CAPACITY = 4

ALGORITHMS = ("classical", "combinatorial", "hybrid", "multi-anneal", "one-shot")
ENGINES = ("greedy", "heuristic", "statevector")

# brute-force verification of a reduction enumerates original
# assignments; past this width the check stops being interactive
VERIFY_MAX_VARS = 12

# Magnitudes an explicit --s2/--s3 register scale may take. Below, the
# squared bit weights fall under the pruning tolerance of 1e-12, so the
# objective's curvature in the register is dropped, and at smaller scales
# its bits leave the QUBO altogether; above, the coefficients and the
# decoded estimates leave the range the log surrogates and the engines
# handle. The default scales at every width from 1 to 20 bits lie inside.
SCALE_RANGE = (1e-6, 1e3)


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Resolved run settings; unknown keys are rejected at parse time."""

    algorithm: str = "combinatorial"
    engine: str = "heuristic"
    j1: int = 6
    j2: int | None = None
    j3: int | None = None
    s2: float | None = None
    s3: float | None = None
    reads: int | None = None
    cycles: int | None = None
    iterations: int | None = None
    executions: int = 1
    reversal: float = 0.0
    seed: int = 0
    keep_fraction: float = 0.1
    k_count: int = 133
    sweeps: int = 256
    anneal_time: float | None = None
    bias: float = 0.0
    init_true: bool = dataclasses.field(
        default=False, metadata={"help": "start from the closed-form parameters"})
    out_dir: str = "runs"

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise UsageError(f"algorithm must be one of {', '.join(ALGORITHMS)}")
        if self.engine not in ENGINES:
            raise UsageError(f"engine must be one of {', '.join(ENGINES)}")
        for name in ("j1", "j2", "j3"):
            v = getattr(self, name)
            if v is not None and not 1 <= v <= 20:
                raise UsageError(f"{name} must lie in [1, 20]")
        for name in ("reads", "cycles", "iterations", "executions", "sweeps"):
            v = getattr(self, name)
            if v is not None and v < (0 if name == "iterations" else 1):
                raise UsageError(f"{name} must be positive")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise UsageError("keep_fraction must lie in (0, 1]")
        if not 0.0 <= self.reversal < 1.0:
            raise UsageError("reversal must lie in [0, 1)")
        if self.k_count < 2:
            raise UsageError("k_count must be >= 2")
        for name in ("s2", "s3"):
            v = getattr(self, name)
            if v is not None and not SCALE_RANGE[0] <= abs(v) <= SCALE_RANGE[1]:
                raise UsageError(f"{name} must have magnitude in [{SCALE_RANGE[0]:g}, "
                                 f"{SCALE_RANGE[1]:g}]")
        for name in ("anneal_time", "bias"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise UsageError(f"{name} must be finite")
        if self.anneal_time is not None and self.anneal_time < 5.0:
            raise UsageError("anneal_time must be >= 5 microseconds")
        if self.bias < 0.0:
            raise UsageError("bias must be nonnegative")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")


# Each field's value type, the X of an `X | None` annotation: the one
# declaration both the solve flags and the config-file values parse by.
_FIELD_TYPES = {
    name: next((a for a in typing.get_args(hint) if a is not type(None)), hint)
    for name, hint in typing.get_type_hints(RunConfig).items()
}
_CONFIG_FIELDS = set(_FIELD_TYPES)
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        return _BOOL_WORDS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise UsageError(f"config value for '{key}' not parseable: {raw!r}") from None


@contextlib.contextmanager
def _reading(what: str):
    """An input file that cannot be opened, decoded or read as numbers is
    a usage error. A polynomial's ParseError passes through with its line
    number."""
    try:
        yield
    except ParseError:
        raise
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {what}: {exc}") from None


@contextlib.contextmanager
def _writing(path: str):
    """An output file that cannot be written is a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _make_out_dir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory: {exc}") from None
    return path


def read_config_file(path: str) -> dict:
    """key=value lines; # comments; unknown keys rejected."""
    values: dict = {}
    with _reading("config file"), open(path) as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise UsageError(f"{path}:{lineno}: unknown config key '{key}'")
        values[key] = _coerce(key, raw)
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = {}
    if getattr(args, "config", None):
        merged.update(read_config_file(args.config))
    for key in _CONFIG_FIELDS:
        v = getattr(args, key, None)
        if v is not None:
            merged[key] = v
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


def write_config_artifact(path: str, cfg: RunConfig) -> None:
    values = ((f, getattr(cfg, f)) for f in sorted(_CONFIG_FIELDS))
    write_text(path, "".join(f"{f} = {v}\n" for f, v in values if v is not None))


# ---------------------------------------------------------------------------
# solve

def _resolved_iterations(cfg: RunConfig) -> int:
    if cfg.iterations is not None:
        return cfg.iterations
    return 0 if cfg.init_true else 2


def _resolved_reads(cfg: RunConfig) -> int:
    if cfg.reads is not None:
        return cfg.reads
    return {"hybrid": 100, "multi-anneal": 50, "one-shot": 200}.get(cfg.algorithm, 100)


def _resolved_cycles(cfg: RunConfig) -> int:
    if cfg.cycles is not None:
        return cfg.cycles
    return 3 if cfg.algorithm == "one-shot" else 1

def _valuation_encodings(cfg: RunConfig) -> tuple[BinaryEncoding, BinaryEncoding]:
    """Wide-register pair for the combinatorial and hybrid paths, 9 bits
    wide by default."""
    return default_valuation_encodings(cfg.j2 if cfg.j2 is not None else 9,
                                       cfg.j3 if cfg.j3 is not None else 9, cfg.s2, cfg.s3)


def _merged_encodings(cfg: RunConfig) -> tuple[BinaryEncoding, BinaryEncoding, BinaryEncoding]:
    """Merged-run registers, 6 bits wide by default."""
    return default_merged_encodings(DEFAULT_PARAMS, cfg.j1, cfg.j2 if cfg.j2 is not None else 6,
                                    cfg.j3 if cfg.j3 is not None else 6, cfg.s2, cfg.s3)


def _noop_state() -> PpiState:
    return PpiState(*true_parameters(DEFAULT_PARAMS), iteration=0)


def _executions(cfg: RunConfig) -> typing.Callable[[int], tuple[PpiState, list[PpiState]]]:
    """The configured algorithm as one execution per seed, returning its
    terminal state and iteration history. Executions differ only in their
    seed, so the grid, the problem, its sampler and its schedule are built
    here, once per solve."""
    grid = collocation_grid(DEFAULT_PARAMS, cfg.k_count)
    init = true_parameters(DEFAULT_PARAMS) if cfg.init_true else DEFAULT_INIT
    alg = cfg.algorithm

    if alg in ("classical", "combinatorial", "hybrid"):
        iters = _resolved_iterations(cfg)
        if iters == 0:
            if not cfg.init_true:
                raise UsageError("iterations = 0 is only meaningful with init_true")
            return lambda seed: (_noop_state(), [])
        if alg == "classical":
            driver = functools.partial(classical_ppi, DEFAULT_PARAMS, grid=grid, init=init,
                                       fixed_iterations=iters)
        elif alg == "combinatorial":
            driver = functools.partial(combinatorial_ppi, DEFAULT_PARAMS, grid=grid, init=init,
                                       encodings=_valuation_encodings(cfg),
                                       fixed_iterations=iters)
        else:
            driver = functools.partial(hybrid_ppi, DEFAULT_PARAMS, sampler=_sampler(cfg),
                                       schedule=forward_schedule(_per_anneal_time(cfg)),
                                       grid=grid, encodings=_valuation_encodings(cfg),
                                       init=init, iterations=iters, reads=_resolved_reads(cfg),
                                       keep_fraction=cfg.keep_fraction)

        def execute(seed: int) -> tuple[PpiState, list[PpiState]]:
            history: list[PpiState] = []
            if alg == "hybrid":
                state = driver(seed=seed, history=history)
            else:
                state = driver(history=history)
            return state, history

        return execute

    if cfg.engine == "statevector":
        raise UsageError("statevector engine cannot hold the merged problem; "
                         "use greedy or heuristic")
    problem = build_merged_problem(DEFAULT_PARAMS, encodings=_merged_encodings(cfg),
                                   grid=grid, bias=cfg.bias)
    sampler = _sampler(cfg, problem)
    cycles = _resolved_cycles(cfg)
    schedule = merged_schedule(problem, cycles=cycles, total_time=_per_anneal_time(cfg),
                               reinitialize=alg != "multi-anneal", reversal_target=cfg.reversal)
    if alg == "multi-anneal":
        merged_driver = functools.partial(multi_anneal_ppi, problem, sampler=sampler,
                                          schedule=schedule, reads=_resolved_reads(cfg),
                                          init=init)
    else:
        merged_driver = functools.partial(one_shot_ppi, problem, sampler=sampler,
                                          schedule=schedule, reads=_resolved_reads(cfg),
                                          cycles=cycles, keep_fraction=cfg.keep_fraction)

    def execute_merged(seed: int) -> tuple[PpiState, list[PpiState]]:
        state = merged_driver(seed=seed)
        return state, [state]

    return execute_merged


def _sampler(cfg: RunConfig, problem: MergedProblem | None = None) -> Sampler:
    """The configured engine; the greedy oracle is exhaustive search on the
    valuation QUBO, or the grouped greedy walk on a merged problem."""
    if cfg.engine == "greedy":
        if problem is None:
            return oracle_sampler
        return functools.partial(greedy_merged_sampler, problem)
    if cfg.engine == "heuristic":
        return functools.partial(heuristic_anneal, sweeps=cfg.sweeps)
    return schrodinger_anneal


def _per_anneal_time(cfg: RunConfig) -> float | None:
    """Schedule length of one anneal in microseconds; None for the
    algorithms that run no sampler."""
    if cfg.algorithm in ("classical", "combinatorial"):
        return None
    if cfg.anneal_time is not None:
        return cfg.anneal_time
    if cfg.algorithm == "hybrid":
        return 40.0 if cfg.engine == "statevector" else 20.0
    return CYCLE_BASE_US * (2 * _resolved_cycles(cfg) - 1)


def cmd_solve(cfg: RunConfig) -> int:
    _make_out_dir(cfg.out_dir)
    tag = cfg.algorithm.replace("-", "_")
    terminals: list[PpiState] = []
    histories: list[list[PpiState]] = []
    execute = _executions(cfg)
    for e in range(cfg.executions):
        state, history = execute(cfg.seed + e)
        terminals.append(state)
        histories.append(history)

    trace = histories[0] if cfg.executions == 1 and histories[0] else terminals
    path = os.path.join(cfg.out_dir, f"{tag}_iterations.csv")
    with _writing(path):
        write_iteration_csv(path, trace)
    path = os.path.join(cfg.out_dir, f"{tag}_config.txt")
    with _writing(path):
        write_config_artifact(path, cfg)

    truth = true_parameters(DEFAULT_PARAMS)
    est = np.array([s.as_tuple() for s in terminals])
    errs = np.array([pct_errors(s, truth) for s in terminals])
    # parameter -> (true, mean, sd, mean |error| %), for the CSV and stdout
    stats = {name: (truth[p], float(est[:, p].mean()), float(est[:, p].std()),
                    float(errs[:, p].mean())) for p, name in enumerate(("x1", "x2", "x3"))}
    path = os.path.join(cfg.out_dir, f"{tag}_summary.csv")
    with _writing(path):
        write_csv(path, [["parameter", "true_value", "mean_estimate", "sd_estimate",
                          "mean_pct_error"],
                         *([name, *map(repr, row)] for name, row in stats.items())])

    xs = tuple(range(1, len(trace) + 1)) if trace else (0,)
    trace_errs = [pct_errors(s, truth) for s in trace]
    series = []
    for p, name in enumerate(("x1", "x2", "x3")):
        ys = tuple(e[p] for e in trace_errs) or (0.0,)
        series.append(Series(name, xs[: len(ys)], ys))
    x_title = "iteration" if (cfg.executions == 1 and histories[0]) else "execution"
    path = os.path.join(cfg.out_dir, f"{tag}_errors.svg")
    with _writing(path):
        line_chart(path, series, title=f"{cfg.algorithm}: error by {x_title}",
                   x_label=x_title, y_label="absolute error (%)")

    print(f"algorithm: {cfg.algorithm}   engine: {cfg.engine}   seed: {cfg.seed}   "
          f"executions: {cfg.executions}")
    print(f"{'parameter':<10}{'true':>14}{'mean':>14}{'sd':>12}{'|error| %':>12}")
    for name, (true, mean, sd, err) in stats.items():
        print(f"{name:<10}{true:>14.6f}{mean:>14.6f}{sd:>12.2e}{err:>12.4f}")
    t_anneal = _per_anneal_time(cfg)
    if t_anneal is not None:
        rep = timing_report(_resolved_reads(cfg), t_anneal)
        print(f"per-anneal time: {t_anneal:.1f} us   reads: {rep.reads}   "
              f"accounting total: {rep.total:.0f} us")
    print(f"artifacts in {cfg.out_dir}/{tag}_*")
    return EXIT_OK


# ---------------------------------------------------------------------------
# quadratize

def cmd_quadratize(args: argparse.Namespace) -> int:
    with _reading("polynomial file"):
        poly = read_poly(args.input)
    out_path = args.out if args.out else args.input + ".quad"
    result = quadratize_full(poly)
    with _writing(out_path):
        write_poly(result.qubo_poly, out_path)
    n_aux = len(result.alloc.records)
    print(f"reduced degree {poly.degree} -> {result.qubo_poly.degree}; "
          f"{n_aux} auxiliary variable{'s' if n_aux != 1 else ''}")
    for rec in result.alloc.records:
        term = " ".join(f"x{v}" for v in sorted(rec.term))
        print(f"  aux x{rec.var}  method={rec.method}  term=({term})")
    print(f"wrote {out_path}")

    if args.verify:
        variables = poly.variables()
        n = (max(variables) + 1) if variables else 0
        if n > VERIFY_MAX_VARS:
            raise CapacityError(
                f"verification enumerates 2^{n} assignments; limit is {VERIFY_MAX_VARS} variables"
            )
        aux = result.alloc.aux_vars
        for k in range(1 << n):
            assign = {v: (k >> v) & 1 for v in range(n)}
            want = poly.evaluate(assign)
            got = min_over_aux(result.qubo_poly, aux, assign)
            if not math.isclose(want, got, rel_tol=1e-9, abs_tol=1e-9):
                bits = "".join(str((k >> v) & 1) for v in range(n))
                print(f"verification FAILED at assignment {bits}: "
                      f"original {want!r}, reduced-min {got!r}", file=sys.stderr)
                return EXIT_VERIFY
        print(f"verified: equivalent on all 2^{n} assignments")
    return EXIT_OK


# ---------------------------------------------------------------------------
# appendix-b

def single_activation_toy() -> QuboModel:
    """Two variables, one conditional trap.

    With variable 0 down, flipping variable 1 pays -1; only after that
    does flipping variable 0 pay too. A single pass over the groups
    therefore parks in (0, 1) at energy -1 while the global minimum is
    (1, 1) at -2.
    """
    return QuboModel(2, {(0, 0): 1.0, (1, 1): -1.0, (0, 1): -2.0})


def two_component_toy() -> tuple[Poly, QuboModel, tuple[int, ...]]:
    """Two activation bits over two component bits, cubic, reduced.

    The first window over {0, 2} finds nothing to gain; only once
    variable 1 and activation 3 settle does revisiting the first group
    pay, so one cycle ends at energy 0 and two cycles reach -1.
    """
    z = Poly.variable
    cubic = (
        2 * z(2) + z(0) * z(2) - 2 * (z(0) * z(1) * z(2))
        + 2 * z(3) - z(1) * z(3) - 2 * (z(0) * z(1) * z(3))
    )
    reduced = quadratize_full(cubic)
    qubo, offset = to_qubo(reduced.qubo_poly)
    assert offset == 0.0
    return cubic, qubo, reduced.alloc.aux_vars


def _toy_run(model_name: str, engine: str, cycles: int, reads: int, seed: int):
    """One report row: (modal state, its energy, ground share, verdict)."""
    if model_name == "single":
        model = single_activation_toy()
        groups = [(0,), (1,)]
        schedule = grouped_cycle_schedule(24.0 * cycles, groups, cycles=cycles,
                                          down_fraction=0.02)
        initial = (0, 0)
        n_show = 2
        cubic = None
        aux = ()
    else:
        cubic, model, aux = two_component_toy()
        groups = [(0, 2), (1, 3)]
        schedule = grouped_cycle_schedule(16.0 * cycles, groups, cycles=cycles,
                                          always_active=aux, down_fraction=0.5)
        initial = (0,) * model.n
        n_show = 4

    ground = brute_force(model).min_energy
    if engine == "greedy":
        if model_name == "single":
            state = sequential_greedy(model, groups, initial, cycles=cycles)
            energy = qubo_energy(model, state)
        else:
            state = sequential_greedy(cubic, [(0,), (1,)], (0, 0, 0, 0), cycles=cycles,
                                      activations=(2, 3))
            energy = cubic.evaluate(dict(enumerate(state)))
        share = 1.0 if math.isclose(energy, ground, abs_tol=1e-9) else 0.0
        modal = tuple(state[:n_show])
    else:
        req = SamplerRequest(model, schedule, reads=reads, initial_state=initial, seed=seed)
        if engine == "statevector":
            ss = schrodinger_anneal(req)
        else:
            ss = heuristic_anneal(req, t_hot=1e-9)
        counts: dict[tuple[int, ...], int] = {}
        best: dict[tuple[int, ...], float] = {}
        hits = 0
        for rec in ss.records:
            key = tuple(rec.state[:n_show])
            counts[key] = counts.get(key, 0) + rec.occurrences
            best[key] = min(best.get(key, math.inf), rec.energy)
            if math.isclose(rec.energy, ground, abs_tol=1e-9):
                hits += rec.occurrences
        modal = max(sorted(counts), key=lambda k: counts[k])
        share = hits / ss.total_reads
        energy = best[modal]
    verdict = "correct" if math.isclose(energy, ground, abs_tol=1e-9) else "incorrect"
    return modal, energy, share, verdict


def cmd_appendix_b(args: argparse.Namespace) -> int:
    engines = [args.engine] if args.engine else list(ENGINES)
    if args.reads < 1:
        raise UsageError("reads must be positive")
    if args.seed < 0:
        raise UsageError("seed must be nonnegative")
    rows = []
    for model_name, label in (("single", "single-activation"), ("two", "two-component")):
        for engine in engines:
            for cycles in (1, 2):
                modal, energy, share, verdict = _toy_run(model_name, engine, cycles,
                                                         args.reads, args.seed)
                rows.append((label, engine, cycles,
                             "".join(str(b) for b in modal), energy, share, verdict))
    print(f"{'model':<18}{'engine':<13}{'cycles':<8}{'modal state':<13}"
          f"{'energy':>8}{'ground share':>14}  verdict")
    for label, engine, cycles, modal, energy, share, verdict in rows:
        print(f"{label:<18}{engine:<13}{cycles:<8}{modal:<13}{energy:>8.2f}{share:>14.3f}  {verdict}")
    if args.out_dir:
        _make_out_dir(args.out_dir)
        path = os.path.join(args.out_dir, "appendix_b.csv")
        with _writing(path):
            write_csv(path, [["model", "engine", "cycles", "modal_state", "energy",
                              "ground_share", "verdict"], *rows])
        print(f"wrote {args.out_dir}/appendix_b.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    if args.x1 is not None:
        x1 = args.x1
    elif args.true:
        x1 = true_parameters(DEFAULT_PARAMS)[0]
    elif args.from_summary:
        x1 = _x1_from_summary(args.from_summary)
    else:
        raise UsageError("need a policy: pass --x1, --true, or --from-summary")
    try:
        sim = simulate_consumption(
            x1,
            periods=args.periods,
            shock_index=args.shock_index,
            shock_period=args.shock_period,
            k0=args.k0,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out_dir = _make_out_dir(args.out_dir)
    csv_path = os.path.join(out_dir, "consumption.csv")
    with _writing(csv_path):
        write_consumption_csv(csv_path, sim)
    periods = tuple(range(len(sim.z_path)))
    svg_path = os.path.join(out_dir, "consumption.svg")
    with _writing(svg_path):
        line_chart(
            svg_path,
            [Series("closed form", periods, sim.c_exact),
             Series("estimated policy", periods, sim.c_model)],
            title="consumption under a first-period productivity shock",
            x_label="period", y_label="consumption",
        )
    gaps = sim.rel_gap
    worst = max(range(len(gaps)), key=lambda t: gaps[t])
    print(f"x1 = {x1!r}; max relative gap {100 * gaps[worst]:.4f}% at period {worst}")
    print(f"wrote {csv_path} and {out_dir}/consumption.svg")
    return EXIT_OK


def _x1_from_summary(path: str) -> float:
    with _reading("summary"), open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row.get("parameter") == "x1":
                # a missing cell fails the conversion like any non-number
                return float(row.get("mean_estimate") or "")
    raise UsageError(f"no x1 row found in {path}")


# ---------------------------------------------------------------------------
# bench

def cmd_bench(args: argparse.Namespace) -> int:
    out_dir = _make_out_dir(args.out_dir)
    grid_reads = (1, 10, 100, 1000)
    grid_times = (5.0, 20.0, 23.0, 115.0)
    path = os.path.join(out_dir, "bench.csv")
    with _writing(path):
        write_csv(path, [["reads", "t_anneal_us", "total_us"],
                         *([r, repr(t), repr(timing_report(r, t).total)]
                           for r in grid_reads for t in grid_times)])
    print("accounting totals (microseconds):")
    header = "reads".ljust(8) + "".join(f"t={t:g}".rjust(12) for t in grid_times)
    print(header)
    for r in grid_reads:
        row = f"{r:<8}" + "".join(f"{timing_report(r, t).total:>12.0f}" for t in grid_times)
        print(row)
    print(f"wrote {out_dir}/bench.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call of main; callers must not add to it."""
    parser = argparse.ArgumentParser(
        prog="annealdp",
        description="Dynamic programming by simulated annealing of merged QUBOs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run a policy-iteration algorithm")
    ps.add_argument("--config", help="key=value config file; flags override it")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if _FIELD_TYPES[f.name] is bool:
            ps.add_argument(flag, action="store_const", const=True, help=f.metadata.get("help"))
        else:
            ps.add_argument(flag, type=_FIELD_TYPES[f.name])
    # cmd_solve is looked up per call, so a wrapper patched onto the module sees every run
    ps.set_defaults(func=lambda a: cmd_solve(resolve_config(a)))

    pq = sub.add_parser("quadratize", help="reduce a polynomial file to quadratic")
    pq.add_argument("input")
    pq.add_argument("--out", default=None)
    pq.add_argument("--verify", action="store_true",
                    help=f"brute-force equivalence check (n <= {VERIFY_MAX_VARS})")
    pq.set_defaults(func=cmd_quadratize)

    pb = sub.add_parser("appendix-b", help="didactic activation models under cyclic schedules")
    pb.add_argument("--engine", choices=ENGINES, default=None,
                    help="default: run all three")
    pb.add_argument("--reads", type=int, default=1000)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out-dir", dest="out_dir", default=None)
    pb.set_defaults(func=cmd_appendix_b)

    pm = sub.add_parser("simulate", help="consumption path against the closed form")
    pm.add_argument("--x1", type=float, default=None)
    pm.add_argument("--true", action="store_true", help="use the closed-form policy")
    pm.add_argument("--from-summary", dest="from_summary", default=None,
                    help="read x1 from a solve summary CSV")
    pm.add_argument("--periods", type=int, default=10)
    pm.add_argument("--shock-index", dest="shock_index", type=int, default=0)
    pm.add_argument("--shock-period", dest="shock_period", type=int, default=1)
    pm.add_argument("--k0", type=float, default=None)
    pm.add_argument("--out-dir", dest="out_dir", default="runs")
    pm.set_defaults(func=cmd_simulate)

    pn = sub.add_parser("bench", help="device timing accounting table")
    pn.add_argument("--out-dir", dest="out_dir", default="runs")
    pn.set_defaults(func=cmd_bench)

    return parser


# exception type -> (exit code, message prefix after "error: ")
_ERROR_EXITS = {
    UsageError: (EXIT_USAGE, ""),
    ParseError: (EXIT_USAGE, ""),
    CapacityError: (EXIT_CAPACITY, ""),
    DegenerateEstimateError: (EXIT_VERIFY, "degenerate estimate: "),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_ERROR_EXITS) as exc:
        code, prefix = next(_ERROR_EXITS[t] for t in type(exc).__mro__ if t in _ERROR_EXITS)
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
