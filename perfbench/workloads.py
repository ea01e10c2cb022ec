"""The benchmark's workloads, the step that runs them, and its checks.

A workload is a fixed list of steps; a step is one ``annealdp solve``
invocation (two in ``exact-small``), driven in-process through
``annealdp.cli.main`` with only the flags listed here plus ``--seed`` and
``--out-dir``. Why each workload exists, and which layer it stresses, is
in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass

from annealdp import cli
from annealdp.merged import default_merged_encodings
from annealdp.pbf import BinaryEncoding
from annealdp.rbc import (
    DEFAULT_PARAMS,
    collocation_grid,
    combinatorial_ppi,
    true_parameters,
)

TRUTH = true_parameters(DEFAULT_PARAMS)
PARAMS = ("x1", "x2", "x3")
# CSV artifacts compared byte for byte between traced and untraced steps
ARTIFACTS = ("summary", "iterations")


def _span(enc: BinaryEncoding) -> tuple[float, float]:
    lo, hi = sorted((0.0, enc.scale * enc.max_int))
    return lo, hi


def _spanning(var_base: int, bits: int, truth: float) -> BinaryEncoding:
    """A register spanning [0, 2 x*], as the CLI builds away from 9 bits."""
    return BinaryEncoding(var_base, bits, 2.0 * truth / ((1 << bits) - 1))


# Registers of the merged problem at the CLI defaults j1 = j2 = j3 = 6.
MERGED_ENC = default_merged_encodings(DEFAULT_PARAMS, 6, 6, 6)
# The policy step of the valuation algorithms keeps x1 inside (0, 1).
UNIT = (0.0, 1.0)


@dataclass(frozen=True)
class Solve:
    """One ``solve`` invocation and what its output must satisfy."""

    flags: tuple[str, ...]
    ranges: tuple[tuple[float, float], ...]  # (lo, hi) for x1, x2, x3
    seed_free: bool = False  # output ignores --seed: every step must match

    @property
    def tag(self) -> str:
        return self.flags[self.flags.index("--algorithm") + 1].replace("-", "_")


@dataclass(frozen=True)
class Workload:
    name: str
    solves: tuple[Solve, ...]  # one step runs these in order
    steps: int  # length of the fixed step list (one pass)
    oracle: bool = False  # cross-check (x2, x3) against combinatorial_ppi


_MERGED_RANGES = tuple(_span(e) for e in MERGED_ENC)


def _valuation_ranges(bits: int) -> tuple[tuple[float, float], ...]:
    """x1, x2, x3 ranges of a valuation algorithm at `bits`-bit registers."""
    return UNIT, _span(_spanning(0, bits, TRUTH[1])), _span(_spanning(bits, bits, TRUTH[2]))


# Steps are kept short so that a 30-second run holds 10 to 30 of them: the
# host's speed drifts within seconds, so medians of fewer, longer steps spread
# too much. There is no multi-anneal (one read at a time) workload:
# `solve --algorithm multi-anneal --engine heuristic --reads 4 --seed 1815163413`
# exits 1 because its lowest-policy-loss read decodes x1 = 0, which PpiState
# rejects, and a benchmark workload must run without failures.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oneshot-heuristic",
            (Solve(("--algorithm", "one-shot", "--engine", "heuristic"), _MERGED_RANGES),),
            steps=4,
        ),
        Workload(
            "greedy-oracle",
            (Solve(("--algorithm", "one-shot", "--engine", "greedy", "--reads", "2",
                    "--cycles", "1"), _MERGED_RANGES, seed_free=True),),
            steps=1,
            oracle=True,
        ),
        Workload(
            "exact-small",
            (
                Solve(("--algorithm", "combinatorial", "--j2", "8", "--j3", "8"),
                      _valuation_ranges(9), seed_free=True),
                Solve(("--algorithm", "hybrid", "--engine", "statevector", "--j2", "4", "--j3", "4"),
                      _valuation_ranges(5)),
            ),
            steps=1,
        ),
    )
}


class StepFailure(Exception):
    """A step raised, exited non-zero, wrote no summary, or failed a check."""


@dataclass
class StepResult:
    seed: int
    seconds: float  # measured wall time of the step's solves
    errors: tuple[float, float, float]  # mean |estimate / closed form - 1| * 100
    outputs: dict[str, bytes]  # artifact name -> bytes, for byte comparisons
    failure: str | None = None
    host_factor: float = 1.0  # host slowness against the reference speed

    @property
    def ref_seconds(self) -> float:
        """The step's time at the reference host speed."""
        return self.seconds / self.host_factor


def oracle_bits() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bits of combinatorial_ppi's (x2, x3) at the merged 7-bit registers.

    This is the reference acceptance criterion 06 holds the greedy oracle to.
    """
    enc2 = _spanning(0, MERGED_ENC[1].bit_count, TRUTH[1])
    enc3 = _spanning(enc2.bit_count, MERGED_ENC[2].bit_count, TRUTH[2])
    ref = combinatorial_ppi(DEFAULT_PARAMS, grid=collocation_grid(DEFAULT_PARAMS),
                            encodings=(enc2, enc3), fixed_iterations=2)
    return enc2.nearest_bits(ref.x2), enc3.nearest_bits(ref.x3)


class Runner:
    """Runs a workload's steps and checks every output."""

    def __init__(self, workload: Workload, work_dir: str) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.oracle = oracle_bits() if workload.oracle else None
        self.first_seen: dict[str, bytes] = {}

    def warm_up(self) -> None:
        """One cheap solve, so first-call costs land in set-up, not in step 0."""
        out = os.path.join(self.work_dir, "warmup")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["solve", "--algorithm", "classical", "--out-dir", out])
        if rc != 0:
            raise RuntimeError(f"warm-up solve exited {rc}")
        _read_summary(os.path.join(out, "classical_summary.csv"))

    def step(self, seed: int, slot: str) -> StepResult:
        out = os.path.join(self.work_dir, slot)
        for solve in self.workload.solves:  # no check may read a previous step's file
            for kind in ARTIFACTS:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(out, f"{solve.tag}_{kind}.csv"))
        seconds = 0.0
        try:
            for solve in self.workload.solves:
                seconds += _invoke(["solve", *solve.flags, "--seed", str(seed), "--out-dir", out])
            outputs, errors = self._check(out)
        except StepFailure as exc:
            return StepResult(seed, seconds, (math.nan,) * 3, {}, str(exc))
        return StepResult(seed, seconds, errors, outputs)

    def _check(self, out: str) -> tuple[dict[str, bytes], tuple[float, float, float]]:
        outputs: dict[str, bytes] = {}
        errors = []
        for solve in self.workload.solves:
            path = os.path.join(out, f"{solve.tag}_summary.csv")
            rows = _read_summary(path)
            for p, (lo, hi) in zip(PARAMS, solve.ranges):
                est = rows[p]["mean_estimate"]
                if not lo - 1e-9 <= est <= hi + 1e-9:
                    raise StepFailure(f"{solve.tag}: {p} = {est!r} outside [{lo}, {hi}]")
            if self.oracle is not None:
                got = (MERGED_ENC[1].nearest_bits(rows["x2"]["mean_estimate"]),
                       MERGED_ENC[2].nearest_bits(rows["x3"]["mean_estimate"]))
                if got != self.oracle:
                    raise StepFailure(f"{solve.tag}: (x2, x3) bits {got} differ from the "
                                      f"exhaustive search's {self.oracle}")
            errors.append([rows[p]["mean_pct_error"] for p in PARAMS])
            for kind in ARTIFACTS:
                name = f"{solve.tag}_{kind}.csv"
                with open(os.path.join(out, name), "rb") as fh:
                    outputs[name] = fh.read()
            if solve.seed_free:
                name = f"{solve.tag}_summary.csv"
                first = self.first_seen.setdefault(name, outputs[name])
                if outputs[name] != first:
                    raise StepFailure(f"{name} changed between seeds; this solve ignores --seed")
        means = tuple(sum(e[p] for e in errors) / len(errors) for p in range(3))
        return outputs, means


def _invoke(argv: list[str]) -> float:
    """Wall seconds of one in-process ``annealdp`` call; raises StepFailure."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except SystemExit as exc:
        raise StepFailure(f"{' '.join(argv)}: exited via SystemExit({exc.code})") from None
    except Exception:
        traceback.print_exc(file=sys.stderr)
        raise StepFailure(f"{' '.join(argv)}: raised") from None
    seconds = time.perf_counter() - t0
    if rc != 0:
        raise StepFailure(f"{' '.join(argv)}: exit code {rc}")
    return seconds


def _read_summary(path: str) -> dict[str, dict[str, float]]:
    """Rows of a summary CSV by parameter; every field finite, truth exact."""
    try:
        with open(path, newline="") as fh:
            rows = {r["parameter"]: r for r in csv.DictReader(fh)}
        parsed = {p: {k: float(v) for k, v in rows[p].items() if k != "parameter"}
                  for p in PARAMS}
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise StepFailure(f"{path}: no parseable summary ({exc!r})") from None
    for p, truth in zip(PARAMS, TRUTH):
        if not all(math.isfinite(v) for v in parsed[p].values()):
            raise StepFailure(f"{path}: non-finite value in row {p}")
        if parsed[p]["true_value"] != truth:
            raise StepFailure(f"{path}: true_value of {p} is not the closed form")
    return parsed
