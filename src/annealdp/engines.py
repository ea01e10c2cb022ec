"""Sampling engines over binary quadratic models.

Three interchangeable backends: an exact state-vector integrator of the
time-dependent transverse-field Hamiltonian (small n), a seeded
heat-bath (Glauber) annealer that honors the same schedule semantics (any n),
and a deterministic sequential-greedy idealization of grouped cyclic
anneals. Plus the device timing model used for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bqm import (
    _BLOCK_BITS,
    BRUTE_FORCE_MAX_VARS,
    CapacityError,
    IsingModel,
    QuboModel,
    _rank_bound,
    _record_candidates,
    _split_ranking,
    energy_terms,
    fold_indices,
    fold_values,
    value_domain,
)
from .pbf import Poly
from .schedules import AnnealSchedule, fraction_table

STATE_VECTOR_MAX_VARS = 16


class IntegrationError(Exception):
    """State-vector norm drifted beyond tolerance in one step."""


@dataclass(frozen=True)
class TimingReport:
    """Device-style wall time: one programming stage plus per-read anneal
    and readout. All times in microseconds."""

    reads: int
    t_anneal: float
    t_program: float = 9000.0
    t_readout: float = 120.0

    @property
    def total(self) -> float:
        return self.t_program + self.reads * (self.t_anneal + self.t_readout)


def timing_report(
    reads: int,
    t_anneal: float,
    t_program: float = 9000.0,
    t_readout: float = 120.0,
) -> TimingReport:
    if reads < 1:
        raise ValueError("reads must be >= 1")
    if t_anneal < 5.0:
        raise ValueError("anneal time below the 5 microsecond device minimum")
    return TimingReport(reads, t_anneal, t_program, t_readout)


@dataclass(frozen=True)
class SamplerRequest:
    model: IsingModel | QuboModel
    schedule: AnnealSchedule
    reads: int = 1
    initial_state: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.reads < 1:
            raise ValueError("reads must be >= 1")
        if self.initial_state is not None:
            object.__setattr__(self, "initial_state", tuple(self.initial_state))
            if len(self.initial_state) != self.model.n:
                raise ValueError(
                    f"initial_state length {len(self.initial_state)} != n={self.model.n}"
                )
            allowed = (0, 1) if isinstance(self.model, QuboModel) else (-1, 1)
            for v in self.initial_state:
                if v not in allowed:
                    raise ValueError(f"initial_state value {v!r} not in {allowed}")


@dataclass(frozen=True)
class SampleRecord:
    state: tuple[int, ...]
    energy: float
    occurrences: int


@dataclass(frozen=True)
class SampleSet:
    records: tuple[SampleRecord, ...]
    norm_drift: float = 0.0

    def lowest(self) -> SampleRecord:
        return self.records[0]

    @property
    def total_reads(self) -> int:
        return sum(r.occurrences for r in self.records)

    def expand_states(self) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        for r in self.records:
            out.extend([r.state] * r.occurrences)
        return out


# The one engine shape: heuristic_anneal and schrodinger_anneal (their
# keywords bound with functools.partial), rbc.oracle_sampler, and
# merged.greedy_merged_sampler with its problem bound.
Sampler = Callable[[SamplerRequest], SampleSet]


def _assemble(
    model: IsingModel | QuboModel | Poly,
    states: Iterable[tuple[int, ...]],
    norm_drift: float = 0.0,
) -> SampleSet:
    """One record per distinct read state, with its exact energy (a
    Poly's constant included), sorted by energy, then by occurrences,
    most first, then by state."""
    counts: dict[tuple[int, ...], int] = {}
    for s in states:
        counts[s] = counts.get(s, 0) + 1
    # one column of values per variable over the distinct states
    cols = np.array(list(counts), dtype=np.float64).T
    energies = fold_values(_native_terms(model), cols).tolist()
    records = [SampleRecord(s, e, c) for (s, c), e in zip(counts.items(), energies)]
    records.sort(key=lambda r: (r.energy, -r.occurrences, r.state))
    return SampleSet(tuple(records), norm_drift)


def _to_bits(model, state: Sequence[int]) -> list[int]:
    if isinstance(model, QuboModel):
        return list(state)
    return [(v + 1) // 2 for v in state]


def _from_bits(model, bits: Sequence[int]) -> tuple[int, ...]:
    if isinstance(model, QuboModel):
        return tuple(int(b) for b in bits)
    return tuple(2 * int(b) - 1 for b in bits)


def initial_hamiltonian_spectrum(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and ground vector of -sum_i sigma^x_i.

    The ground state is the uniform superposition with energy -n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 12:
        raise CapacityError(f"dense spectrum of {n} qubits exceeds the guard of 12")
    dim = 1 << n
    h = np.zeros((dim, dim))
    idx = np.arange(dim)
    for i in range(n):
        h[idx, idx ^ (1 << i)] -= 1.0
    evals, evecs = np.linalg.eigh(h)
    ground = evecs[:, 0]
    if ground[int(np.argmax(np.abs(ground)))] < 0:
        ground = -ground
    return evals, ground


def measure(amplitudes: np.ndarray, reads: int, rng: np.random.Generator) -> np.ndarray:
    """Sample basis-state indices from |amplitudes|^2."""
    probs = np.abs(amplitudes) ** 2
    probs = probs / probs.sum()
    return rng.choice(len(amplitudes), size=reads, p=probs)


def _model_terms(model):
    """(linear, quadratic) term dicts in the model's native domain."""
    if isinstance(model, QuboModel):
        lin = {i: w for (i, j), w in model.q.items() if i == j}
        quad = {(i, j): w for (i, j), w in model.q.items() if i != j}
    else:
        lin = dict(model.biases)
        quad = dict(model.couplings)
    return lin, quad


def _check_statevector(model) -> None:
    if model.n > STATE_VECTOR_MAX_VARS:
        raise CapacityError(
            f"state vector over {model.n} variables exceeds the guard of {STATE_VECTOR_MAX_VARS}")


# Integration steps allowed per schedule pass; the default count is
# 32 per unit of anneal time, so this caps the time near 8,192.
MAX_STEPS = 1 << 18
# Qubits per axis of the Hadamard transform: psi is reshaped into axes
# of at most 2^6 basis states, each transformed by one real gemm.
_AXIS_BITS = 6


def _sylvester(size: int) -> np.ndarray:
    """Unnormalised Sylvester-Hadamard matrix of `size` (a power of two)
    basis states: entry (r, c) is (-1)^popcount(r & c)."""
    h = np.ones((1, 1))
    while len(h) < size:
        h = np.vstack((np.hstack((h, h)), np.hstack((h, -h))))
    return h


def _equal_columns(table: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Group the equal columns of a (steps x n) table: returns the distinct
    columns, as rows in order of first appearance, and each column's group."""
    seen: dict[bytes, int] = {}
    group = [seen.setdefault(col.tobytes(), len(seen)) for col in table.T]
    return table.T[[group.index(g) for g in range(len(seen))]], group


def _step_count(sched: AnnealSchedule, steps: int | None) -> int:
    if steps is None:
        raw = 32.0 * sched.total_time
        if raw >= MAX_STEPS + 1:
            raise CapacityError(f"anneal time {sched.total_time:g} needs {raw:.3g} integration "
                                f"steps; the guard is {MAX_STEPS}")
        return max(256, int(raw))
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > MAX_STEPS:
        raise CapacityError(f"{steps} integration steps exceed the guard of {MAX_STEPS}")
    return steps


# Steps from one exact evaluation of the diagonal phase to the next within
# a schedule segment (see _Integration). Worst |p - p_scalar| against the
# tests' per-qubit loop after a 1,280-step forward or grouped pass on the
# hybrid's native 10- and 14-qubit valuation QUBOs (half-step phase up to
# 17.1 rad): 5.5e-14 at 8, 1.9e-13 at 16, 8.6e-13 at 32 (the bound is
# 1e-12). At 8 a step costs x0.6-0.9 of exact phases every step at
# 10-16 qubits, and 16 saves a few per cent more (one BLAS thread,
# BENCH_16.json).
_ANCHOR_EVERY = 8


class _Integration:
    """Strang-split evolution of one schedule pass, planned once per request.

    Every step multiplies psi by the half-step diagonal phase, applies the
    transverse stage (every qubit's rotation at once), multiplies by the
    phase again and takes the norm; a norm drift beyond 1e-6 in one step
    raises IntegrationError. The step does not divide psi by its norm:
    1 / norm rides on the next step's level phase (a few dozen entries at
    most), so each step starts from a unit state as if it had, and the
    last psi is divided once. The plan holds what does not change between
    steps or reads.

    Diagonal, folded by schedule path. Variables with equal fraction
    columns share a path g, so the diagonal at a step is
    ``sum_g s_g D_g + sum_{g<=h} s_g s_h D_gh``: ``D_g`` sums the weighted
    linear rows of path g's variables and ``D_gh`` the weighted coupling
    rows between paths g and h. The plan keeps one row per path and per
    coupled path pair, and a (steps x rows) table of their coefficients
    with -dt/2 folded in; a forward schedule has one path, so at most two
    rows.

    Diagonal phase, by an anchored recurrence. A segment is a run of steps
    whose midpoints lie between the same two breakpoints of the schedule
    (the global path's and every variable's together). Inside one, every
    fraction is linear in the step index k, so every coefficient, and the
    phase argument ``a_k = coef[k] . rows``, is quadratic in k. The phase
    ``p_k = exp(i a_k)`` therefore advances by two complex multiplies per
    step, ``p <- p r`` and ``r <- r q``, with ``r = exp(i (a_{k+1} - a_k))``
    and ``q = exp(i (a_{k+2} - 2 a_{k+1} + a_k))`` fixed per segment. An
    anchor step evaluates p and r exactly from the coefficient table (one
    dot and a cos and a sin each), and q once per segment from the second
    difference of its first three coefficient rows. Every segment's first
    step is an anchor, and so is every _ANCHOR_EVERY-th step after it; a
    segment shorter than three steps is all anchors. Rounding accumulates
    only between anchors; _ANCHOR_EVERY = 8 keeps the worst probability
    difference at native scale near 5e-14.

    Transverse stage, in the Hadamard basis. The rotations commute, so
    ``prod_i exp(i theta_i X_i) = H diag(exp(i sum_i theta_i z_i)) H / 2^n``
    with H the unnormalised Sylvester (+-1) matrix of n qubits,
    z_i = 1 - 2 bit_i and theta_i = (1 - s_i) dt. H is one real gemm per
    axis of psi reshaped into
    ceil(n / 6) axes of at most 2^6 states (two axes up to 12 qubits,
    three at 13-16; two 2^8 axes at 16 qubits were slower on a grouped
    schedule), the smaller axes lowest, over the float64 view, in which
    the real and imaginary parts are just more columns of every axis but
    the lowest. So each H pass transposes once to make the lowest axis
    lead: the first pass ends, and the level phase is spread, in that
    layout (the level index is permuted once, in the plan), and the second
    pass turns back. A transpose and a real gemm cost less than the
    complex matmul the lowest axis would otherwise need. The phase
    ``sum_i theta_i z_i`` takes few distinct values (n + 1 on a forward
    schedule): qubits with equal angle columns form a group, a group of m
    qubits with c set bits has z sum m - 2c, and a state's level is its
    c per group in mixed radix. A step computes the phase of each level,
    with the exact factor 2^-n folded in, and spreads it with one take.
    No (steps x 2^n) table is held.

    Contract: the arithmetic is reordered against the per-qubit scalar
    loop kept in the tests, and the diagonal phase between anchors carries
    the recurrence's rounding, so probabilities differ from the loop in
    the last bits (the tests bound the difference by 1e-12, at native
    problem scale too); sample sets and artifacts stay identical.
    """

    def __init__(self, model, sched: AnnealSchedule, steps: int | None):
        self.steps = _step_count(sched, steps)
        n = model.n
        dim = 1 << n
        lin, quad = _model_terms(model)
        dt = sched.total_time / self.steps
        times = (np.arange(self.steps) + 0.5) * dt
        table = fraction_table(sched, times, n)
        bits = [(np.arange(dim) >> i) & 1 for i in range(n)]

        paths, path = _equal_columns(table)
        if isinstance(model, QuboModel):
            vals = [b.astype(np.float64) for b in bits]
        else:
            vals = [2.0 * b - 1.0 for b in bits]
        rows: dict[tuple[int, ...], np.ndarray] = {}
        for i, w in lin.items():
            key = (path[i],)
            rows[key] = rows.get(key, 0.0) + w * vals[i]
        for (i, j), w in quad.items():
            key = tuple(sorted((path[i], path[j])))
            rows[key] = rows.get(key, 0.0) + w * (vals[i] * vals[j])
        self.rows = np.zeros((len(rows), dim))
        coef = np.empty((self.steps, len(rows)))
        for r, (key, row) in enumerate(rows.items()):
            self.rows[r] = row
            coef[:, r] = np.prod(paths[list(key)], axis=0)
        coef *= -0.5 * dt

        # the diagonal phase p, its step ratio r and the ratio's step ratio q
        self.phase, self.ratio, self.curve = (np.empty(dim, dtype=np.complex128) for _ in range(3))
        p_parts, r_parts, q_parts = (tuple(buf.view(np.float64).reshape(-1, 2).T)
                                     for buf in (self.phase, self.ratio, self.curve))
        # a segment's steps have their midpoints between the same two
        # breakpoints of any path
        knots = np.unique([t for pts in (sched.breakpoints, *(sched.variable_paths or {}).values())
                           for t, _ in pts])
        segment = np.searchsorted(knots, times)
        bounds = [0, *(np.flatnonzero(np.diff(segment)) + 1).tolist(), self.steps]
        # per step, the exact evaluations of an anchor as (coefficient row,
        # real part, imaginary part of the buffer it fills); none for a
        # recurrence step
        self.phase_plan = []
        for a, b in zip(bounds, bounds[1:]):
            every = _ANCHOR_EVERY if b - a >= 3 else 1
            for k in range(a, b):
                exact = []
                if (k - a) % every == 0:
                    exact.append((coef[k], *p_parts))
                    # the next step continues the recurrence, so it needs r
                    if every > 1 and k + 1 < b:
                        exact.append((coef[k + 1] - coef[k], *r_parts))
                    if k == a and every > 1:
                        exact.append((coef[a] - 2.0 * coef[a + 1] + coef[a + 2], *q_parts))
                self.phase_plan.append(exact)

        theta = (1.0 - table) * dt
        # a group of m qubits with equal angle columns has z sum m - 2c,
        # c its set bits, so a state's level is its c per group in mixed radix
        angles, group = _equal_columns(theta)
        width = np.bincount(group, minlength=len(angles))
        radix = np.cumprod([1, *(width[:-1] + 1)])
        level = sum(radix[g] * bits[i] for i, g in enumerate(group))
        counts = np.indices(tuple(width[::-1] + 1)).reshape(len(width), -1)[::-1].T
        self.zsums = (width - 2 * counts).astype(np.float64)
        self.angles = np.ascontiguousarray(angles.T)
        self.scale = 0.5 ** n

        count = -(-n // _AXIS_BITS)
        sizes = [1 << (n // count + (a >= count - n % count)) for a in range(count)]
        low, rest = sizes[0], dim // sizes[0]
        # the level phase is spread with the lowest axis leading
        self.level = level.reshape(rest, low).T.ravel()

        def gemm(size, inner):
            h = _sylvester(size)
            shape = (-1, size, 2 * inner)
            return lambda src, dst: (np.matmul, h, src.view(np.float64).reshape(shape),
                                     dst.view(np.float64).reshape(shape))

        def turn(rows):
            return lambda src, dst: (np.copyto, dst.reshape(-1, rows),
                                     src.reshape(rows, -1).T, "no")

        # a pass is the gemms of the axes above the lowest, highest first,
        # a transpose, and the lowest axis's gemm; the second pass mirrors it
        upper = [gemm(sizes[a], math.prod(sizes[:a])) for a in range(count - 1, 0, -1)]
        passes = [*upper, turn(rest), gemm(low, rest)], [gemm(low, rest), turn(low), *upper]
        self.basis = (np.empty(dim, dtype=np.complex128), np.empty(dim, dtype=np.complex128))
        # (op, x, y, z) stages, run as op(x, y, z); each writes the other
        # buffer, and the two passes are equally long, so the second ends in
        # basis[0], where the step began
        self.stages = []
        for make in passes[0] + passes[1]:
            cur = len(self.stages) % 2
            self.stages.append(make(self.basis[cur], self.basis[1 - cur]))
        self.arg = np.empty(dim)
        self.level_angle = np.empty(len(self.zsums))
        self.level_phase = np.empty(len(self.zsums), dtype=np.complex128)
        self.spread = np.empty(dim, dtype=np.complex128)

    def run(self, psi: np.ndarray) -> tuple[np.ndarray, float]:
        """Evolve psi over the pass; returns (new psi, worst norm drift)."""
        arg, phase, ratio, curve, spread = self.arg, self.phase, self.ratio, self.curve, self.spread
        angle, level_phase = self.level_angle, self.level_phase
        level_re, level_im = level_phase.view(np.float64).reshape(-1, 2).T
        half = len(self.stages) // 2
        first, second = self.stages[:half], self.stages[half:]
        mid, out = self.basis[half % 2], self.basis[0]
        flat = out.view(np.float64)
        nrm = 1.0
        worst_drift = 0.0
        for k, exact in enumerate(self.phase_plan):
            for row, re, im in exact:
                np.dot(row, self.rows, out=arg)
                np.cos(arg, out=re)
                np.sin(arg, out=im)
            if not exact:
                # r advances past what the next anchor overwrites; one
                # multiply per anchor interval, not worth a flag
                phase *= ratio
                ratio *= curve
            np.multiply(phase, psi, out=out)
            for op, x, y, z in first:
                op(x, y, z)
            np.dot(self.zsums, self.angles[k], out=angle)
            np.cos(angle, out=level_re)
            np.sin(angle, out=level_im)
            # the previous step's renormalisation rides on the level phase
            level_phase *= self.scale / nrm
            # levels are in range, so the take can skip its bounds check
            level_phase.take(self.level, out=spread, mode="wrap")
            mid *= spread
            for op, x, y, z in second:
                op(x, y, z)
            psi = out
            np.multiply(phase, psi, out=psi)
            nrm = math.sqrt(np.dot(flat, flat))
            drift = abs(nrm - 1.0)
            if drift > 1e-6:
                raise IntegrationError(f"norm drifted by {drift:.2e} in one step")
            worst_drift = max(worst_drift, drift)
        return (flat / nrm).view(np.complex128), worst_drift


def _start_vector(req: SamplerRequest) -> np.ndarray:
    """The initial state as a vector: the transverse ground, the uniform
    superposition, unless the request gives a basis state. A schedule
    that starts above s = 0 (a reverse anneal) has no transverse ground
    to start from."""
    model = req.model
    if req.initial_state is None:
        if req.schedule.needs_initial_state(model.n):
            raise ValueError("schedule starts above s=0: initial_state is required")
        dim = 1 << model.n
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    bits = _to_bits(model, req.initial_state)
    k = sum(b << i for i, b in enumerate(bits))
    psi = np.zeros(1 << model.n, dtype=np.complex128)
    psi[k] = 1.0
    return psi


def schrodinger_anneal(req: SamplerRequest, steps: int | None = None) -> SampleSet:
    """Integrate the annealing Hamiltonian and sample the final state.

    H(t) = sum_i (1 - s_i(t)) (-sigma^x_i) + [problem diagonal with bias
    terms scaled by s_i and coupling terms by s_i s_j]. Integration is
    second-order operator splitting with the schedule evaluated at step
    midpoints; the norm is taken each step and a drift beyond 1e-6 in any
    single step raises IntegrationError, and each step's renormalisation
    is folded into the next step's phase. All qubit rotations of a step
    are one phase in the Hadamard basis, applied by real gemms. The
    diagonal is folded by schedule path, and its phase advances by a
    recurrence that is evaluated exactly at every schedule breakpoint and
    every _ANCHOR_EVERY steps (see _Integration). So probabilities match a
    per-qubit rotation loop within 1e-12; the samples drawn for a seed
    are the same.
    """
    model = req.model
    n = model.n
    _check_statevector(model)
    sched = req.schedule
    rng = np.random.default_rng(req.seed)

    psi = _start_vector(req)
    if sched.total_time == 0.0:
        outcomes = measure(psi, req.reads, rng)
        states = [_from_bits(model, [(int(k) >> i) & 1 for i in range(n)]) for k in outcomes]
        return _assemble(model, states)

    plan = _Integration(model, sched, steps)
    if sched.reinitialize:
        psi, drift = plan.run(psi)
        outcomes = measure(psi, req.reads, rng)
        states = [_from_bits(model, [(int(k) >> i) & 1 for i in range(n)]) for k in outcomes]
        return _assemble(model, states, drift)

    # chained reads: each read collapses to its outcome and seeds the next
    states = []
    drift = 0.0
    for _ in range(req.reads):
        psi, d = plan.run(psi)
        drift = max(drift, d)
        k = int(measure(psi, 1, rng)[0])
        states.append(_from_bits(model, [(k >> i) & 1 for i in range(n)]))
        psi = np.zeros(1 << n, dtype=np.complex128)
        psi[k] = 1.0
    return _assemble(model, states, drift)


def final_probabilities(req: SamplerRequest, steps: int | None = None) -> np.ndarray:
    """|amplitude|^2 over the 2^n basis states after one pass of the
    schedule, with no measurement noise. Diagnostic view of the same
    integrator schrodinger_anneal samples from; basis state k has bit i
    of k as variable i."""
    _check_statevector(req.model)
    psi = _start_vector(req)
    if req.schedule.total_time > 0.0:
        psi, _ = _Integration(req.model, req.schedule, steps).run(psi)
    return np.abs(psi) ** 2


def _dense_form(model) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric off-diagonal matrix W and linear vector d, native domain."""
    n = model.n
    lin, quad = _model_terms(model)
    d = np.zeros(n)
    w = np.zeros((n, n))
    for i, c in lin.items():
        d[i] = c
    for (i, j), c in quad.items():
        w[i, j] += c
        w[j, i] += c
    return w, d


def default_hot_temperature(model) -> float:
    lin, quad = _model_terms(model)
    scale = max(
        max((abs(c) for c in lin.values()), default=0.0),
        max((abs(c) for c in quad.values()), default=0.0),
    )
    return scale if scale > 0 else 1.0


def heuristic_anneal(
    req: SamplerRequest,
    sweeps: int = 256,
    t_hot: float | None = None,
) -> SampleSet:
    """Seeded heat-bath annealer driven by the schedule.

    A variable may flip only while its anneal fraction is below 1. The
    temperature is t_hot * (1 - min_i s_i(t)), so a deep reversal is hot
    and exploratory while the return to s=1 freezes the walk greedily.
    Glauber acceptance 1/(1 + e^(dE/tau)) rather than Metropolis: the
    low-temperature limit then takes strict improvements always and
    zero-cost flips with probability 1/2, a diffusive greedy walk
    instead of a deterministic toggle on degenerate plateaus. t_hot
    (default: the largest coefficient magnitude) must be finite and keep
    tau above 0 at every sweep that moves a variable; a tiny value such
    as 1e-9 gives the greedy limit. With reinitialize, all reads run in
    lockstep (one state column per read); otherwise each read continues
    from the previous read's terminal state. A request with an
    initial_state starts every read there; one without starts each
    lockstep read, or the chain, from random rows.

    The schedule is read once per request, at every sweep's midpoint.
    RNG contract, which keeps the samples of a seed stable: a random
    start draws its rows first; then each sweep draws one row of
    `reads` uniforms (one per lockstep row, or one when chained) per
    active variable, in index order, as a single (active, reads) block.

    A sweep updates the variables in index order. It runs as a few
    coupling-free layers (see _layers), computed once per distinct active
    set: every earlier neighbour of a variable lies in a lower layer and
    every later one in a higher layer, so testing a whole layer at once
    over a (layer, reads) block, each variable with its own row of the
    draws, gives exactly the sequential sweep.

    Layout. Each distinct active set has one permutation: its variables
    layer by layer, then the frozen ones in index order. The state is
    held in that order, one row of reads per variable, so every layer is
    a contiguous slice of rows. The state is re-permuted only when the
    active set changes, and chained reads carry it from one read to the
    next; it returns to index order only to be read out. A layer's block
    of w is zero, so its fields are a gemm over the rows before its slice
    plus one over the rows after it, plus the biases. Each sweep draws
    its (active, reads) block in index order, as the RNG contract says,
    and one take puts the rows in layer order. Values are exactly 0/1 or
    +-1, so the accepted flips need no mask: a bit becomes |x - accept|
    and a spin x (1 - 2 accept). Summing a field over fewer, permuted
    columns may round differently from a per-variable loop, so a field
    can differ from the scalar loop's in the last bits; the sample sets
    stay identical, and the tests hold them to that.
    """
    model = req.model
    n = model.n
    sched = req.schedule
    reads = req.reads
    rng = np.random.default_rng(req.seed)
    if t_hot is None:
        t_hot = default_hot_temperature(model)
    is_qubo = isinstance(model, QuboModel)
    w, d = _dense_form(model)

    # lockstep reads update one state column each; chained reads one column
    # in turn. The (n, count) buffers are updated in place, so views of
    # them are taken once.
    count = reads if sched.reinitialize else 1
    if req.initial_state is None:
        # drawn (count, n) as the RNG contract says, then made variable-major
        bits = rng.integers(0, 2, size=(count, n)).T.astype(np.float64, order="C")
        start = bits if is_qubo else 2.0 * bits - 1.0
    else:
        start = np.repeat(np.array(req.initial_state, dtype=np.float64)[:, None], count, axis=1)
    states = np.empty((n, count))
    draws = np.empty((n, count))
    uniforms = np.empty((n, count))
    f_buf = np.empty((n, count))
    delta_buf = np.empty((n, count))
    p_buf = np.empty((n, count))
    accept_buf = np.empty((n, count), dtype=bool)

    def layer_plan(active: np.ndarray) -> tuple:
        """The active set's permutation of the variables, the positions in
        the sweep's draws in layer order, and per layer: the gemm over the
        rows before its slice and the one over the rows after it (None if
        empty or all zero), the biases spread over the reads, views of its
        state rows and uniforms, and its work buffers."""
        split = _layers(w, active)
        order = np.concatenate(split)
        perm = np.concatenate((active[order], np.setdiff1d(np.arange(n), active)))
        wp = w[np.ix_(perm, perm)]
        layers = []
        a = 0
        for pos in split:
            m = len(pos)
            b = a + m
            # an all-zero block would only add +-0.0 to the fields, which
            # changes no decision (p = 1/2 at a zero field either way)
            outside = [(np.ascontiguousarray(wp[a:b, lo:hi]), states[lo:hi])
                       for lo, hi in ((0, a), (b, n)) if wp[a:b, lo:hi].any()]
            # with no such block the field is the bias alone
            head, *tail = outside or [(np.zeros((m, 0)), states[:0])]
            bias = np.repeat(d[perm[a:b]][:, None], count, axis=1)
            layers.append((head, tail[0] if tail else None, bias, states[a:b], uniforms[a:b],
                           f_buf[:m], delta_buf[:m], p_buf[:m], accept_buf[:m]))
            a = b
        return perm, order, layers

    layered: dict[bytes, tuple] = {}
    sweep_sets: list[tuple[float, bytes]] = []
    if sched.total_time > 0.0 and n > 0:
        times = [(k + 0.5) * sched.total_time / sweeps for k in range(sweeps)]
        for row in fraction_table(sched, times, n):
            # frozen means s >= 1; anything else, NaN included, may move
            active = np.flatnonzero(~(row >= 1.0))
            if not len(active):
                continue
            tau = t_hot * (1.0 - min(row.tolist()))
            if not 0.0 < tau < math.inf:
                raise ValueError(f"t_hot {t_hot!r} gives temperature {tau!r} at a sweep; "
                                 "it must be finite and keep every moving sweep above 0")
            key = active.tobytes()
            if key not in layered:
                layered[key] = layer_plan(active)
            sweep_sets.append((tau, key))

    # between runs the state is in the order of the last sweep's set, so
    # a chained read continues where the previous one stopped
    prev = sweep_sets[-1][1] if sweep_sets else None
    home = layered[prev][0] if sweep_sets else np.arange(n)
    plan: list[tuple] = []
    for tau, key in sweep_sets:
        perm, order, layers = layered[key]
        # rows of the previous order that make up this one
        move = None if key == prev else np.argsort(layered[prev][0])[perm]
        m = len(order)
        plan.append((tau, move, draws[:m], order, uniforms[:m], layers))
        prev = key
    states[...] = start[home]
    native = np.argsort(home)

    def run() -> None:
        for tau, move, block, order, u_all, layers in plan:
            if move is not None:
                states[...] = states[move]
            rng.random(out=block)
            # the positions are in range, so the take can skip its bounds check
            np.take(block, order, axis=0, out=u_all, mode="wrap")
            for (w_in, x_in), tail, bias, x, u, f, delta, p, accept in layers:
                np.matmul(w_in, x_in, out=f)
                if tail is not None:
                    np.matmul(tail[0], tail[1], out=delta)
                    f += delta
                f += bias
                if is_qubo:
                    np.multiply(x, 2.0, out=delta)
                    np.subtract(1.0, delta, out=delta)
                else:
                    np.multiply(x, -2.0, out=delta)
                delta *= f
                # 1 / (1 + exp(min(delta / tau, 700))) > u; below -700,
                # 1 + exp is already exactly 1, so no lower clip is needed
                np.divide(delta, tau, out=p)
                np.minimum(p, 700.0, out=p)
                np.exp(p, out=p)
                p += 1.0
                np.divide(1.0, p, out=p)
                np.less(u, p, out=accept)
                if is_qubo:
                    np.subtract(x, accept, out=x)
                    np.abs(x, out=x)
                else:
                    # not np.negative: numpy 2.4 mis-writes it on 64-byte strides
                    np.multiply(accept, -2.0, out=p)
                    p += 1.0
                    x *= p

    if sched.reinitialize:
        run()
        return _assemble(model, _native_rows(states[native].T))

    out = []
    for _ in range(reads):
        run()
        out.extend(_native_rows(states[native].T))
    return _assemble(model, out)


def _layers(w: np.ndarray, active: np.ndarray) -> list[np.ndarray]:
    """The active variables split into layers with no coupling inside a
    layer, as positions into `active` (ascending). A variable's layer is
    one above the highest layer among its coupled active predecessors
    (1 with none), so each earlier neighbour lies in a lower layer and
    each later one in a higher layer: updating the layers in order is the
    sequential sweep in index order."""
    coupled = w[np.ix_(active, active)] != 0.0
    level = np.zeros(len(active), dtype=np.intp)
    for k in range(len(active)):
        below = level[:k][coupled[k, :k]]
        level[k] = 1 + (int(below.max()) if len(below) else 0)
    return [np.flatnonzero(level == lv) for lv in range(1, int(level.max(initial=0)) + 1)]


def _native_rows(states: np.ndarray) -> list[tuple[int, ...]]:
    """State rows as integer tuples; the values are exactly 0/1 or +-1."""
    return [tuple(r) for r in states.astype(np.int64).tolist()]


# A greedy candidate must beat the running best by more than this; see
# sequential_greedy for its size against the folded energies.
_TIE_TOL = 1e-12


def _native_terms(model):
    """(variables, coefficient) per term, in the order the model's energy
    adds them; a Poly's are its own, the constant included."""
    return model.terms.items() if isinstance(model, Poly) else energy_terms(model)


def _fold(terms, pos: dict[int, int], state: Sequence[int]) -> dict[tuple[int, ...], float]:
    """The terms touching a group with every other variable fixed at its
    state value: a polynomial over the group's bit positions. Terms that
    miss the group add the same constant to every candidate and drop out."""
    local: dict[tuple[int, ...], float] = {}
    for vars_, c in terms:
        inside = tuple(pos[v] for v in vars_ if v in pos)
        if not inside:
            continue
        for v in vars_:
            if v not in pos:
                c *= state[v]
        if c != 0.0:
            local[inside] = local.get(inside, 0.0) + c
    return local


def _last_improvement(energies: np.ndarray, best_e: float) -> tuple[int, float]:
    """Where a scan of `energies` in order ends when it takes each entry
    that beats the running best (initially best_e) by more than
    _TIE_TOL. Returns (index, energy), or (-1, best_e) if it takes none.

    Only strict prefix-minimum records can be taken: a taken entry lies
    below the running best minus the tolerance, and no earlier entry lies
    below that. The records decrease, so the next one taken after a value
    is found by bisection, and a run of records each more than the
    tolerance below the last is taken whole; only near-ties loop here.
    """
    before = np.minimum.accumulate(np.concatenate(([best_e], energies[:-1])))
    rec = np.flatnonzero(energies < before)
    vals = energies[rec]
    neg = -vals
    near = np.flatnonzero(vals[1:] >= vals[:-1] - _TIE_TOL)

    def first_below(e) -> int:
        return int(np.searchsorted(neg, -(e - _TIE_TOL), side="right"))

    taken = -1
    p = first_below(best_e)
    while p < len(vals):
        j = int(np.searchsorted(near, p))
        taken = int(near[j]) if j < len(near) else len(vals) - 1
        p = first_below(vals[taken])
    if taken < 0:
        return -1, best_e
    return int(rec[taken]), float(vals[taken])


# Groups at least this wide are ranked by the split gemm when their fold
# is quadratic; narrower ones are scored whole. Median group step on a
# dense random QUBO fold, one BLAS thread, whole scan against split
# ranking: 10 bits 0.60/0.76 ms, 11 0.83/1.02, 12 1.29/1.18, 13 2.6/1.4,
# 14 5.8/1.8, 16 26/2.0.
_SPLIT_MIN_BITS = 12


def _split_candidates(local, width: int, domain, e_start: float) -> Iterator[np.ndarray] | None:
    """The assignments that can change a first-improvement scan from
    e_start, in batches in enumeration order (bqm's prefix-record
    set); None when the fold is not quadratic or its coefficient sum
    admits no rounding bound."""
    if any(len(k) > 2 for k in local):
        return None
    bound = _rank_bound(local.values())
    if bound is None:
        return None
    # the fold as a model over the group's bit positions; the model
    # merges terms on the same positions, which bqm's bound allows for
    if domain[0] == -1:
        model = IsingModel(width, {k[0]: c for k, c in local.items() if len(k) == 1},
                           {k: c for k, c in local.items() if len(k) == 2})
    else:
        model = QuboModel(width, {(k[0], k[-1]): c for k, c in local.items()})
    return _record_candidates(_split_ranking(model), e_start, bound)


def _best_assignment(terms, group: tuple[int, ...], domain, state: Sequence[int]) -> int:
    """Index of the group assignment the first-improvement scan settles on,
    starting from the group's current assignment."""
    pos = {v: b for b, v in enumerate(group)}
    local = _fold(terms, pos, state)
    width = len(group)
    best_m = sum(1 << b for b, v in enumerate(group) if state[v] == domain[1])
    best_e = float(fold_indices(local.items(), np.array([best_m]), width, domain)[0])
    chunks = _split_candidates(local, width, domain, best_e) if width >= _SPLIT_MIN_BITS else None
    if chunks is None:
        block = 1 << min(width, _BLOCK_BITS)
        chunks = (np.arange(start, min(start + block, 1 << width))
                  for start in range(0, 1 << width, block))
    for idx in chunks:
        k, best_e = _last_improvement(fold_indices(local.items(), idx, width, domain), best_e)
        if k >= 0:
            best_m = int(idx[k])
    return best_m


def sequential_greedy(
    model: IsingModel | QuboModel | Poly,
    groups: Sequence[Iterable[int]],
    initial: Sequence[int],
    cycles: int = 1,
    activations: Sequence[int | None] | None = None,
) -> tuple[int, ...]:
    """Deterministic idealization of a grouped cyclic anneal.

    Per cycle, per group in order: set the group's variables to the
    joint assignment minimizing energy with everything else fixed, ties
    keeping the current assignment. When a group has an activation
    variable, the stage first clamps it on, minimizes the group given
    the clamp, then relaxes the activation to its own argmin (ties
    deactivate). Ungrouped variables never move.

    Each stage folds the fixed variables into the terms touching the
    group, a polynomial over the group's bits, and runs a first-improvement
    scan over the 2^|group| assignments in enumeration order (bit b of
    index m is (m >> b) & 1): starting from the current assignment, it
    takes each one that beats the running best by more than 1e-12, as a
    scalar scan over them would. A quadratic fold of at least
    _SPLIT_MIN_BITS bits is ranked the way bqm.brute_force ranks a QUBO,
    by gemms over a low/high split of its bits; only the assignments that
    can be strict prefix records within the proven rounding bound are
    rescored with the exact fold and scanned, which takes the same
    entries as the full scan (the proof is in bqm). Narrower groups,
    cubic folds and folds whose coefficient sum admits no bound are
    scored whole, in blocks of 2^_BLOCK_BITS. A group wider than
    BRUTE_FORCE_MAX_VARS raises CapacityError before any stage runs.

    The tolerance is absolute and keeps every decision equal to the
    scalar scan's, which the tests hold the walk to. At the defaults it
    never decides: folded energies reach |E| = 623, where 1e-12 is about
    9 ulps, and the smallest gap between distinct folded energies of any
    group step is 5.5e-7 (one-shot and multi-anneal greedy, seeds 1-3).

    The model may also be a binary polynomial of any degree; its terms
    are folded directly, so cubic-and-up problems need no reduction.
    """
    is_poly = isinstance(model, Poly)
    if is_poly:
        n = len(initial)
        out = [v for v in model.variables() if not 0 <= v < n]
        if out:
            raise ValueError(f"initial does not cover polynomial variables {out}")
    else:
        n = model.n
    groups = [tuple(g) for g in groups]
    if activations is not None and len(activations) != len(groups):
        raise ValueError("activations must parallel groups")
    seen: set[int] = set()
    for g in groups:
        for v in g:
            if not 0 <= v < n:
                raise ValueError(f"variable {v} out of range")
            if v in seen:
                raise ValueError(f"variable {v} appears in more than one group")
            seen.add(v)
    for a in activations or ():
        if a is None:
            continue
        if not 0 <= a < n or a in seen:
            raise ValueError(f"activation variable {a} must be a distinct in-range variable")
    if len(initial) != n:
        raise ValueError(f"initial length {len(initial)} != n={n}")
    wide = max(map(len, groups), default=0)
    if wide > BRUTE_FORCE_MAX_VARS:
        raise CapacityError(
            f"greedy group of {wide} variables exceeds the guard of {BRUTE_FORCE_MAX_VARS}"
        )

    terms = _native_terms(model)
    domain = value_domain(model)
    state = [int(v) for v in initial]

    for _ in range(cycles):
        for gi, group in enumerate(groups):
            act = activations[gi] if activations else None
            if act is not None:
                state[act] = domain[1]
            m = _best_assignment(terms, group, domain, state)
            for b, v in enumerate(group):
                state[v] = domain[(m >> b) & 1]
            if act is not None:
                local = _fold(terms, {act: 0}, state)
                e_off, e_on = fold_indices(local.items(), np.arange(2), 1, domain)
                state[act] = domain[1] if e_on < e_off - _TIE_TOL else domain[0]
    return tuple(state)
