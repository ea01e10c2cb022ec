"""Sampling engines over binary quadratic models.

Three interchangeable backends: an exact state-vector integrator of the
time-dependent transverse-field Hamiltonian (small n), a seeded
heat-bath (Glauber) annealer that honors the same schedule semantics (any n),
and a deterministic sequential-greedy idealization of grouped cyclic
anneals. Plus the device timing model used for reporting.

Every engine takes an Ising model or a QUBO alike and reads it only
through bqm.energy_terms (its terms, in the order its energy adds them)
and bqm.value_domain (a variable's (off, on) values, spins or bits);
states are in that domain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from .bqm import (
    BRUTE_FORCE_MAX_VARS,
    CapacityError,
    IsingModel,
    QuboModel,
    _exact_minimum,
    _index_state,
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
    t_program: ClassVar[float] = 9000.0
    t_readout: ClassVar[float] = 120.0

    @property
    def total(self) -> float:
        return self.t_program + self.reads * (self.t_anneal + self.t_readout)


def timing_report(reads: int, t_anneal: float) -> TimingReport:
    if reads < 1:
        raise ValueError("reads must be >= 1")
    if t_anneal < 5.0:
        raise ValueError("anneal time below the 5 microsecond device minimum")
    return TimingReport(reads, t_anneal)


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
            allowed = value_domain(self.model)
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
    idx = np.arange(size)
    parity = idx[:, None] & idx
    # fold the bits of r & c onto bit 0 by xor, so bit 0 is its popcount's parity
    shift = 1
    while shift < size.bit_length() - 1:
        parity ^= parity >> shift
        shift *= 2
    return 1.0 - 2.0 * (parity & 1)


def _equal_columns(table: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Group the equal columns of a (steps x n) table: returns the distinct
    columns, as rows in order of first appearance, and each column's group."""
    seen: dict[bytes, int] = {}
    group = [seen.setdefault(col.tobytes(), len(seen)) for col in table.T]
    return table.T[[group.index(g) for g in range(len(seen))]], group


def _phases(coef: np.ndarray, table: np.ndarray, arg: np.ndarray, out: np.ndarray) -> None:
    """exp(i coef @ table) into the complex array out, through the real
    buffer arg of the same shape, which it overwrites.

    With t = tan(a / 2), cos a = (1 - t^2) / (1 + t^2) and sin a =
    2 t / (1 + t^2): numpy's float64 tan is vectorised and its cos and
    sin are not, and over 2e6 angles the half-angle form took about 10 ns
    an entry against 44 ns for a cos and a sin into the same strided
    parts. It differs from them by at most about 3e-16 at |a| <= 1e4 (the
    tests hold it to 4e-16). tan of a float is finite (at most about
    1.6e16), so t^2 cannot overflow: an angle at an odd multiple of pi
    gives cos -1 and a sin near 0."""
    np.matmul(coef, table, out=arg)
    arg *= 0.5
    np.tan(arg, out=arg)
    parts = out.view(np.float64)
    re, im = parts[..., 0::2], parts[..., 1::2]
    np.multiply(arg, arg, out=re)
    np.add(re, 1.0, out=im)
    np.subtract(1.0, re, out=re)
    np.divide(re, im, out=re)
    arg += arg
    np.divide(arg, im, out=im)


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


# Multiplies from one exact evaluation of the diagonal phase to the next
# within a run (see _Integration). Worst |p - p_ref| after a 1,283-step
# forward or grouped pass on the hybrid's native 10- and 14-qubit
# valuation QUBOs (merged phase up to 34.2 rad per multiply), with the
# half-angle phases: against the tests' per-qubit loop at 10 qubits
# 9.2e-14 at 8, 2.5e-13 at 16 and 9.9e-13 at 32; against the same pass
# with every multiply evaluated exactly, 4.3e-14 at 8, 2.0e-13 at 16 and
# 9.4e-13 at 32, over both sizes (the bound is 1e-12). 8 stays: 16 cost
# a 10-qubit pass about 3 % less, for a quarter of the bound.
_ANCHOR_EVERY = 8
# Level phases are computed for a block of steps at once, at most this
# many (step, level) entries, and spread into basis order for a block of
# those steps, at most this many (step, state) entries. A step has up to
# 2^n levels (every qubit on its own path) and 2^n states, so one step
# always fits; a forward schedule has n + 1 levels, so a level block
# holds thousands of its steps, and a spread block 64 steps at 10 qubits
# (1 MB) and one at 16. At 10 qubits, spread blocks of 16 to 64 steps
# ran within 1 % of each other and blocks of 256 steps (4 MB) about 6 %
# slower, on a host with 2 MB of L2 cache per core.
_LEVEL_BLOCK = 1 << STATE_VECTOR_MAX_VARS


def _diagonal_rows(model, path: list[int]) -> dict[tuple[int, ...], np.ndarray]:
    """The problem diagonal's rows over the 2^n states, one per key: the
    sorted paths of a term's variables. The linear rows come first, then
    the coupling rows, in the order of their first terms: the row order
    fixes the order the phase's dot sums them in.

    A term's value at a state, ``w * value(u) * value(v)``, is exact
    (every value is -1, 0 or 1) and depends on the term's own bits alone.
    So it is added as one constant per combination of those bits whose
    values are not zero, to the strided view of the states that have it:
    a QUBO coupling touches a quarter of the states, in one pass. Each
    state still adds its terms one at a time in term order from 0.0, so
    the rows equal a loop of ``row = row + w * vals[u] * vals[v]`` over
    whole rows bit for bit."""
    n = model.n
    values = value_domain(model)
    live = [b for b in (0, 1) if values[b]]
    rows: dict[tuple[int, ...], np.ndarray] = {}
    for vars_, w in sorted(energy_terms(model), key=lambda t: len(t[0])):
        key = tuple(sorted([path[v] for v in vars_]))
        row = rows.get(key)
        if row is None:
            row = rows[key] = np.zeros(1 << n)
        if len(vars_) == 1:
            (v,) = vars_
            # axes: the bits above v, v's bit, the bits below
            view = row.reshape(-1, 2, 1 << v)
            for b in live:
                part = view[:, b]
                part += w * values[b]
            continue
        u, v = vars_
        lo, hi = min(u, v), max(u, v)
        # axes: the bits above hi, hi's bit, the bits between, lo's, below
        view = row.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        for bu, bv in itertools.product(live, live):
            part = view[:, bv, :, bu] if u < v else view[:, bu, :, bv]
            part += w * values[bu] * values[bv]
    return rows


class _Integration:
    """Strang-split evolution of one schedule pass, planned once per request.

    A Strang step multiplies psi by the half-step diagonal phase p_k,
    applies the transverse stage (every qubit's rotation at once) and
    multiplies by p_k again. Neighbouring steps meet in p_k p_{k+1}, so
    the pass multiplies psi by p_0 before the first step, by
    P_k = p_k p_{k+1} after step k and by p_{K-1} alone after the last:
    one diagonal multiply between steps. Each step takes the norm after
    its transverse stage, where it equals the norm after the multiply
    (|P| = 1), and a ratio to the previous step's norm beyond 1 +- 1e-6
    raises IntegrationError. Nothing divides psi by its norm between
    steps: every stage is linear, so psi carries the product of the
    steps' drifts (within e^0.27 of 1 even at MAX_STEPS steps of the
    largest drift allowed), and the last psi is divided once by its
    norm. The plan holds what does not change between steps or reads,
    p_0 included, so chained reads compute it once.

    Diagonal, folded by schedule path. Variables with equal fraction
    columns share a path g, so the diagonal at a step is
    ``sum_g s_g D_g + sum_{g<=h} s_g s_h D_gh``: ``D_g`` sums the weighted
    linear rows of path g's variables and ``D_gh`` the weighted coupling
    rows between paths g and h. The plan keeps one row per path and per
    coupled path pair; a forward schedule has one path, so at most two
    rows (built by _diagonal_rows). Multiply j of the K + 1 has the
    phase argument ``c_j . rows``:
    c_0 is step 0's coefficients of the rows, with -dt/2 folded in, c_j the
    sum of steps j - 1 and j, and c_K step K - 1's.

    Diagonal phase, by an anchored recurrence. A segment is a run of steps
    whose midpoints lie between the same two breakpoints of the schedule
    (the global path's and every variable's together). Inside one, every
    fraction is linear in the step index, so every step's coefficient is
    quadratic in it, and so is c_j between two steps of one segment. The
    multiply before a segment's first step spans two segments (or is the
    first), and it stands alone, as does the last. Along a run of
    multiplies with quadratic c_j, the phase ``m_j = exp(i c_j . rows)``
    advances by two complex multiplies, ``m <- m r`` and ``r <- r q``,
    with ``r = exp(i (c_{j+1} - c_j) . rows)`` and
    ``q = exp(i (c_{j+2} - 2 c_{j+1} + c_j) . rows)`` fixed per run. An
    anchor evaluates m and r exactly, and a run's first anchor also q,
    from the second difference of the run's first three coefficient rows;
    one gemm and one half-angle evaluation (_phases) serve all of an
    anchor's rows. Every run's
    first multiply is an anchor, and so is every _ANCHOR_EVERY-th after
    it; a run shorter than three is all anchors. The plan holds only the
    anchors, with their coefficient rows. Rounding accumulates only
    between anchors; _ANCHOR_EVERY = 8 keeps the worst probability
    difference at native scale below 1e-13.

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
    c per group in mixed radix. The phases of every level, with the exact
    factor 2^-n folded in, are computed for a block of steps at once (one
    gemm and one half-angle evaluation over at most _LEVEL_BLOCK
    entries), and spread into basis order for a block of those steps by
    one take along the state axis (again at most _LEVEL_BLOCK entries),
    so a step's level work is one multiply by its spread row. No
    (steps x 2^n) or (steps x levels) table is held.

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
        dt = sched.total_time / self.steps
        times = (np.arange(self.steps) + 0.5) * dt
        table = fraction_table(sched, times, n)

        paths, path = _equal_columns(table)
        rows = _diagonal_rows(model, path)
        self.rows = np.zeros((len(rows), dim))
        coef = np.empty((self.steps, len(rows)))
        for r, (key, row) in enumerate(rows.items()):
            self.rows[r] = row
            coef[:, r] = np.prod(paths[list(key)], axis=0)
        coef *= -0.5 * dt
        # c_j per multiply: step 0's, the sums of neighbours, step K-1's
        c = np.concatenate((coef[:1], coef[:-1] + coef[1:], coef[-1:]))

        # the multiply phase m, its ratio r and the ratio's ratio q, the
        # rows an anchor's exact evaluations fill in that order
        self.recurrence = np.empty((3, dim), dtype=np.complex128)
        self.arg = np.empty((3, dim))
        first = np.empty((1, dim), dtype=np.complex128)
        _phases(c[:1], self.rows, self.arg[:1], first)
        self.first = first[0]
        # a segment's steps have their midpoints between the same two
        # breakpoints of any path (sorted sets here and below: np.unique
        # loads numpy.ma, some 15 ms of a fresh process)
        knots = np.array(sorted({t for pts in (sched.breakpoints,
                                               *(sched.variable_paths or {}).values())
                                 for t, _ in pts}))
        starts = np.flatnonzero(np.diff(np.searchsorted(knots, times))) + 1
        # the runs of multiplies with quadratic c_j, between the ones that
        # stand alone: the first, the one before each segment and the last
        bounds = sorted({1, *starts.tolist(), *(starts + 1).tolist(), self.steps,
                         self.steps + 1})
        # per anchor multiply, the coefficient rows of its exact evaluations
        self.anchors: dict[int, np.ndarray] = {}
        for a, b in zip(bounds, bounds[1:]):
            if b - a < 3:
                self.anchors.update((j, c[j:j + 1].copy()) for j in range(a, b))
                continue
            # m, and r for the next multiply to continue from (after the
            # run's last multiply, an unused r: the next one is an anchor)
            js = np.arange(a, b, _ANCHOR_EVERY)
            self.anchors.update(zip(js.tolist(), np.stack((c[js], c[js + 1] - c[js]), axis=1)))
            # and q once per run
            self.anchors[a] = np.vstack((self.anchors[a], c[a] - 2.0 * c[a + 1] + c[a + 2]))

        theta = (1.0 - table) * dt
        # a group of m qubits with equal angle columns has z sum m - 2c,
        # c its set bits, so a state's level is its c per group in mixed radix
        angles, group = _equal_columns(theta)
        width = np.bincount(group, minlength=len(angles))
        radix = np.cumprod([1, *(width[:-1] + 1)])
        level = np.zeros(1, dtype=np.int64)
        for g in group:
            # the states with this qubit's bit set follow those without
            level = np.concatenate((level, level + radix[g]))
        counts = np.indices(tuple(width[::-1] + 1)).reshape(len(width), -1)[::-1].T
        self.zsums = (width - 2 * counts).astype(np.float64)
        self.angles = np.ascontiguousarray(angles.T)
        self.scale = 0.5 ** n
        # a block of level phases: its rows are steps
        self.block_steps = max(1, _LEVEL_BLOCK // len(self.zsums))
        shape = (min(self.block_steps, self.steps), len(self.zsums))
        self.level_angle = np.empty(shape)
        self.level_phase = np.empty(shape, dtype=np.complex128)
        # and spread into basis order for a block of its steps at once
        self.spread_steps = max(1, _LEVEL_BLOCK // dim)
        self.spread = np.empty((min(self.spread_steps, shape[0]), dim), dtype=np.complex128)

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
        lowest = gemm(low, rest)
        passes = [*upper, turn(rest), lowest], [lowest, turn(low), *upper]
        self.basis = (np.empty(dim, dtype=np.complex128), np.empty(dim, dtype=np.complex128))
        # (op, x, y, z) stages, run as op(x, y, z); each writes the other
        # buffer, and the two passes are equally long, so the second ends in
        # basis[0], where the step began
        self.stages = []
        for make in passes[0] + passes[1]:
            cur = len(self.stages) % 2
            self.stages.append(make(self.basis[cur], self.basis[1 - cur]))

    def run(self, psi: np.ndarray) -> tuple[np.ndarray, float]:
        """Evolve psi over the pass; returns (new psi, worst norm drift)."""
        rec, arg, anchors, spread = self.recurrence, self.arg, self.anchors, self.spread
        phase, ratio, curve = rec
        per, level_angle, level_phase = self.block_steps, self.level_angle, self.level_phase
        per_spread = self.spread_steps
        half = len(self.stages) // 2
        first, second = self.stages[:half], self.stages[half:]
        mid, out = self.basis[half % 2], self.basis[0]
        flat = out.view(np.float64)
        np.multiply(self.first, psi, out=out)
        nrm = 1.0
        worst_drift = 0.0
        for k in range(self.steps):
            for op, x, y, z in first:
                op(x, y, z)
            i = k % per
            if not i:
                # the level phases of the next block of steps, one row each
                stop = min(k + per, self.steps)
                block = level_phase[:stop - k]
                _phases(self.angles[k:stop], self.zsums.T, level_angle[:stop - k], block)
                block *= self.scale
            j = i % per_spread
            if not j:
                # spread into basis order for the next steps of the block;
                # levels are in range, so the take can skip its bounds check
                span = block[i:i + per_spread]
                span.take(self.level, axis=1, out=spread[:len(span)], mode="wrap")
            mid *= spread[j]
            for op, x, y, z in second:
                op(x, y, z)
            last, nrm = nrm, math.sqrt(np.dot(flat, flat))
            drift = abs(nrm / last - 1.0)
            if drift > 1e-6:
                raise IntegrationError(f"norm drifted by {drift:.2e} in one step")
            worst_drift = max(worst_drift, drift)
            coef = anchors.get(k + 1)
            if coef is None:
                # r advances past what the next anchor overwrites; one
                # multiply per anchor interval, not worth a flag
                phase *= ratio
                ratio *= curve
            else:
                e = len(coef)
                _phases(coef, self.rows, arg[:e], rec[:e])
            out *= phase
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
    on = value_domain(model)[1]
    k = sum(1 << i for i, v in enumerate(req.initial_state) if v == on)
    psi = np.zeros(1 << model.n, dtype=np.complex128)
    psi[k] = 1.0
    return psi


def schrodinger_anneal(req: SamplerRequest, steps: int | None = None) -> SampleSet:
    """Integrate the annealing Hamiltonian and sample the final state.

    H(t) = sum_i (1 - s_i(t)) (-sigma^x_i) + [problem diagonal with bias
    terms scaled by s_i and coupling terms by s_i s_j]. Integration is
    second-order operator splitting with the schedule evaluated at step
    midpoints, and the half-step diagonal phases of neighbouring steps
    merged into one multiply between them. The norm is taken each step,
    and a step that moves it by a ratio beyond 1 +- 1e-6 raises
    IntegrationError; psi is not renormalised between steps but divided
    once by its norm at the end. All qubit rotations of a step are one
    phase in the Hadamard basis, applied by real gemms, with the phases
    of its few distinct levels computed for blocks of steps at once and
    spread into basis order for blocks of steps, so a step multiplies by
    one precomputed row. The diagonal is folded by schedule path, and its
    phase advances by a recurrence that is evaluated exactly at every
    schedule breakpoint and every _ANCHOR_EVERY multiplies (see
    _Integration). Every phase exp(i a) is formed from t = tan(a / 2)
    (_phases): numpy's float64 tan is vectorised and its cos and sin
    are not, so the half-angle form ran about four times faster per
    entry, within about 3e-16 of cos and sin. So probabilities match a
    per-qubit rotation loop within 1e-12; the samples drawn for a seed
    are the same.
    """
    model = req.model
    n = model.n
    _check_statevector(model)
    sched = req.schedule
    rng = np.random.default_rng(req.seed)

    domain = value_domain(model)
    psi = _start_vector(req)
    if sched.total_time == 0.0:
        outcomes = measure(psi, req.reads, rng)
        return _assemble(model, [_index_state(k, n, domain) for k in outcomes])

    plan = _Integration(model, sched, steps)
    if sched.reinitialize:
        psi, drift = plan.run(psi)
        outcomes = measure(psi, req.reads, rng)
        return _assemble(model, [_index_state(k, n, domain) for k in outcomes], drift)

    # chained reads: each read collapses to its outcome and seeds the next
    states = []
    drift = 0.0
    for _ in range(req.reads):
        psi, d = plan.run(psi)
        drift = max(drift, d)
        k = int(measure(psi, 1, rng)[0])
        states.append(_index_state(k, n, domain))
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
    d = np.zeros(n)
    w = np.zeros((n, n))
    for vars_, c in energy_terms(model):
        if len(vars_) == 1:
            d[vars_[0]] = c
        else:
            i, j = vars_
            w[i, j] += c
            w[j, i] += c
    return w, d


def default_hot_temperature(model) -> float:
    scale = max((abs(c) for _, c in energy_terms(model)), default=0.0)
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

    The schedule is read once per request, at every sweep's midpoint, as
    one table; the active set is recomputed only at the sweeps where the
    moving variables change.
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
    a contiguous slice of rows. Within a layer, whose variables are not
    coupled to each other, the variables coupled to a later layer come
    last. The state is re-permuted only when the active set changes, and
    chained reads carry it from one read to the next; it returns to index
    order only to be read out. A layer's fields are one gemm over its
    active block, the span of active columns that couple to it (across
    its own rows, whose block of w is zero), plus its biases: d plus a
    gemm over its frozen block, the span of frozen columns that couple to
    it (see _layer_plan). Frozen rows hold still while their set does, so
    the biases are built on entering a set, and at each run's first
    sweep, rather than at every sweep. Each sweep draws its (active,
    reads) block in index order, as the RNG contract says, and one take
    puts the rows in layer order. A flip takes a value v to
    (off + on) - v, for bits and spins alike, so it adds the step
    (off + on) - 2v, and the accepted flips need no mask: x += step *
    accept. Every value is exactly 0/1 or +-1, so every step is exact.
    Summing a field over fewer, permuted columns may round differently
    from a per-variable loop, so a field can differ from the scalar
    loop's in the last bits; the sample sets stay identical, and the
    tests hold them to that.

    Acceptance. With z = min(dE / tau, 700) and q = 1 + e^z in floating
    point, a flip is accepted when u * q < 1, which needs no reciprocal;
    a zero field gives q = 2 exactly, so the test is u < 1/2. The Glauber
    form u < 1 / q rounds differently, and the two can disagree only
    where u * (1 + e^z) lies within 2^-51 of 1 (with exp within an ulp),
    about once in 1e16 draws; the tests hold the forms to that bound.
    """
    model = req.model
    n = model.n
    sched = req.schedule
    reads = req.reads
    rng = np.random.default_rng(req.seed)
    if t_hot is None:
        t_hot = default_hot_temperature(model)
    off, on = value_domain(model)
    w, d = _dense_form(model)

    flip_sum = float(off + on)
    # lockstep reads update one state column each; chained reads one column
    # in turn. The (n, count) buffers are updated in place, so views of
    # them are taken once.
    count = reads if sched.reinitialize else 1
    if req.initial_state is None:
        # drawn (count, n) as the RNG contract says, then made variable-major
        start = np.array((off, on), dtype=np.float64)[rng.integers(0, 2, size=(count, n)).T]
    else:
        start = np.repeat(np.array(req.initial_state, dtype=np.float64)[:, None], count, axis=1)
    states = np.empty((n, count))
    draws = np.empty((n, count))
    uniforms = np.empty((n, count))
    f_buf = np.empty((n, count))
    bias_buf = np.empty((n, count))
    step_buf = np.empty((n, count))
    p_buf = np.empty((n, count))
    accept_buf = np.empty((n, count), dtype=bool)

    def layer_plan(active: np.ndarray) -> tuple:
        """_layer_plan's permutation and draw positions; per layer, what
        builds its biases (frozen weights and state rows, d as a column,
        its rows of the bias buffer); and per layer, what its sweep uses
        (active weights and state rows, its biases, views of its state
        rows and uniforms, and its work buffers)."""
        perm, order, wp, spans = _layer_plan(w, active)
        biases, layers = [], []
        for a, b, (alo, ahi), (flo, fhi) in spans:
            m = b - a
            bias = bias_buf[a:b]
            biases.append((np.ascontiguousarray(wp[a:b, flo:fhi]), states[flo:fhi],
                           d[perm[a:b]][:, None], bias))
            layers.append((np.ascontiguousarray(wp[a:b, alo:ahi]), states[alo:ahi], bias,
                           states[a:b], uniforms[a:b], f_buf[:m], step_buf[:m], p_buf[:m],
                           accept_buf[:m]))
        return perm, order, biases, layers

    layered: dict[bytes, tuple] = {}
    sweep_sets: list[tuple[float, bytes]] = []
    if sched.total_time > 0.0 and n > 0:
        times = [(k + 0.5) * sched.total_time / sweeps for k in range(sweeps)]
        table = fraction_table(sched, times, n)
        # frozen means s >= 1; anything else may move
        moving = ~(table >= 1.0)
        lows = table.min(axis=1).tolist()
        # the sweeps where the moving set differs from the sweep before
        starts = [0, *(np.flatnonzero((moving[1:] != moving[:-1]).any(axis=1)) + 1).tolist()]
        for lo, hi in zip(starts, starts[1:] + [sweeps]):
            active = np.flatnonzero(moving[lo])
            if not len(active):
                continue
            key = active.tobytes()
            if key not in layered:
                layered[key] = layer_plan(active)
            for low in lows[lo:hi]:
                tau = t_hot * (1.0 - low)
                if not 0.0 < tau < math.inf:
                    raise ValueError(f"t_hot {t_hot!r} gives temperature {tau!r} at a sweep; "
                                     "it must be finite and keep every moving sweep above 0")
                sweep_sets.append((tau, key))

    # between runs the state is in the order of the last sweep's set, so
    # a chained read continues where the previous one stopped
    prev = sweep_sets[-1][1] if sweep_sets else None
    home = layered[prev][0] if sweep_sets else np.arange(n)
    plan: list[tuple] = []
    for k, (tau, key) in enumerate(sweep_sets):
        perm, order, biases, layers = layered[key]
        # rows of the previous order that make up this one
        move = None if key == prev else np.argsort(layered[prev][0])[perm]
        # the biases hold while the set does; a run's first sweep builds
        # them too, as the first run has none yet
        build = biases if k == 0 or key != prev else ()
        m = len(order)
        plan.append((tau, move, build, draws[:m], order, uniforms[:m], layers))
        prev = key
    states[...] = start[home]
    native = np.argsort(home)

    def run() -> None:
        for tau, move, build, block, order, u_all, layers in plan:
            if move is not None:
                states[...] = states[move]
            for w_frz, x_frz, d_col, bias in build:
                np.matmul(w_frz, x_frz, out=bias)
                bias += d_col
            rng.random(out=block)
            # the positions are in range, so the take can skip its bounds check
            np.take(block, order, axis=0, out=u_all, mode="wrap")
            for w_act, x_act, bias, x, u, f, step, p, accept in layers:
                np.matmul(w_act, x_act, out=f)
                f += bias
                # a flip takes v to (off + on) - v
                np.multiply(x, -2.0, out=step)
                step += flip_sum
                # f becomes delta, each flip's energy change
                f *= step
                # u * (1 + exp(min(delta / tau, 700))) < 1; below -700,
                # 1 + exp is already exactly 1, so no lower clip is needed
                np.divide(f, tau, out=p)
                np.minimum(p, 700.0, out=p)
                np.exp(p, out=p)
                p += 1.0
                p *= u
                np.less(p, 1.0, out=accept)
                step *= accept
                x += step

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


def _layer_plan(w: np.ndarray, active: np.ndarray) -> tuple:
    """heuristic_anneal's layout of one active set: the permutation of the
    variables (the active ones layer by layer, then the frozen ones in
    index order), the positions in `active` in that order, w permuted, and
    per layer its rows (a, b) in the permuted order with its two blocks.

    A layer's variables coupled to a later layer come last in it, so the
    columns that later layers need of it sit next to them. Each block is
    the column span (lo, hi) from the first to the last column that
    couples to the layer: the active block among the active columns
    (below len(active)), which may run across the layer's own rows, whose
    block of w is zero (see _layers), and the frozen block among the
    frozen columns. A block with no such column is empty (lo == hi): an
    all-zero block would only add +-0.0 to the fields, which changes no
    decision (a zero field is accepted at 1/2 either way)."""
    n = len(w)
    split = _layers(w, active)
    coupled = w[np.ix_(active, active)] != 0.0
    for k, pos in enumerate(split[:-1]):
        later = coupled[np.ix_(pos, np.concatenate(split[k + 1:]))].any(axis=1)
        split[k] = pos[np.argsort(later, kind="stable")]
    order = np.concatenate(split)
    frozen = np.ones(n, dtype=bool)  # not np.setdiff1d, which loads numpy.ma
    frozen[active] = False
    perm = np.concatenate((active[order], np.flatnonzero(frozen)))
    wp = w[np.ix_(perm, perm)]
    spans = []
    a = 0
    for pos in split:
        b = a + len(pos)
        blocks = []
        for lo, hi in ((0, len(active)), (len(active), n)):
            cols = np.flatnonzero(wp[a:b, lo:hi].any(axis=0))
            blocks.append((lo + int(cols[0]), lo + int(cols[-1]) + 1) if len(cols) else (lo, lo))
        spans.append((a, b, *blocks))
        a = b
    return perm, order, wp, spans


def _native_rows(states: np.ndarray) -> list[tuple[int, ...]]:
    """State rows as integer tuples; the values are exactly 0/1 or +-1."""
    return [tuple(r) for r in states.astype(np.int64).tolist()]


def _native_terms(model):
    """(variables, coefficient) per term, in the order the model's energy
    adds them; a Poly's are its own, the constant included."""
    return model.terms.items() if isinstance(model, Poly) else energy_terms(model)


def _fold(terms, pos: dict[int, int], state: Sequence[int]) -> dict[tuple[int, ...], float]:
    """The terms touching a group with every other variable fixed at its
    state value: a polynomial over the group's bit positions. Terms that
    miss the group add the same constant to every candidate and drop out."""
    local: dict[tuple[int, ...], float] = {}
    at = pos.get
    # one pass over each term's variables: a fixed one multiplies into c
    # in the term's variable order, a group one adds its bit position
    for vars_, c in terms:
        inside: tuple[int, ...] = ()
        for v in vars_:
            b = at(v)
            if b is None:
                c *= state[v]
            else:
                inside += (b,)
        if inside and c != 0.0:
            local[inside] = local.get(inside, 0.0) + c
    return local


def _best_assignment(terms, group: tuple[int, ...], domain, state: Sequence[int]) -> int:
    """Index of the group assignment the group step takes: the current
    one when its exact fold attains the fold's minimum, else the
    lowest-index assignment that does. With no fold a number (a NaN
    coefficient), there is no minimum and the current one stays."""
    local = _fold(terms, {v: b for b, v in enumerate(group)}, state)
    current = sum(1 << b for b, v in enumerate(group) if state[v] == domain[1])
    _, argmin = _exact_minimum(local.items(), len(group), domain)
    return argmin[0] if argmin and current not in argmin else current


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
    group, a polynomial over the group's bits, and takes the exact argmin
    of that fold over the 2^|group| assignments (bit b of index m is
    (m >> b) & 1) from the exhaustive search brute_force runs: the
    current assignment when its fold equals the minimum, else the
    lowest-index assignment attaining it. That is where a scalar
    first-improvement scan in index order, starting from the current
    assignment and taking each strictly lower energy, ends. A group
    wider than BRUTE_FORCE_MAX_VARS raises CapacityError before any
    stage runs.

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

    domain = value_domain(model)
    state = [int(v) for v in initial]
    # each stage folds only the terms that touch its group or activation,
    # in model order; the others drop out of its fold anyway
    terms = list(_native_terms(model))

    def touching(vars_: Iterable[int]) -> list:
        vs = frozenset(vars_)
        return [t for t in terms if not vs.isdisjoint(t[0])]

    group_terms = [touching(g) for g in groups]
    acts = activations or [None] * len(groups)
    act_terms = [None if a is None else touching((a,)) for a in acts]

    for _ in range(cycles):
        for gi, group in enumerate(groups):
            act = acts[gi]
            if act is not None:
                state[act] = domain[1]
            m = _best_assignment(group_terms[gi], group, domain, state)
            for b, v in enumerate(group):
                state[v] = domain[(m >> b) & 1]
            if act is not None:
                local = _fold(act_terms[gi], {act: 0}, state)
                e_off, e_on = fold_indices(local.items(), np.arange(2), 1, domain)
                state[act] = domain[1] if e_on < e_off else domain[0]
    return tuple(state)
