"""Single-QUBO formulation of policy iteration behind activation bits.

The policy and valuation objectives ride in one model,

    E(bits, x_p, x_v) = x_p g_p(x1 bits) + x_v g_v(x2, x3 bits)
                        + bias (x_p + x_v),

with each product quadratized separately and merged on a shared
variable index. A grouped schedule anneals {x1 bits, x_p} before
{x2, x3 bits, x_v}, so a single program can visit both objectives;
the drivers here differ in how reads chain (multi-anneal continues
from terminal states, one-shot reinitializes and post-selects).

Both component polynomials are strictly positive at every assignment,
so deactivated states are always preferred and terminal reads give
x_p = x_v = 0. Terminal energies are therefore not comparable across
reads; losses are reconstructed per objective instead, and the
one-shot post-processing ranks reads by per-parameter adjusted losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .bqm import QuboModel, fold_values
from .engines import (
    Sampler,
    SampleRecord,
    SampleSet,
    SamplerRequest,
    _assemble,
    heuristic_anneal,
    sequential_greedy,
)
from .pbf import BinaryEncoding, LogCoefficients, Poly, to_qubo
from .quadratize import AuxAllocation, aux_allocation, quadratize_full
from .rbc import (
    DEFAULT_INIT,
    DEFAULT_PARAMS,
    CollocationGrid,
    DegenerateEstimateError,
    GammaConstants,
    PpiState,
    RbcParams,
    _keep_lowest,
    build_gp_pbo,
    build_gv_pbo,
    collocation_grid,
    fit_log_coefficients,
    gamma_constants,
    spanning_scale,
    true_parameters,
)
from .schedules import AnnealSchedule, grouped_cycle_schedule

# Per-anneal schedule lengths printed for the one- and three-cycle runs
# are 23 and 115 microseconds; 23(2C - 1) reproduces both.
CYCLE_BASE_US = 23.0


def default_merged_encodings(
    params: RbcParams = DEFAULT_PARAMS,
    j1: int = 6,
    j2: int = 6,
    j3: int = 6,
    s2: float | None = None,
    s3: float | None = None,
) -> tuple[BinaryEncoding, BinaryEncoding, BinaryEncoding]:
    """Consecutive encodings for (x1, x2, x3) at the merged-run widths.

    x1 keeps the natural (0, 1) span. A scale left as None spans
    [0, 2x*], as the valuation registers do off their reference width,
    with the scale recomputed for the bit count: s = 2x* / (2^(J+1) - 1).
    """
    _, x2s, x3s = true_parameters(params)
    if s2 is None:
        s2 = spanning_scale(x2s, j2 + 1)
    if s3 is None:
        s3 = spanning_scale(x3s, j3 + 1)
    enc1 = BinaryEncoding(0, j1 + 1, 2.0 ** -(j1 + 1))
    return enc1, BinaryEncoding(j1 + 1, j2 + 1, s2), BinaryEncoding(j1 + j2 + 2, j3 + 1, s3)


@dataclass(frozen=True)
class MergedProblem:
    """The merged QUBO plus everything needed to decode and re-score it.

    poly is the exact cubic pseudo-Boolean form over primary variables
    only (bits and activations, no auxiliaries); qubo (with its constant
    offset) is its reduction over n variables, the auxiliaries of alloc
    included. The problem is itself a QUBO model, its q that of qubo, so
    a SamplerRequest carries the problem. block_allocs (the policy
    block's allocation, then the valuation block's) is set at build, and
    alloc is their union; the reduction is built on them the first time
    qubo, offset or q is read, so a sampler that walks poly never builds
    it. Anchors are the fixed cross-parameters each block was built
    with: the valuation block cannot see the live x1 bits, nor the
    policy block the live x3 bits, so the coupling the bars denote is
    frozen at build time.
    """

    params: RbcParams
    grid: CollocationGrid
    enc1: BinaryEncoding
    enc2: BinaryEncoding
    enc3: BinaryEncoding
    x_p: int
    x_v: int
    poly: Poly
    block_allocs: tuple[AuxAllocation, AuxAllocation]
    gp_poly: Poly
    gv_poly: Poly
    gammas: GammaConstants
    coeffs: LogCoefficients
    x1_anchor: float
    x3_anchor: float
    bias: float

    @cached_property
    def alloc(self) -> AuxAllocation:
        alloc_p, alloc_v = self.block_allocs
        return AuxAllocation(self.x_v + 1, alloc_p.records + alloc_v.records)

    @property
    def aux_vars(self) -> tuple[int, ...]:
        return self.alloc.aux_vars

    @property
    def n(self) -> int:
        return self.alloc.original_n + len(self.alloc.records)

    @cached_property
    def _reduction(self) -> tuple[QuboModel, float]:
        x_p, x_v = self.x_p, self.x_v
        alloc_p, alloc_v = self.block_allocs
        red_p = quadratize_full(Poly.variable(x_p) * self.gp_poly, alloc=alloc_p)
        red_v = quadratize_full(Poly.variable(x_v) * self.gv_poly, alloc=alloc_v)
        # The two reductions share no key, so their sum is their union in
        # order. Every term of x_p*g_p holds x_p, and every term of x_v*g_v
        # x_v; x_p and x_v exceed every bit, so each PTR closing pair holds
        # its block's activation, and every other reduction key holds one of
        # its block's auxiliaries. Neither block's keys hold the other's
        # activation or auxiliaries.
        bias_poly = self.bias * (Poly.variable(x_p) + Poly.variable(x_v))
        q_poly = Poly._of({**red_p.qubo_poly.terms, **red_v.qubo_poly.terms}) + bias_poly
        return to_qubo(q_poly, n=self.n)

    @property
    def qubo(self) -> QuboModel:
        return self._reduction[0]

    @property
    def offset(self) -> float:
        return self._reduction[1]

    @property
    def q(self) -> dict[tuple[int, int], float]:
        return self.qubo.q

    @property
    def primary_count(self) -> int:
        return self.x_v + 1

    @property
    def groups(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Bit groups per objective, activations excluded."""
        return self.enc1.vars, self.enc2.vars + self.enc3.vars

    @property
    def schedule_groups(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Anneal windows: each activation moves with its block's bits."""
        return self.enc1.vars + (self.x_p,), self.enc2.vars + self.enc3.vars + (self.x_v,)

    @property
    def policy_aux_count(self) -> int:
        return len(self.block_allocs[0].records)

    @property
    def valuation_aux_count(self) -> int:
        return len(self.block_allocs[1].records)

    def decode_states(self, states: Sequence[Sequence[int]]) -> list[tuple[float, float, float]]:
        """(x1, x2, x3) of each state: each register's integer m from its
        0/1 bits, then scale * m, bit-for-bit BinaryEncoding.encode_value."""
        bits = np.array([s[:self.x_p] for s in states], dtype=np.int64).reshape(len(states), self.x_p)
        if ((bits != 0) & (bits != 1)).any():
            raise ValueError("bit values must be 0 or 1")
        values = []
        for enc in (self.enc1, self.enc2, self.enc3):
            reg = bits[:, enc.var_base:enc.var_base + enc.bit_count]
            if enc.bit_count <= 62:
                m = reg @ (1 << np.arange(enc.bit_count))
                values.append((enc.scale * m.astype(np.float64)).tolist())
            else:
                # past 62 bits the weights leave int64: Python integers
                m = reg.astype(object) @ np.array([1 << j for j in range(enc.bit_count)], dtype=object)
                values.append([enc.scale * mi for mi in m])
        return list(zip(*values))

    def encode_initial(self, init: tuple[float, float, float] = DEFAULT_INIT) -> tuple[int, ...]:
        """Full classical start state: nearest bits for the parameters,
        activations and auxiliaries at zero."""
        state = [0] * self.n
        for enc, value in zip((self.enc1, self.enc2, self.enc3), init):
            for var, bit in zip(enc.vars, enc.nearest_bits(value)):
                state[var] = bit
        return tuple(state)

    def component_losses(self, states: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
        """(g_p, g_v) of each state, re-evaluated from its bits with the
        activations ignored; each value is bit-for-bit Poly.evaluate on
        the state's assignment.

        Terminal reads carry x_p = x_v = 0, which zeroes the merged
        energy; this is the reconstruction that makes reads comparable.
        """
        # g_p and g_v touch only the encoding bits, which precede the
        # activations and every auxiliary; one contiguous row per bit
        bits = np.array([s[:self.x_p] for s in states], dtype=np.float64).reshape(len(states), self.x_p)
        cols = bits.T.copy()
        return fold_values(self.gp_poly.terms.items(), cols), fold_values(self.gv_poly.terms.items(), cols)


def build_merged_problem(
    params: RbcParams = DEFAULT_PARAMS,
    encodings: tuple[BinaryEncoding, BinaryEncoding, BinaryEncoding] | None = None,
    grid: CollocationGrid | None = None,
    anchors: tuple[float, float] | None = None,
    bias: float = 0.0,
) -> MergedProblem:
    """x_p*g_p + x_v*g_v + bias*(x_p + x_v), with the auxiliaries that
    quadratizing x_p*g_p and x_v*g_v separately gives them: the policy
    block's from x_v + 1, then the valuation block's. The reductions and
    their merged QUBO are built when first read (see MergedProblem).

    anchors is (x1_bar, x3_bar): the valuation block is built at x1_bar
    and the policy block at x3_bar. The default is the closed-form
    parameter pair, which makes the true parameters a fixed point of
    the grouped anneal; a run without that knowledge would anchor at a
    classical warm start instead.

    bias is added per activation. Zero suffices here because both
    blocks are strictly positive (deactivation is already preferred);
    hardware runs raise it until terminal reads reliably deactivate.
    """
    if bias < 0.0:
        raise ValueError("bias must be nonnegative")
    if grid is None:
        grid = collocation_grid(params)
    if encodings is None:
        encodings = default_merged_encodings(params)
    enc1, enc2, enc3 = encodings
    used: set[int] = set()
    for enc in encodings:
        overlap = used & set(enc.vars)
        if overlap:
            raise ValueError(f"encodings overlap on variables {sorted(overlap)}")
        used |= set(enc.vars)
    if used != set(range(len(used))):
        raise ValueError("encodings must cover a contiguous block starting at 0")
    x_p = len(used)
    x_v = x_p + 1

    if anchors is None:
        x1_star, _, x3_star = true_parameters(params)
        anchors = (x1_star, x3_star)
    x1_anchor, x3_anchor = anchors

    coeffs = fit_log_coefficients(x3_anchor, params)
    gp_poly = build_gp_pbo(x3_anchor, enc1, coeffs, params)
    gv_poly, gammas = build_gv_pbo(x1_anchor, enc2, enc3, grid)

    prod_p = Poly.variable(x_p) * gp_poly
    prod_v = Poly.variable(x_v) * gv_poly
    bias_poly = bias * (Poly.variable(x_p) + Poly.variable(x_v))
    merged = prod_p + prod_v + bias_poly

    alloc_p = aux_allocation(prod_p, aux_start=x_v + 1)
    alloc_v = aux_allocation(prod_v, aux_start=x_v + 1 + len(alloc_p.records))
    return MergedProblem(
        params=params,
        grid=grid,
        enc1=enc1,
        enc2=enc2,
        enc3=enc3,
        x_p=x_p,
        x_v=x_v,
        poly=merged,
        block_allocs=(alloc_p, alloc_v),
        gp_poly=gp_poly,
        gv_poly=gv_poly,
        gammas=gammas,
        coeffs=coeffs,
        x1_anchor=x1_anchor,
        x3_anchor=x3_anchor,
        bias=bias,
    )


def merged_schedule(
    problem: MergedProblem,
    cycles: int = 1,
    total_time: float | None = None,
    reinitialize: bool = True,
    reversal_target: float = 0.0,
    down_fraction: float = 0.2,
    hold_fraction: float = 0.0,
) -> AnnealSchedule:
    """Grouped reverse anneal over the problem's two blocks.

    Auxiliaries are always active so each block's gadgets relax with it.
    """
    if total_time is None:
        total_time = CYCLE_BASE_US * (2 * cycles - 1)
    return grouped_cycle_schedule(
        total_time,
        problem.schedule_groups,
        cycles=cycles,
        reversal_target=reversal_target,
        always_active=problem.aux_vars,
        reinitialize=reinitialize,
        down_fraction=down_fraction,
        hold_fraction=hold_fraction,
    )


def greedy_merged_sampler(problem: MergedProblem, req: SamplerRequest) -> SampleSet:
    """Deterministic oracle: exhaustive per-block minimization.

    Runs the grouped greedy walk on the cubic polynomial directly, so
    no auxiliaries appear; each stage clamps the block's activation on,
    brute-forces the block's bits jointly, then lets the activation
    drop. States in the result cover primary variables only. The seed
    is unused, and a request without initial_state starts at all zeros.
    Bind the problem with functools.partial to get a Sampler.

    The walk is deterministic, so it runs once per distinct start: with
    reinitialize every read shares one walk, and a chain stops at the
    first read that returns its own start state, a fixed point that every
    remaining read would return again.
    """
    sched = req.schedule
    n = problem.primary_count
    start = req.initial_state[:n] if req.initial_state is not None else (0,) * n

    def walk(state: tuple[int, ...]) -> tuple[int, ...]:
        return sequential_greedy(
            problem.poly,
            groups=problem.groups,
            initial=state,
            cycles=sched.cycles,
            activations=(problem.x_p, problem.x_v),
        )

    if sched.reinitialize:
        return _assemble(problem.poly, [walk(start)] * req.reads)
    states: list[tuple[int, ...]] = []
    cur = start
    while len(states) < req.reads:
        nxt = walk(cur)
        if nxt == cur:
            # a fixed point: every remaining read returns it again
            states += [cur] * (req.reads - len(states))
            break
        states.append(nxt)
        cur = nxt
    return _assemble(problem.poly, states)


def _decoded_reads(
    problem: MergedProblem, records: Sequence[SampleRecord],
) -> tuple[list[tuple[float, float, float]], list[float], list[float]]:
    """Every read of `records` decoded, with its policy and valuation
    losses, in the order expand_states lists the reads. Each distinct
    record is decoded and scored once and repeated by its occurrences."""
    states = [r.state for r in records]
    g_p, g_v = problem.component_losses(states)

    def expand(values):
        return [v for v, r in zip(values, records) for _ in range(r.occurrences)]

    return expand(problem.decode_states(states)), expand(g_p.tolist()), expand(g_v.tolist())


def multi_anneal_ppi(
    problem: MergedProblem,
    sampler: Sampler | None = None,
    schedule: AnnealSchedule | None = None,
    reads: int = 50,
    init: tuple[float, float, float] = DEFAULT_INIT,
    seed: int = 0,
) -> PpiState:
    """Chained anneals of the merged problem, one program.

    Each read continues from the previous terminal state; the first
    starts from `init`. Terminal energies are all zero (activations
    drop), so the two objective components are reconstructed per read
    and the parameters come from the per-objective lowest-loss reads.
    x1 comes from the lowest-policy-loss read that decodes it inside
    (0, 1); DegenerateEstimateError is raised when no read does.
    The sampler defaults to heuristic_anneal.
    """
    if sampler is None:
        sampler = heuristic_anneal
    if schedule is None:
        schedule = merged_schedule(problem, cycles=1, reinitialize=False)
    req = SamplerRequest(problem, schedule, reads=reads,
                         initial_state=problem.encode_initial(init), seed=seed)
    if req.schedule.reinitialize:
        raise ValueError("multi-anneal reads continue from terminal states; "
                         "build the schedule with reinitialize=False")
    decoded, g_p, g_v = _decoded_reads(problem, sampler(req).records)
    # the lowest read per objective, the first one on ties; the policy
    # pick skips reads whose x1 anchors no valuation step
    usable = [i for i, d in enumerate(decoded) if 0.0 < d[0] < 1.0]
    if not usable:
        raise DegenerateEstimateError("no read decodes x1 in (0, 1)")
    best_p = usable[_keep_lowest([g_p[i] for i in usable], 1.0)[0]]
    best_v = _keep_lowest(g_v, 1.0)[0]
    x1 = decoded[best_p][0]
    _, x2, x3 = decoded[best_v]
    return PpiState(
        x1=x1,
        x2=x2,
        x3=x3,
        iteration=reads,
        loss_history=tuple(lp + lv for lp, lv in zip(g_p, g_v)),
    )


@dataclass(frozen=True)
class AnnealOutcome:
    """One read's decoded parameters and its three loss readings.

    adjusted_loss and minimum_loss are per-parameter triples; the
    minimum loss needs the true parameters and exists for evaluation
    only.
    """

    params: tuple[float, float, float]
    unadjusted_loss: float
    adjusted_loss: tuple[float, float, float]
    minimum_loss: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        values = [self.unadjusted_loss, *self.adjusted_loss]
        if self.minimum_loss is not None:
            values += list(self.minimum_loss)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("losses must be finite")


def _gp_surrogate(x3_bar: float, params: RbcParams) -> Callable[[float], float]:
    """Continuous policy objective at the surrogates anchored at x3_bar,
    as a function of x1; the surrogates are fitted once per anchor.

    Coincides with gp_poly evaluated at any bit state decoding to x1.
    """
    c = fit_log_coefficients(x3_bar, params)
    kappa = params.alpha * params.beta * x3_bar

    def value(x1: float) -> float:
        return -(c.at0 + c.at1 * x1) - kappa * (c.a0 + c.a1 * x1 + c.a2 * x1 * x1)

    return value


def _check_range(name: str, value: float, enc: BinaryEncoding) -> None:
    lo, hi = sorted((0.0, enc.scale * enc.max_int))
    if not lo - 1e-9 <= value <= hi + 1e-9:
        raise ValueError(f"{name}={value} outside its encoding range [{lo}, {hi}]")


def losses(
    outcome_params: tuple[float, float, float],
    problem: MergedProblem,
    reference: tuple[float, float, float] | None = None,
    anchor: tuple[float, float, float] | None = None,
) -> AnnealOutcome:
    """Score one read: unadjusted, adjusted, and (optionally) minimum loss.

    unadjusted re-evaluates g_p + g_v at the read's parameters with the
    activations ignored; it tracks x2 errors and little else, since the
    valuation component dwarfs the policy one. adjusted scores each
    parameter with the other two held at `anchor` (callers pass the
    mean over the lowest-energy reads; defaults to the read itself).
    The policy component carries no x2 terms by construction, which is
    the additive-x2 drop the adjustment calls for. minimum anchors at
    the true parameters instead and is reported only when a reference
    is given.
    """
    _check_read(outcome_params, problem)
    if anchor is None:
        anchor = outcome_params
    return _scorer(problem, anchor, reference)(outcome_params)


def _check_read(outcome_params: tuple[float, float, float], problem: MergedProblem) -> None:
    x1, x2, x3 = outcome_params
    _check_range("x1", x1, problem.enc1)
    _check_range("x2", x2, problem.enc2)
    _check_range("x3", x3, problem.enc3)


def _scorer(
    problem: MergedProblem,
    anchor: tuple[float, float, float],
    reference: tuple[float, float, float] | None,
) -> Callable[[tuple[float, float, float]], AnnealOutcome]:
    """The scoring of `losses` with the gamma constants and policy
    surrogates of the anchor and the reference computed once, for every
    read scored against them."""
    params = problem.params
    a1, a2_, a3 = anchor
    gam_a = gamma_constants(a1, problem.grid)
    gam_r = gp_r = None
    if reference is not None:
        r1, r2, r3 = reference
        gam_r = gamma_constants(r1, problem.grid)
        gp_r = _gp_surrogate(r3, params)
    gp_built = _gp_surrogate(problem.x3_anchor, params)
    gp_a = _gp_surrogate(a3, params)

    def score(outcome_params: tuple[float, float, float]) -> AnnealOutcome:
        x1, x2, x3 = outcome_params
        unadjusted = gp_built(x1) + problem.gammas.evaluate(x2, x3)
        adjusted = (
            gp_a(x1),
            gam_a.evaluate(x2, a3),
            gam_a.evaluate(a2_, x3),
        )
        minimum = None
        if gam_r is not None:
            minimum = (
                gp_r(x1),
                gam_r.evaluate(x2, r3),
                gam_r.evaluate(r2, x3),
            )
        return AnnealOutcome(outcome_params, unadjusted, adjusted, minimum)

    return score


def one_shot_ensemble(
    problem: MergedProblem,
    sampler: Sampler | None = None,
    schedule: AnnealSchedule | None = None,
    reads: int = 200,
    cycles: int = 3,
    keep_fraction: float = 0.1,
    seed: int = 0,
    reference: tuple[float, float, float] | None = None,
) -> list[AnnealOutcome]:
    """Independent anneal reads of the merged problem, scored.

    The request carries no initial state, so every read of the default
    heuristic_anneal starts from a fresh random classical state, and
    cycles the two blocks C times within its anneal. Adjusted losses
    anchor at the parameter means over the lowest-unadjusted-loss reads.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    if sampler is None:
        sampler = heuristic_anneal
    if schedule is None:
        schedule = merged_schedule(problem, cycles=cycles, reinitialize=True)
    records = sampler(SamplerRequest(problem, schedule, reads=reads, seed=seed)).records
    decoded, g_p, g_v = _decoded_reads(problem, records)
    distinct = dict.fromkeys(decoded)
    for d in distinct:
        _check_read(d, problem)

    lowest = _keep_lowest([lp + lv for lp, lv in zip(g_p, g_v)], keep_fraction)
    anchor = tuple(float(np.mean([decoded[i][p] for i in lowest])) for p in range(3))
    score = _scorer(problem, anchor, reference)
    # each distinct parameter triple is scored once
    outcome = {d: score(d) for d in distinct}
    return [outcome[d] for d in decoded]


def one_shot_ppi(
    problem: MergedProblem,
    sampler: Sampler | None = None,
    schedule: AnnealSchedule | None = None,
    reads: int = 200,
    cycles: int = 3,
    keep_fraction: float = 0.1,
    seed: int = 0,
) -> PpiState:
    """One program, independent reads, post-selected averages.

    Each parameter is averaged over the reads with the lowest adjusted
    loss for that parameter (keep_fraction of all reads).
    """
    outcomes = one_shot_ensemble(
        problem,
        sampler=sampler,
        schedule=schedule,
        reads=reads,
        cycles=cycles,
        keep_fraction=keep_fraction,
        seed=seed,
    )
    kept_means = []
    kept_losses = []
    for p in range(3):
        order = _keep_lowest([o.adjusted_loss[p] for o in outcomes], keep_fraction)
        kept_means.append(float(np.mean([outcomes[i].params[p] for i in order])))
        kept_losses.append(float(np.mean([outcomes[i].adjusted_loss[p] for i in order])))
    return PpiState(
        x1=kept_means[0],
        x2=kept_means[1],
        x3=kept_means[2],
        iteration=cycles,
        loss_history=tuple(kept_losses),
    )
