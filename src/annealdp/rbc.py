"""Stochastic-growth benchmark and parametric policy iteration.

Full-depreciation log-utility growth model with a five-state productivity
chain: closed-form solution, collocation grid, the policy and valuation
objectives as binary polynomials, and the iteration drivers (continuous
least squares, and the sampler in the loop). Exhaustive grid search is
the sampler step with the exhaustive oracle at one read. Every driver
runs a fixed number of iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .bqm import brute_force
from .engines import Sampler, SampleSet, SamplerRequest, _assemble
from .pbf import (
    PRUNE_TOL,
    BinaryEncoding,
    LogCoefficients,
    Poly,
    ln_1mx_poly,
    ln_x_poly,
    to_qubo,
    write_csv,
)
from .schedules import AnnealSchedule, forward_schedule


class DegenerateEstimateError(ValueError):
    """An estimate left the domain the model is defined on: a slope
    x3_bar that is not positive, or a savings rate x1 outside (0, 1)."""


# Five-state productivity calibration. The printed middle row of this
# standard chain sums to 1.0001, so every row is normalized by its sum
# to make the matrix exactly row-stochastic.
_RAW_TRANSITION = (
    (0.9727, 0.0273, 0.0, 0.0, 0.0),
    (0.0041, 0.9806, 0.0153, 0.0, 0.0),
    (0.0, 0.0082, 0.9837, 0.0082, 0.0),
    (0.0, 0.0, 0.0153, 0.9806, 0.0041),
    (0.0, 0.0, 0.0, 0.0273, 0.9727),
)
TRANSITION = tuple(tuple(v / sum(row) for v in row) for row in _RAW_TRANSITION)
Z_GRID = (0.9792, 0.9896, 1.0000, 1.0106, 1.0212)


@dataclass(frozen=True)
class RbcParams:
    """Model calibration.

    delta is carried for documentation; everything downstream requires
    full depreciation, where the savings rate is constant and the exact
    solution is available in closed form.
    """

    alpha: float = 0.33
    beta: float = 0.95
    delta: float = 1.0
    z_grid: tuple[float, ...] = Z_GRID
    transition: tuple[tuple[float, ...], ...] = TRANSITION

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if len(self.z_grid) != len(self.transition):
            raise ValueError("z_grid and transition sizes disagree")
        if any(b <= a for a, b in zip(self.z_grid, self.z_grid[1:])):
            raise ValueError("z_grid must be strictly increasing")
        if any(z <= 0.0 for z in self.z_grid):
            raise ValueError("z_grid must be positive")
        for r, row in enumerate(self.transition):
            if len(row) != len(self.z_grid):
                raise ValueError("transition must be square")
            if any(p < 0.0 for p in row):
                raise ValueError(f"transition row {r} has a negative entry")
            if abs(sum(row) - 1.0) > 1e-12:
                raise ValueError(f"transition row {r} sums to {sum(row)!r}, not 1")

    @property
    def k_bar(self) -> float:
        """Deterministic steady-state capital under full depreciation."""
        return (self.alpha * self.beta) ** (1.0 / (1.0 - self.alpha))

    def stationary(self) -> np.ndarray:
        p = np.asarray(self.transition, dtype=np.float64)
        w, v = np.linalg.eig(p.T)
        pi = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        pi = np.abs(pi)
        return pi / pi.sum()

    def expected_log_z(self) -> float:
        """E[ln z] under the stationary distribution, computed once per
        instance."""
        return self._expected_log_z

    def conditional_expected_log_z(self) -> np.ndarray:
        """E[ln z' | z] for each current state, exact from the chain;
        computed once per instance and returned read-only."""
        return self._conditional_log_z

    # cached on the instance (the dataclass is frozen, so the fields
    # cannot change under the cache); the fields need not be hashable
    @cached_property
    def _expected_log_z(self) -> float:
        return float(self.stationary() @ np.log(self.z_grid))

    @cached_property
    def _conditional_log_z(self) -> np.ndarray:
        e = np.asarray(self.transition) @ np.log(self.z_grid)
        e.flags.writeable = False
        return e


DEFAULT_PARAMS = RbcParams()


@dataclass(frozen=True)
class CollocationGrid:
    """Capital nodes crossed with every productivity state."""

    params: RbcParams
    k_nodes: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.k_nodes) < 2:
            raise ValueError("need at least two capital nodes")
        if any(k <= 0.0 for k in self.k_nodes):
            raise ValueError("capital nodes must be positive")

    @property
    def node_count(self) -> int:
        return len(self.k_nodes) * len(self.params.z_grid)

    def log_y(self) -> np.ndarray:
        """ln y = ln z + alpha ln k at every (k, z) node, k-major order."""
        lnk = self.params.alpha * np.log(self.k_nodes)
        lnz = np.log(self.params.z_grid)
        return (lnk[:, None] + lnz[None, :]).ravel()

    def z_index(self) -> np.ndarray:
        nz = len(self.params.z_grid)
        return np.tile(np.arange(nz), len(self.k_nodes))

    @cached_property
    def _residual_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(ln y, zeta) at every node: the parts of gamma_constants'
        residual that do not depend on the policy, computed once per grid."""
        p = self.params
        u = self.log_y()
        e_cond = p.conditional_expected_log_z()[self.z_index()]
        return u, p.beta * e_cond + (p.alpha * p.beta - 1.0) * u


def collocation_grid(params: RbcParams = DEFAULT_PARAMS, k_count: int = 133) -> CollocationGrid:
    """Evenly spaced capital nodes on [0.5, 1.5] times steady state."""
    if k_count < 2:
        raise ValueError("k_count must be >= 2")
    kb = params.k_bar
    return CollocationGrid(params, tuple(np.linspace(0.5 * kb, 1.5 * kb, k_count)))


def closed_form_step(k: float, z_index: int, params: RbcParams = DEFAULT_PARAMS) -> tuple[float, float]:
    """Exact one-period transition (consumption, next capital)."""
    if k <= 0.0:
        raise ValueError("capital must be positive")
    if not 0 <= z_index < len(params.z_grid):
        raise ValueError("z_index out of range")
    _require_full_depreciation(params)
    ab = params.alpha * params.beta
    y = params.z_grid[z_index] * k ** params.alpha
    return (1.0 - ab) * y, ab * y


def _require_full_depreciation(params: RbcParams) -> None:
    if params.delta != 1.0:
        raise ValueError("closed form requires full depreciation (delta = 1)")


def true_parameters(params: RbcParams = DEFAULT_PARAMS) -> tuple[float, float, float]:
    """Exact (x1, x2, x3) of the log-linear value and savings policy.

    The intercept uses E[ln z'] under the stationary distribution of the
    chain; the slope and savings rate are distribution-free.
    """
    _require_full_depreciation(params)
    ab = params.alpha * params.beta
    x1 = ab
    x3 = 1.0 / (1.0 - ab)
    e_lnz = params.expected_log_z()
    x2 = (math.log(1.0 - ab) + params.beta * x3 * e_lnz + ab * x3 * math.log(ab)) / (1.0 - params.beta)
    return x1, x2, x3


def analytic_policy_update(x3_bar: float, params: RbcParams = DEFAULT_PARAMS) -> float:
    """Savings rate solving the exact first-order condition at slope x3_bar."""
    if x3_bar <= 0.0:
        raise DegenerateEstimateError("x3_bar must be positive")
    kappa = params.alpha * params.beta * x3_bar
    return kappa / (1.0 + kappa)


def fit_log_coefficients(x3_bar: float, params: RbcParams = DEFAULT_PARAMS) -> LogCoefficients:
    """Log surrogates anchored at the current policy optimum.

    The quadratic for ln(x) matches value and curvature at the point the
    first-order condition picks for slope x3_bar, and its linear term is
    chosen so the surrogate objective's stationary point lands exactly
    there. Off-the-shelf global fits put the binary argmin at the edge of
    the encoded range, so the anchor is what makes the policy search
    usable.
    """
    if x3_bar <= 0.0:
        raise DegenerateEstimateError("x3_bar must be positive")
    kappa = params.alpha * params.beta * x3_bar
    v = kappa / (1.0 + kappa)
    a2 = -1.0 / (2.0 * v * v)
    a1 = (2.0 + kappa) / kappa
    a0 = math.log(v) - a1 * v - a2 * v * v
    at1 = -1.0
    at0 = math.log(1.0 - v) - at1 * v
    return LogCoefficients(a0=a0, a1=a1, a2=a2, at0=at0, at1=at1)


def spanning_scale(value: float, bits: int) -> float:
    """Scale at which a register of `bits` bits spans [0, 2 value]."""
    return 2.0 * value / ((1 << bits) - 1)


def default_valuation_encodings(
    j2: int = 9,
    j3: int = 9,
    s2: float | None = None,
    s3: float | None = None,
) -> tuple[BinaryEncoding, BinaryEncoding]:
    """Disjoint encodings for the intercept and slope, intercept first,
    each of J+1 bits.

    A scale left as None is the reference pair (-0.035, 0.003) at the
    reference width J = 9, and spans [0, 2x*] at any other width, like
    the merged registers.
    """
    _, x2s, x3s = true_parameters()
    if s2 is None:
        s2 = -0.035 if j2 == 9 else spanning_scale(x2s, j2 + 1)
    if s3 is None:
        s3 = 0.003 if j3 == 9 else spanning_scale(x3s, j3 + 1)
    return BinaryEncoding(0, j2 + 1, s2), BinaryEncoding(j2 + 1, j3 + 1, s3)


def build_gp_pbo(
    x3_bar: float,
    enc1: BinaryEncoding,
    coeffs: LogCoefficients | None = None,
    params: RbcParams = DEFAULT_PARAMS,
) -> Poly:
    """Policy objective -ln(1-x1) - alpha*beta*x3_bar*ln(x1) over bits of x1.

    Quadratic in the bits. With no coefficients given, the surrogates are
    anchored at the current optimum via fit_log_coefficients.
    """
    if x3_bar <= 0.0:
        raise ValueError("x3_bar must be positive")
    if coeffs is None:
        coeffs = fit_log_coefficients(x3_bar, params)
    kappa = params.alpha * params.beta * x3_bar
    return -ln_1mx_poly(enc1, coeffs) - kappa * ln_x_poly(enc1, coeffs)


@dataclass(frozen=True)
class GammaConstants:
    """Grid-aggregated coefficients of the valuation quadratic.

    gamma22 is the per-node coefficient of x2^2 and equals (1-beta)^2
    identically; it is scaled by node_count on assembly. Everything else
    is already summed over the grid.
    """

    gamma0: float
    gamma1: float
    gamma2: float
    gamma3: float
    gamma23: float
    gamma22: float
    gamma33: float
    zeta: float
    node_count: int

    def __post_init__(self) -> None:
        vals = (self.gamma0, self.gamma1, self.gamma2, self.gamma3,
                self.gamma23, self.gamma22, self.gamma33, self.zeta)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("gamma constants must be finite")

    def evaluate(self, x2: float, x3: float) -> float:
        return (self.gamma0 + self.gamma1
                + self.gamma2 * x2 + self.gamma3 * x3 + self.gamma23 * x2 * x3
                + self.node_count * self.gamma22 * x2 * x2 + self.gamma33 * x3 * x3)


def gamma_constants(x1_bar: float, grid: CollocationGrid) -> GammaConstants:
    """Sum the squared fixed-point residual of the log-linear value.

    At each node the residual of v against one application of the Bellman
    operator under savings rate x1_bar is

        (1-beta) x2 + w x3 - t,
        w = (1-alpha*beta) ln y - beta E[ln z'|z] - alpha*beta ln x1_bar,
        t = ln(1-x1_bar) + ln y,

    so the summed square is an exact quadratic in (x2, x3). zeta is the
    grid sum of beta E[ln z'|z] + (alpha*beta - 1) ln y, the conditional
    continuation shift entering w with sign flipped.
    """
    if not 0.0 < x1_bar < 1.0:
        raise DegenerateEstimateError("x1_bar must lie in (0, 1)")
    p = grid.params
    ab = p.alpha * p.beta
    u, zeta = grid._residual_nodes
    w = -zeta - ab * math.log(x1_bar)
    t = math.log(1.0 - x1_bar) + u
    n = grid.node_count
    one_mb = 1.0 - p.beta
    return GammaConstants(
        gamma0=float(u @ u),
        gamma1=float(n * math.log(1.0 - x1_bar) ** 2 + 2.0 * math.log(1.0 - x1_bar) * u.sum()),
        gamma2=float(-2.0 * one_mb * t.sum()),
        gamma3=float(-2.0 * w @ t),
        gamma23=float(2.0 * one_mb * w.sum()),
        gamma22=one_mb * one_mb,
        gamma33=float(w @ w),
        zeta=float(zeta.sum()),
        node_count=n,
    )


def build_gv_pbo(
    x1_bar: float,
    enc2: BinaryEncoding,
    enc3: BinaryEncoding,
    grid: CollocationGrid,
) -> tuple[Poly, GammaConstants]:
    """Valuation objective over the bits of (x2, x3).

    Quadratic in the bits; the all-zero assignment evaluates to
    gamma0 + gamma1.
    """
    if set(enc2.vars) & set(enc3.vars):
        raise ValueError("x2 and x3 encodings overlap")
    gam = gamma_constants(x1_bar, grid)
    x2 = list(enc2.value_poly().terms.items())
    x3 = list(enc3.value_poly().terms.items())
    # The terms of gamma0 + gamma1 + gamma2 x2 + gamma3 x3 + gamma23 x2 x3
    # + n gamma22 x2^2 + gamma33 x3^2 as Poly arithmetic sums them, bit
    # for bit and in its key order: each product's and each scaled
    # product's coefficient pruned as it is formed, each sum pruned as it
    # lands. A square's cross pair b_i b_j is c_i c_j + c_j c_i.
    def square(x):
        for i, (ki, ci) in enumerate(x):
            yield ki, ci * ci
            for kj, cj in x[i + 1:]:
                p = ci * cj
                yield ki | kj, p + p

    cross = ((ki | kj, ci * cj) for ki, ci in x2 for kj, cj in x3)
    terms = Poly.constant(gam.gamma0 + gam.gamma1).terms
    for g, product in ((gam.gamma2, x2), (gam.gamma3, x3), (gam.gamma23, cross),
                       (gam.node_count * gam.gamma22, square(x2)), (gam.gamma33, square(x3))):
        for key, c in product:
            # written so that a NaN is pruned, as Poly prunes it
            c = c * g if abs(c) > PRUNE_TOL else 0.0
            if abs(c) > PRUNE_TOL:
                c = terms.get(key, 0.0) + c
                if abs(c) > PRUNE_TOL:
                    terms[key] = c
                else:
                    terms.pop(key, None)
    return Poly._of(terms), gam


@dataclass(frozen=True)
class PpiState:
    """Parameter vector after a number of completed iterations."""

    x1: float
    x2: float
    x3: float
    iteration: int
    loss_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.x1 < 1.0:
            raise DegenerateEstimateError("x1 must lie in (0, 1)")
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")

    def as_tuple(self) -> tuple[float, float, float]:
        return self.x1, self.x2, self.x3


DEFAULT_INIT = (0.5, -0.5, 0.5)


def pct_errors(state: PpiState, truth: tuple[float, float, float]) -> tuple[float, float, float]:
    """|error| % of each estimate against the true parameters."""
    return tuple(100.0 * abs(v / t - 1.0) for v, t in zip(state.as_tuple(), truth))


def _iterate_ppi(
    valuation: Callable[[float, int], tuple[float, float, float]],
    params: RbcParams,
    init: tuple[float, float, float],
    iterations: int,
    history: list[PpiState] | None,
) -> PpiState:
    """Common alternation, a fixed number of times: analytic policy step,
    then a valuation step.

    The valuation callback maps (x1_bar, iteration index) to
    (x2, x3, loss). Passing a list as history captures the state after
    every iteration.
    """
    if iterations < 1:
        raise ValueError("iteration limit must be >= 1")
    x1, x2, x3 = init
    losses: list[float] = []
    for it in range(iterations):
        x1 = analytic_policy_update(x3, params)
        x2, x3, loss = valuation(x1, it)
        losses.append(loss)
        if history is not None:
            history.append(PpiState(x1, x2, x3, it + 1, tuple(losses)))
    return PpiState(x1, x2, x3, iterations, tuple(losses))


def classical_ppi(
    params: RbcParams = DEFAULT_PARAMS,
    grid: CollocationGrid | None = None,
    init: tuple[float, float, float] = DEFAULT_INIT,
    fixed_iterations: int = 2,
    history: list[PpiState] | None = None,
) -> PpiState:
    """Policy iteration with the valuation step solved continuously.

    The summed squared residual is linear least squares in (x2, x3); the
    normal equations are solved exactly each iteration.
    """
    if grid is None:
        grid = collocation_grid(params)

    def valuation(x1_bar: float, _it: int) -> tuple[float, float, float]:
        gam = gamma_constants(x1_bar, grid)
        a = np.array([
            [2.0 * gam.node_count * gam.gamma22, gam.gamma23],
            [gam.gamma23, 2.0 * gam.gamma33],
        ])
        b = -np.array([gam.gamma2, gam.gamma3])
        x2, x3 = np.linalg.solve(a, b)
        return float(x2), float(x3), gam.evaluate(float(x2), float(x3))

    return _iterate_ppi(valuation, params, init, fixed_iterations, history)


def combinatorial_ppi(
    params: RbcParams = DEFAULT_PARAMS,
    grid: CollocationGrid | None = None,
    encodings: tuple[BinaryEncoding, BinaryEncoding] | None = None,
    init: tuple[float, float, float] = DEFAULT_INIT,
    fixed_iterations: int = 2,
    history: list[PpiState] | None = None,
) -> PpiState:
    """Policy iteration with the valuation argmin found exhaustively.

    This is hybrid_ppi's sampler step with the exhaustive oracle at one
    read: every joint bit assignment of the two encodings is enumerated,
    so the step is deterministic and ties resolve to the lowest state
    index.
    """
    return hybrid_ppi(params, oracle_sampler, grid=grid, encodings=encodings, init=init,
                      iterations=fixed_iterations, reads=1, keep_fraction=1.0,
                      history=history)


def oracle_sampler(req: SamplerRequest) -> SampleSet:
    """Exhaustive stand-in for an annealer: every read is the argmin,
    scored with brute force's exact fold."""
    return _assemble(req.model, [brute_force(req.model).argmin_states[0]] * req.reads)


def _keep_lowest(values: Sequence[float], fraction: float) -> list[int]:
    """Indices of the lowest `fraction` of values (at least one), lowest
    first. The sort is stable, so ties keep their order."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")
    keep = max(1, math.ceil(len(values) * fraction))
    return sorted(range(len(values)), key=values.__getitem__)[:keep]


def hybrid_ppi(
    params: RbcParams = DEFAULT_PARAMS,
    sampler: Sampler | None = None,
    schedule: AnnealSchedule | None = None,
    grid: CollocationGrid | None = None,
    encodings: tuple[BinaryEncoding, BinaryEncoding] | None = None,
    init: tuple[float, float, float] = DEFAULT_INIT,
    iterations: int = 2,
    reads: int = 100,
    keep_fraction: float = 0.1,
    seed: int = 0,
    history: list[PpiState] | None = None,
) -> PpiState:
    """Policy iteration with the valuation step delegated to a sampler,
    for a fixed number of iterations.

    Each iteration draws `reads` samples of the valuation problem over
    `schedule` (default: a 20 us forward anneal) from fresh starts, keeps
    the lowest keep_fraction by energy, and averages their decoded
    parameters. With the exhaustive oracle as the sampler (the default)
    every read is the argmin, and at one read this is the exhaustive
    grid search, combinatorial_ppi.
    """
    if sampler is None:
        sampler = oracle_sampler
    if schedule is None:
        schedule = forward_schedule(20.0)
    if grid is None:
        grid = collocation_grid(params)
    enc2, enc3 = encodings if encodings is not None else default_valuation_encodings()

    def valuation(x1_bar: float, it: int) -> tuple[float, float, float]:
        poly, _ = build_gv_pbo(x1_bar, enc2, enc3, grid)
        qubo, offset = to_qubo(poly)
        ss = sampler(SamplerRequest(qubo, schedule, reads=reads, seed=seed + it))
        states = ss.expand_states()
        energies = [r.energy for r in ss.records for _ in range(r.occurrences)]
        kept = _keep_lowest(energies, keep_fraction)
        x2 = float(np.mean([enc2.decode_assignment(states[i]) for i in kept]))
        x3 = float(np.mean([enc3.decode_assignment(states[i]) for i in kept]))
        loss = float(np.mean([energies[i] for i in kept])) + offset
        return x2, x3, loss

    return _iterate_ppi(valuation, params, init, iterations, history)


@dataclass(frozen=True)
class ConsumptionPath:
    """Side-by-side consumption paths under a common productivity draw."""

    z_path: tuple[int, ...]
    c_exact: tuple[float, ...]
    c_model: tuple[float, ...]
    k_exact: tuple[float, ...]
    k_model: tuple[float, ...]

    @property
    def rel_gap(self) -> tuple[float, ...]:
        return tuple(abs(m - e) / e for m, e in zip(self.c_model, self.c_exact))


def simulate_consumption(
    x1_hat: float,
    params: RbcParams = DEFAULT_PARAMS,
    periods: int = 10,
    k0: float | None = None,
    z_path: Sequence[int] | None = None,
    shock_index: int = 0,
    shock_period: int = 1,
) -> ConsumptionPath:
    """Run the estimated savings rate against the exact policy.

    Both paths start from the same capital and see the same productivity
    draw. The default draw sits at the middle state and drops to
    shock_index from shock_period onward.
    """
    if not 0.0 < x1_hat < 1.0:
        raise ValueError("x1_hat must lie in (0, 1)")
    if periods < 1:
        raise ValueError("periods must be >= 1")
    _require_full_depreciation(params)
    if z_path is None:
        mid = len(params.z_grid) // 2
        z_path = [mid] * min(shock_period, periods) + [shock_index] * max(0, periods - shock_period)
    z_path = tuple(int(z) for z in z_path)
    if len(z_path) != periods:
        raise ValueError("z_path length must equal periods")
    if any(not 0 <= z < len(params.z_grid) for z in z_path):
        raise ValueError("z_path index out of range")
    k_e = k_m = params.k_bar if k0 is None else k0
    if k_e <= 0.0:
        raise ValueError("capital must be positive")
    ce, cm, ke, km = [], [], [], []
    for z in z_path:
        c, k_e_next = closed_form_step(k_e, z, params)
        y_m = params.z_grid[z] * k_m ** params.alpha
        ce.append(c)
        cm.append((1.0 - x1_hat) * y_m)
        ke.append(k_e)
        km.append(k_m)
        k_e = k_e_next
        k_m = x1_hat * y_m
    return ConsumptionPath(z_path, tuple(ce), tuple(cm), tuple(ke), tuple(km))


def write_consumption_csv(path: str, sim: ConsumptionPath) -> None:
    rows = [["period", "z_index", "c_exact", "c_model", "k_exact", "k_model", "rel_gap"]]
    for t in range(len(sim.z_path)):
        rows.append([
            t, sim.z_path[t],
            repr(sim.c_exact[t]), repr(sim.c_model[t]),
            repr(sim.k_exact[t]), repr(sim.k_model[t]),
            repr(sim.rel_gap[t]),
        ])
    write_csv(path, rows)


def write_iteration_csv(path: str, states: Sequence[PpiState], params: RbcParams = DEFAULT_PARAMS) -> None:
    """Per-iteration parameter and error trace for a sequence of states."""
    truth = true_parameters(params)
    rows = [["iteration", "x1", "x2", "x3", "err_x1_pct", "err_x2_pct", "err_x3_pct", "loss"]]
    for st in states:
        rows.append([
            st.iteration,
            repr(st.x1), repr(st.x2), repr(st.x3),
            *map(repr, pct_errors(st, truth)),
            repr(st.loss_history[-1]) if st.loss_history else "",
        ])
    write_csv(path, rows)
