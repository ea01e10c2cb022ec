"""Engines: the timing model, the initial Hamiltonian, state-vector and
heuristic annealing, and the deterministic greedy oracle.

The grouped-schedule shapes frozen here were chosen empirically; see the
shape constants below. Closed-system evolution is unitary, so a cyclic
schedule improves the ground-state share only in the right parameter
window, and the tests pin seeds to keep the checks exact."""

import dataclasses
import functools
import itertools
import math
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annealdp import bqm as bqm_mod
from annealdp import engines
from annealdp import schedules as schedules_mod
from annealdp.bqm import (
    CapacityError,
    IsingModel,
    QuboModel,
    brute_force,
    energy_of_bits,
    energy_terms,
    ising_energy,
    qubo_energy,
    value_domain,
)
from annealdp.cli import RunConfig, _valuation_encodings
from annealdp.engines import (
    IntegrationError,
    SamplerRequest,
    final_probabilities,
    heuristic_anneal,
    initial_hamiltonian_spectrum,
    measure,
    schrodinger_anneal,
    sequential_greedy,
    timing_report,
)
from annealdp.merged import build_merged_problem, merged_schedule
from annealdp.pbf import Poly, to_qubo
from annealdp.quadratize import quadratize_full
from annealdp.rbc import DEFAULT_INIT, DEFAULT_PARAMS, build_gv_pbo, collocation_grid
from annealdp.schedules import (
    AnnealSchedule,
    forward_schedule,
    grouped_cycle_schedule,
)
from support import random_ising


def reverse_with_hold(total, target, hold):
    """Reverse anneal on the global path: s runs 1 -> target, holds there
    for `hold` of the total time, then returns to 1."""
    lo, hi = total * (1.0 - hold) / 2.0, total * (1.0 + hold) / 2.0
    return AnnealSchedule(total, ((0.0, 1.0), (lo, target), (hi, target), (total, 1.0)))


# Two-spin instance from the worked tables: ground (-1, -1) at -1.0.
TABLE1 = IsingModel(2, {0: 0.5, 1: -0.3}, {(0, 1): -0.8})

# Single-activation toy: trap at (0, 1), global minimum at (1, 1).
HS = QuboModel(2, {(0, 0): 1.0, (1, 1): -1.0, (0, 1): -2.0})

# chi-square critical value, 1% level, 3 degrees of freedom
CHI2_1PCT_DF3 = 11.345


def hc_problem():
    """Two-component activation toy, cubic, with its reduction."""
    z = Poly.variable
    cubic = (
        2 * z(2) + z(0) * z(2) - 2 * (z(0) * z(1) * z(2))
        + 2 * z(3) - z(1) * z(3) - 2 * (z(0) * z(1) * z(3))
    )
    reduced = quadratize_full(cubic)
    qubo, offset = to_qubo(reduced.qubo_poly)
    assert offset == 0.0
    return cubic, qubo, reduced.alloc.aux_vars


def ground_share(sample_set, state_prefix):
    total = sample_set.total_reads
    hits = sum(
        r.occurrences for r in sample_set.records
        if r.state[: len(state_prefix)] == state_prefix
    )
    return hits / total


class TestTiming:
    def test_worked_total(self):
        assert timing_report(100, 20.0).total == 23000.0

    def test_single_read_floor(self):
        assert timing_report(1, 5.0).total == 9125.0

    def test_anneal_time_floor_enforced(self):
        with pytest.raises(ValueError, match="5 microsecond"):
            timing_report(10, 4.9)

    def test_reads_minimum(self):
        with pytest.raises(ValueError, match="reads"):
            timing_report(0, 20.0)

    @given(
        reads=st.integers(min_value=1, max_value=10_000),
        t_anneal=st.floats(min_value=5.0, max_value=2000.0),
    )
    def test_total_formula(self, reads, t_anneal):
        rep = timing_report(reads, t_anneal)
        assert (rep.t_program, rep.t_readout) == (9000.0, 120.0)
        assert rep.total == 9000.0 + reads * (t_anneal + 120.0)


class TestInitialHamiltonian:
    def test_two_qubit_spectrum(self):
        evals, ground = initial_hamiltonian_spectrum(2)
        assert np.allclose(evals, [-2.0, 0.0, 0.0, 2.0], atol=1e-9)
        assert np.max(np.abs(ground - 0.5)) < 1e-10

    def test_single_qubit(self):
        evals, ground = initial_hamiltonian_spectrum(1)
        assert np.allclose(evals, [-1.0, 1.0], atol=1e-12)
        assert np.allclose(ground, [math.sqrt(0.5)] * 2, atol=1e-10)

    def test_three_qubit_minimum(self):
        evals, _ = initial_hamiltonian_spectrum(3)
        assert evals[0] == pytest.approx(-3.0, abs=1e-9)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            initial_hamiltonian_spectrum(13)

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            initial_hamiltonian_spectrum(0)


class TestMeasure:
    def test_matches_squared_amplitudes(self):
        amps = np.sqrt(np.array([0.4, 0.3, 0.2, 0.1]))
        rng = np.random.default_rng(42)
        outcomes = measure(amps, 10_000, rng)
        assert outcomes.shape == (10_000,)
        counts = np.bincount(outcomes, minlength=4)
        expected = 10_000 * np.abs(amps) ** 2
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_1PCT_DF3


class TestSchrodinger:
    def test_slow_forward_finds_ground(self):
        req = SamplerRequest(TABLE1, forward_schedule(128.0), reads=300, seed=2)
        probs = final_probabilities(req)
        # ground (-1,-1) is basis index 0
        assert probs[0] >= 0.99
        ss = schrodinger_anneal(req)
        assert ss.lowest().state == (-1, -1)
        assert ss.lowest().energy == pytest.approx(-1.0)
        assert ss.lowest().occurrences / 300 >= 0.99

    def test_zero_time_measures_uniform_start(self):
        model = QuboModel(2, {})
        req = SamplerRequest(model, forward_schedule(0.0), reads=10_000, seed=1)
        ss = schrodinger_anneal(req)
        assert ss.total_reads == 10_000
        counts = {r.state: r.occurrences for r in ss.records}
        chi2 = sum((counts.get(s, 0) - 2500.0) ** 2 / 2500.0
                   for s in [(a, b) for a in (0, 1) for b in (0, 1)])
        assert chi2 < CHI2_1PCT_DF3

    def test_norm_drift_logged_and_tiny(self):
        ss = schrodinger_anneal(SamplerRequest(TABLE1, forward_schedule(16.0), reads=5, seed=0))
        assert ss.norm_drift < 1e-9

    def test_step_halving_converged(self):
        req = SamplerRequest(TABLE1, forward_schedule(8.0), reads=1, seed=0)
        base = final_probabilities(req)
        fine = final_probabilities(req, steps=512)
        assert float(np.max(np.abs(base - fine))) < 1e-4

    def test_adiabatic_ladder_monotone_on_random_models(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 5:
            model = random_ising(2, rng, density=1.0)
            res = brute_force(model)
            energies = sorted(energy_of_bits(model, b) for b in itertools.product((0, 1), repeat=2))
            if energies[1] - energies[0] < 0.05:
                continue  # skip near-degenerate draws
            bits = [(v + 1) // 2 for v in res.argmin_states[0]]
            k = bits[0] | (bits[1] << 1)
            shares = []
            for total in (8.0, 16.0, 32.0, 64.0):
                req = SamplerRequest(model, forward_schedule(total), reads=1, seed=0)
                shares.append(float(final_probabilities(req)[k]))
            assert all(b >= a - 1e-6 for a, b in zip(shares, shares[1:])), (
                model, shares)
            checked += 1

    def test_reverse_requires_initial_state(self):
        # a reverse anneal has no transverse ground to start from
        req = SamplerRequest(HS, grouped_cycle_schedule(16.0, [(0,), (1,)]), reads=10)
        with pytest.raises(ValueError, match="initial_state is required"):
            schrodinger_anneal(req)
        with pytest.raises(ValueError, match="initial_state is required"):
            final_probabilities(req)

    def test_capacity_guard(self):
        big = IsingModel(17, {0: 1.0}, {})
        with pytest.raises(CapacityError):
            schrodinger_anneal(SamplerRequest(big, forward_schedule(1.0), reads=1))

    def test_determinism(self):
        gs = grouped_cycle_schedule(24.0, [(0,), (1,)], down_fraction=0.02)
        a = schrodinger_anneal(SamplerRequest(HS, gs, reads=50, initial_state=(0, 0), seed=9))
        b = schrodinger_anneal(SamplerRequest(HS, gs, reads=50, initial_state=(0, 0), seed=9))
        assert a.records == b.records

    # Shape freeze: 12-unit windows, near-instant drop. The fast drop is
    # diabatic at the avoided crossing while the long rise is adiabatic,
    # which is what lets a window move its group toward the conditional
    # minimum at all; a symmetric dip would return the incoming state.
    def test_single_activation_cycle_flip(self):
        # After one cycle, among reads where variable 0 held at 0, the
        # window on variable 1 flipped it: (0,1) dominates (0,0).
        gs = grouped_cycle_schedule(
            24.0, [(0,), (1,)], cycles=1, down_fraction=0.02, hold_fraction=0.20)
        ss = schrodinger_anneal(SamplerRequest(HS, gs, reads=2000, initial_state=(0, 0), seed=5))
        freq = {r.state: r.occurrences / 2000 for r in ss.records}
        assert freq.get((0, 1), 0.0) > freq.get((0, 0), 0.0)
        assert freq.get((0, 1), 0.0) >= 0.2

    def test_single_activation_second_cycle_improves(self):
        shares = []
        for cycles in (1, 2):
            gs = grouped_cycle_schedule(
                24.0 * cycles, [(0,), (1,)], cycles=cycles, down_fraction=0.02)
            ss = schrodinger_anneal(
                SamplerRequest(HS, gs, reads=1000, initial_state=(0, 0), seed=5))
            shares.append(ground_share(ss, (1, 1)))
        assert shares[1] > shares[0] + 0.1

    def test_two_component_second_cycle_improves(self):
        _, qubo, aux = hc_problem()
        shares = []
        for cycles in (1, 2):
            gs = grouped_cycle_schedule(
                16.0 * cycles, [(0, 2), (1, 3)], cycles=cycles,
                always_active=aux, down_fraction=0.5)
            ss = schrodinger_anneal(
                SamplerRequest(qubo, gs, reads=1000, initial_state=(0,) * 6, seed=5))
            shares.append(ground_share(ss, (1, 1, 0, 1)))
        assert shares[1] > shares[0]


class TestHeuristic:
    def test_forward_finds_table_ground(self):
        ss = heuristic_anneal(SamplerRequest(TABLE1, forward_schedule(20.0), reads=100, seed=11))
        assert ss.lowest().state == (-1, -1)
        assert ss.lowest().energy == pytest.approx(-1.0)
        assert ss.total_reads == 100

    def test_frozen_schedule_returns_initial(self):
        frozen = AnnealSchedule(10.0, ((0.0, 1.0), (10.0, 1.0)))
        ss = heuristic_anneal(SamplerRequest(TABLE1, frozen, reads=20, initial_state=(1, -1), seed=3))
        assert ss.records == (ss.records[0],)
        assert ss.records[0].state == (1, -1)
        assert ss.records[0].occurrences == 20

    def test_determinism(self):
        req = SamplerRequest(TABLE1, forward_schedule(12.0), reads=64, seed=5)
        assert heuristic_anneal(req) == heuristic_anneal(req)

    def test_record_energies_reevaluate(self):
        ss = heuristic_anneal(SamplerRequest(TABLE1, forward_schedule(12.0), reads=32, seed=8))
        for r in ss.records:
            assert r.energy == ising_energy(TABLE1, r.state)

    def test_two_component_greedy_limit_cycles(self):
        # Near-zero temperature: strict improvements always, zero-cost
        # flips at 1/2. One cycle strands about half the reads; the
        # second one routinely digs out the global minimum.
        _, qubo, aux = hc_problem()
        shares = []
        for cycles in (1, 2):
            gs = grouped_cycle_schedule(
                16.0 * cycles, [(0, 2), (1, 3)], cycles=cycles,
                always_active=aux, down_fraction=0.5)
            ss = heuristic_anneal(
                SamplerRequest(qubo, gs, reads=50, initial_state=(0,) * 6, seed=7),
                t_hot=1e-9)
            assert ss.lowest().energy == pytest.approx(-1.0)
            shares.append(ground_share(ss, (1, 1, 0, 1)))
        assert shares[1] > shares[0]
        assert shares[1] >= 0.5

    def test_chained_reads_continue(self):
        # reinitialize=False: each read starts where the last collapsed.
        gs = grouped_cycle_schedule(
            16.0, [(0, 2), (1, 3)], always_active=hc_problem()[2],
            reinitialize=False, down_fraction=0.5)
        _, qubo, _ = hc_problem()
        ss = heuristic_anneal(
            SamplerRequest(qubo, gs, reads=30, initial_state=(0,) * 6, seed=13),
            t_hot=1e-9)
        assert ss.total_reads == 30
        assert ss.lowest().energy == pytest.approx(-1.0)

    def test_random_init_spreads_reads(self):
        # a request without initial_state starts each read from random
        # rows, on a reverse (here frozen) schedule too
        frozen = AnnealSchedule(10.0, ((0.0, 1.0), (10.0, 1.0)))
        model = QuboModel(4, {(0, 0): 1.0, (1, 2): -1.0, (2, 3): 0.5})
        ss = heuristic_anneal(SamplerRequest(model, frozen, reads=50, seed=2))
        assert len(ss.records) > 1

    @pytest.mark.parametrize("t_hot", [0.0, -1.0, math.inf, math.nan, 5e-324])
    def test_t_hot_must_keep_every_moving_sweep_warm(self, t_hot):
        # one sweep at the midpoint, s = 0.5: 5e-324 * 0.5 rounds to 0
        req = SamplerRequest(TABLE1, forward_schedule(4.0), reads=2, seed=1)
        with pytest.raises(ValueError, match="t_hot"):
            heuristic_anneal(req, sweeps=1, t_hot=t_hot)

    def test_t_hot_boundary(self):
        # 1e-323 is two subnormal steps, so half of it is still above 0
        req = SamplerRequest(TABLE1, forward_schedule(4.0), reads=2, seed=1)
        with np.errstate(over="ignore"):  # delta / tau overflows; the clip bounds it
            assert heuristic_anneal(req, sweeps=1, t_hot=1e-323).total_reads == 2
        # a sweep that moves no variable needs no temperature
        frozen = AnnealSchedule(4.0, ((0.0, 1.0), (4.0, 1.0)))
        req = SamplerRequest(TABLE1, frozen, reads=2, seed=1)
        assert heuristic_anneal(req, sweeps=1, t_hot=0.0).total_reads == 2


class TestSequentialGreedy:
    def test_single_activation_walk(self):
        assert sequential_greedy(HS, [(0,), (1,)], (0, 0), cycles=1) == (0, 1)
        assert sequential_greedy(HS, [(0,), (1,)], (0, 0), cycles=2) == (1, 1)

    def test_two_component_clamp_walk(self):
        cubic, _, _ = hc_problem()
        first = sequential_greedy(cubic, [(0,), (1,)], (0, 0, 0, 0), cycles=1, activations=(2, 3))
        second = sequential_greedy(cubic, [(0,), (1,)], (0, 0, 0, 0), cycles=2, activations=(2, 3))
        assert cubic.evaluate(first) == 0.0
        assert second == (1, 1, 0, 1)
        assert cubic.evaluate(second) == -1.0

    def test_single_group_reaches_brute_minimum(self):
        res = brute_force(HS)
        assert sequential_greedy(HS, [(0, 1)], (0, 0)) in res.argmin_states
        cubic, _, _ = hc_problem()
        assert sequential_greedy(cubic, [(0, 1, 2, 3)], (0, 0, 0, 0)) == (1, 1, 0, 1)

    def test_spin_domain_walk(self):
        assert sequential_greedy(TABLE1, [(0, 1)], (1, 1)) == (-1, -1)

    def test_ungrouped_variables_never_move(self):
        out = sequential_greedy(HS, [(0,)], (0, 0))
        assert out == (0, 0)

    def test_tie_keeps_current(self):
        flat = QuboModel(1, {})
        assert sequential_greedy(flat, [(0,)], (1,)) == (1,)

    def test_validation(self):
        with pytest.raises(ValueError, match="more than one group"):
            sequential_greedy(HS, [(0,), (0,)], (0, 0))
        with pytest.raises(ValueError, match="out of range"):
            sequential_greedy(HS, [(0, 5)], (0, 0))
        with pytest.raises(ValueError, match="activations must parallel"):
            sequential_greedy(HS, [(0,), (1,)], (0, 0), activations=(None,))
        with pytest.raises(ValueError, match="distinct"):
            sequential_greedy(HS, [(0,), (1,)], (0, 0), activations=(1, None))
        with pytest.raises(ValueError, match="initial length"):
            sequential_greedy(HS, [(0,)], (0, 0, 0))
        cubic, _, _ = hc_problem()
        with pytest.raises(ValueError, match="cover"):
            sequential_greedy(cubic, [(0,)], (0, 0))


def scalar_greedy(model, groups, initial, cycles=1, activations=None):
    """Reference walk: the group step as a scalar scan that evaluates the
    whole model once per candidate, taking each strictly lower energy in
    enumeration order."""
    domain = (-1, 1) if isinstance(model, IsingModel) else (0, 1)
    state = list(initial)
    if isinstance(model, Poly):
        def energy():
            return model.evaluate(state)
    elif isinstance(model, QuboModel):
        def energy():
            return qubo_energy(model, state)
    else:
        def energy():
            return ising_energy(model, state)

    for _ in range(cycles):
        for gi, group in enumerate(groups):
            act = activations[gi] if activations else None
            if act is not None:
                state[act] = domain[1]
            cur = tuple(state[v] for v in group)
            best, best_e = cur, energy()
            for m in range(1 << len(group)):
                cand = tuple(domain[(m >> b) & 1] for b in range(len(group)))
                if cand == cur:
                    continue
                for v, val in zip(group, cand):
                    state[v] = val
                e = energy()
                if e < best_e:
                    best, best_e = cand, e
            for v, val in zip(group, best):
                state[v] = val
            if act is not None:
                e_on = energy()
                state[act] = domain[0]
                e_off = energy()
                if e_on < e_off:
                    state[act] = domain[1]
    return tuple(state)


@st.composite
def greedy_cases(draw):
    """A model, disjoint groups, optional activations, a start and cycles.

    Coefficients are dyadic (integers over 8, or over 2^42 so that
    distinct energies lie as close as 2^-42): every sum is exact in any
    order, so the vectorised and scalar walks see identical energies.
    Small numerators force exact ties.
    """
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["poly", "qubo", "ising"]))
    top = draw(st.sampled_from([1, 3, 64]))
    scale = draw(st.sampled_from([1 / 8, 2.0 ** -42]))
    coeff = st.integers(-top, top).map(lambda k: k * scale)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    if kind == "poly":
        keys = st.lists(st.integers(0, n - 1), max_size=3).map(frozenset)
        model = Poly(draw(st.dictionaries(keys, coeff, max_size=12)))
    elif kind == "qubo":
        model = QuboModel(n, draw(st.dictionaries(st.sampled_from(pairs), coeff, max_size=12)))
    else:
        biases = draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=n))
        off = [(i, j) for i, j in pairs if i < j]
        couplings = draw(st.dictionaries(st.sampled_from(off), coeff, max_size=12)) if off else {}
        model = IsingModel(n, biases, couplings)
    domain = (-1, 1) if kind == "ising" else (0, 1)

    perm = list(draw(st.permutations(range(n))))
    groups = []
    for size in draw(st.lists(st.integers(1, 6), max_size=3)):
        if size > len(perm):
            break
        groups.append(tuple(perm[:size]))
        perm = perm[size:]
    activations = None
    if groups and draw(st.booleans()):
        activations = [perm.pop() if perm and draw(st.booleans()) else None for _ in groups]
    initial = tuple(draw(st.lists(st.sampled_from(domain), min_size=n, max_size=n)))
    return model, groups, initial, draw(st.integers(1, 3)), activations


class TestGreedyMatchesScalarWalk:
    @settings(max_examples=300, deadline=None)
    @given(greedy_cases(), st.sampled_from([1, 2, 20]))
    def test_same_terminal_state(self, case, block_bits):
        # small blocks make the walk carry its running best across blocks
        model, groups, initial, cycles, activations = case
        want = scalar_greedy(model, groups, initial, cycles, activations)
        with mock.patch.object(bqm_mod, "_BLOCK_BITS", block_bits):
            got = sequential_greedy(model, groups, initial, cycles=cycles, activations=activations)
        assert got == want

    def test_near_tie_takes_the_exact_minimum(self):
        # (1, 0) and (0, 1) differ by 2^-42, well inside any tolerance a
        # scan might allow; the group step takes the lower one
        model = QuboModel(2, {(0, 0): -1.0, (1, 1): -1.0 - 2**-42, (0, 1): 5.0})
        assert sequential_greedy(model, [(0, 1)], (0, 0)) == (0, 1)

    def test_nan_fold_keeps_the_current_assignment(self):
        # every fold of a NaN coefficient is NaN: no assignment attains a
        # minimum and the group stays where it is
        model = QuboModel(1, {(0, 0): math.nan})
        assert sequential_greedy(model, [(0,)], (1,)) == (1,)


def _block_energies(local, width, domain, start, stop):
    """The group step's fold over assignments [start, stop), one numpy
    pass per folded term, as the walk scored before the split ranking."""
    idx = np.arange(start, stop, dtype=np.int64)
    lo, hi = domain
    vals = [lo + (hi - lo) * ((idx >> b) & 1).astype(np.float64) for b in range(width)]
    energies = np.zeros(stop - start)
    for bits, c in local.items():
        prod = vals[bits[0]]
        for b in bits[1:]:
            prod = prod * vals[b]
        energies += c * prod
    return energies


def block_scan_best_assignment(terms, group, domain, state):
    """Reference group step: every assignment scored in enumeration order,
    in blocks, by a scan that takes each strictly lower energy."""
    pos = {v: b for b, v in enumerate(group)}
    local = engines._fold(terms, pos, state)
    width = len(group)
    best_m = sum(1 << b for b, v in enumerate(group) if state[v] == domain[1])
    best_e = float(_block_energies(local, width, domain, best_m, best_m + 1)[0])
    block = 1 << min(width, 14)
    for start in range(0, 1 << width, block):
        energies = _block_energies(local, width, domain, start, min(start + block, 1 << width))
        for k, e in enumerate(energies.tolist()):
            if e < best_e:
                best_m, best_e = start + k, e
    return best_m


# Coefficient draws for the split ranking. Decimal tenths are not dyadic,
# so states with equal real energies fold and rank to different floats;
# multiples of 1e-13 do the same with gaps near 1e-13; multiples of
# 2^-42 sum exactly with gaps of 2^-42; small integers tie.
SPLIT_COEFFS = {
    "decimal": st.integers(-7, 7).map(lambda k: k / 10),
    "near_tie": st.integers(-30, 30).map(lambda k: k * 1e-13),
    "dyadic": st.integers(-64, 64).map(lambda k: k * 2.0**-42),
    "integer": st.integers(-2, 2).map(float),
}


@st.composite
def wide_greedy_cases(draw):
    """Like greedy_cases, but with groups up to 16 variables wide, so the
    split ranking engages, and coefficients that round."""
    width = draw(st.sampled_from(range(1, 17)))
    n = min(16, width + draw(st.integers(0, 3)))
    kind = draw(st.sampled_from(["poly", "qubo", "ising"]))
    coeff = SPLIT_COEFFS[draw(st.sampled_from(sorted(SPLIT_COEFFS)))]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    if kind == "poly":
        keys = st.lists(st.integers(0, n - 1), max_size=3).map(frozenset)
        model = Poly(draw(st.dictionaries(keys, coeff, max_size=40)))
    elif kind == "qubo":
        model = QuboModel(n, draw(st.dictionaries(st.sampled_from(pairs), coeff, max_size=40)))
    else:
        biases = draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=n))
        off = [(i, j) for i, j in pairs if i < j]
        couplings = draw(st.dictionaries(st.sampled_from(off), coeff, max_size=40)) if off else {}
        model = IsingModel(n, biases, couplings)
    domain = (-1, 1) if kind == "ising" else (0, 1)

    perm = list(draw(st.permutations(range(n))))
    groups = [tuple(perm[:width])]
    perm = perm[width:]
    if perm and draw(st.booleans()):
        size = draw(st.integers(1, len(perm)))
        groups.append(tuple(perm[:size]))
        perm = perm[size:]
    activations = None
    if draw(st.booleans()):
        activations = [perm.pop() if perm and draw(st.booleans()) else None for _ in groups]
    initial = tuple(draw(st.lists(st.sampled_from(domain), min_size=n, max_size=n)))
    return model, groups, initial, draw(st.integers(1, 2)), activations


class TestSplitGreedyStep:
    @settings(max_examples=150, deadline=None)
    @given(wide_greedy_cases(), st.sampled_from([1, 5, 12]), st.sampled_from([1, 3, 14]))
    def test_walk_matches_block_scan(self, case, min_bits, block_bits):
        # small chunks carry the running minimum and best across chunks
        model, groups, initial, cycles, activations = case
        with mock.patch.object(engines, "_best_assignment", block_scan_best_assignment):
            want = sequential_greedy(model, groups, initial, cycles=cycles, activations=activations)
        with mock.patch.object(bqm_mod, "_SPLIT_MIN_BITS", min_bits), \
                mock.patch.object(bqm_mod, "_BLOCK_BITS", block_bits):
            got = sequential_greedy(model, groups, initial, cycles=cycles, activations=activations)
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 8), st.sampled_from(sorted(SPLIT_COEFFS)),
           st.sampled_from(["local", "qubo", "ising", "poly"]))
    def test_scalar_and_numpy_folds_agree(self, data, width, coeff_kind, source):
        # both branches of the index fold, over a greedy group's folded
        # terms or a model's own term list, equal the scalar energy by bytes
        coeff = SPLIT_COEFFS[coeff_kind]
        domain = (-1, 1) if source == "ising" else (0, 1)
        if source == "local":
            keys = st.lists(st.integers(0, width - 1), min_size=1, max_size=3, unique=True).map(tuple)
            terms = list(data.draw(st.dictionaries(keys, coeff, max_size=30)).items())
            want = None
        elif source == "poly":
            # a cubic polynomial with a constant term, in tenths, so that
            # the order of its additions shows in the last bits
            keys = st.lists(st.integers(0, width - 1), max_size=3).map(frozenset)
            tenths = SPLIT_COEFFS["decimal"].filter(bool)
            poly = Poly({**data.draw(st.dictionaries(keys, tenths, min_size=min(width + 1, 3),
                                                     max_size=30)),
                         frozenset(): data.draw(tenths),
                         frozenset(range(min(width, 3))): data.draw(tenths)})
            terms = poly.terms.items()
            want = poly.evaluate
        elif source == "qubo":
            # diagonal and off-diagonal keys interleave in the dict
            pairs = [(i, j) for i in range(width) for j in range(i, width)]
            model = QuboModel(width, data.draw(st.dictionaries(st.sampled_from(pairs), coeff,
                                                               max_size=30)))
            terms = bqm_mod.energy_terms(model)
            want = functools.partial(energy_of_bits, model)
        else:
            off = [(i, j) for i in range(width) for j in range(i + 1, width)]
            model = IsingModel(width, data.draw(st.dictionaries(st.integers(0, width - 1), coeff)),
                               data.draw(st.dictionaries(st.sampled_from(off), coeff, max_size=30))
                               if off else {})
            terms = bqm_mod.energy_terms(model)
            want = functools.partial(energy_of_bits, model)
        # the all-ones state, which sets every term, is always among them
        idx = np.array(data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=19))
                       + [(1 << width) - 1], dtype=np.int64)
        with mock.patch.object(bqm_mod, "_SCALAR_FOLD_MAX", 1 << 30):
            scalar = bqm_mod.fold_indices(terms, idx, width, domain)
        with mock.patch.object(bqm_mod, "_SCALAR_FOLD_MAX", -1):
            vector = bqm_mod.fold_indices(terms, idx, width, domain)
        assert scalar.tobytes() == vector.tobytes()
        if want is not None:
            bits = [[(m >> v) & 1 for v in range(width)] for m in idx.tolist()]
            assert scalar.tobytes() == np.array([want(b) for b in bits], dtype=np.float64).tobytes()

    def test_cubic_and_huge_folds_fold_every_state(self):
        # a cubic fold has no split, and a coefficient sum past 2^1020 no
        # rounding bound: the search folds every assignment exactly
        cubic, _, _ = hc_problem()
        terms, domain = engines._native_terms(cubic), (0, 1)
        local = engines._fold(terms, {v: v for v in range(4)}, (0, 0, 0, 0))
        huge = {(0,): 2.0**1021, (1,): -1.0}
        assert bqm_mod._near_minimum(list(huge.items()), 2, domain) is None
        for fold, width in ((local, 4), (huge, 2)):
            exact = bqm_mod.fold_indices(fold.items(), np.arange(1 << width), width, domain)
            want = (float(exact.min()), np.flatnonzero(exact == exact.min()).tolist())
            with mock.patch.object(bqm_mod, "_SPLIT_MIN_BITS", 0), \
                    mock.patch.object(bqm_mod, "_split_ranking", side_effect=AssertionError):
                assert bqm_mod._exact_minimum(fold.items(), width, domain) == want

    def test_pipeline_fold_rescores_few_assignments(self):
        # the default valuation group: 14 bits, a quadratic fold; only a
        # small share of its 2^14 assignments reaches the exact fold
        prob = build_merged_problem()
        terms, domain = engines._native_terms(prob.poly), (0, 1)
        state = [0] * prob.primary_count
        state[prob.x_p] = state[prob.x_v] = 1
        group = prob.groups[1]
        local = engines._fold(terms, {v: b for b, v in enumerate(group)}, state)
        assert len(group) == 14 and max(map(len, local)) == 2
        cands = bqm_mod._near_minimum(list(local.items()), 14, domain)
        assert 0 < len(cands) < 1 << 10
        assert (engines._best_assignment(terms, group, domain, state)
                == block_scan_best_assignment(terms, group, domain, state))

    def test_wide_group_exceeds_guard(self):
        wide = QuboModel(27, {})
        with mock.patch.object(engines, "_best_assignment", side_effect=AssertionError):
            with pytest.raises(CapacityError, match="greedy group of 27"):
                sequential_greedy(wide, [tuple(range(27))], (0,) * 27)


def reference_fold(terms, pos, state):
    """The group fold term by term: the term's group positions first,
    then its fixed variables multiplied into the coefficient in the
    term's variable order; a product of 0.0 or -0.0 is not added."""
    local = {}
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


class TestFold:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 7), st.booleans())
    def test_equals_reference_fold(self, data, n, spin):
        # halves and their negatives, so terms that fold onto one key can
        # cancel to 0.0, and fixed zero bits give products of +-0.0
        coeff = st.sampled_from([-1.0, -0.5, 0.5, 1.0, 0.1, -0.1, 3.0])
        keys = st.lists(st.integers(0, n - 1), max_size=4).map(frozenset)
        poly = Poly(data.draw(st.dictionaries(keys, coeff, max_size=25)))
        domain = (-1, 1) if spin else (0, 1)
        state = data.draw(st.lists(st.sampled_from(domain), min_size=n, max_size=n))
        group = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        pos = {v: b for b, v in enumerate(group)}
        got = engines._fold(poly.terms.items(), pos, state)
        want = reference_fold(poly.terms.items(), pos, state)
        assert [(k, c.hex()) for k, c in got.items()] == [(k, c.hex()) for k, c in want.items()]

    def test_cancelling_and_zero_products(self):
        # x0 x1 - x0 x2 folds to 0.0 on x0 with x1 = x2 = 1; -x0 x3 with
        # x3 = 0 is a -0.0 product and adds nothing
        poly = Poly({frozenset((0, 1)): 1.0, frozenset((0, 2)): -1.0,
                     frozenset((0, 3)): -1.0, frozenset((1, 2)): 2.0})
        got = engines._fold(poly.terms.items(), {0: 0}, [0, 1, 1, 0])
        assert list(got.items()) == [((0,), 0.0)]
        assert math.copysign(1.0, got[(0,)]) == 1.0

    def test_merged_walk_folds_equal_reference(self):
        prob = build_merged_problem()
        terms = engines._native_terms(prob.poly)
        state = list(prob.encode_initial())[:prob.primary_count]
        state[prob.x_p] = state[prob.x_v] = 1
        for group in (*prob.groups, (prob.x_p,), (prob.x_v,)):
            pos = {v: b for b, v in enumerate(group)}
            got = engines._fold(terms, pos, state)
            want = reference_fold(terms, pos, state)
            assert [(k, c.hex()) for k, c in got.items()] == [(k, c.hex()) for k, c in want.items()]


# The references below read a model through its own coefficient dicts
# (q for a QUBO, biases and couplings for an Ising model), not through
# bqm.energy_terms and value_domain as the engines do, so no reference
# shares the code it checks.


def reference_domain(model):
    """(off, on) values of a variable: bits for a QUBO, else spins."""
    return (0, 1) if isinstance(model, QuboModel) else (-1, 1)


def reference_terms(model):
    """(linear, quadratic) term dicts in the model's native domain."""
    if isinstance(model, QuboModel):
        lin = {i: w for (i, j), w in model.q.items() if i == j}
        quad = {(i, j): w for (i, j), w in model.q.items() if i != j}
        return lin, quad
    return dict(model.biases), dict(model.couplings)


def reference_dense_form(model):
    """Symmetric off-diagonal matrix W and linear vector d, native domain."""
    lin, quad = reference_terms(model)
    d = np.zeros(model.n)
    w = np.zeros((model.n, model.n))
    for i, c in lin.items():
        d[i] = c
    for (i, j), c in quad.items():
        w[i, j] += c
        w[j, i] += c
    return w, d


def reference_hot_temperature(model):
    """The largest coefficient magnitude, or 1 for an all-zero model."""
    lin, quad = reference_terms(model)
    scale = max([abs(c) for c in (*lin.values(), *quad.values())], default=0.0)
    return scale if scale > 0 else 1.0


def native_state(model, bits):
    """The native state whose variable i is on where bits[i] is 1."""
    return tuple(reference_domain(model)[int(b)] for b in bits)


def index_state(model, k):
    """The native state with index k: variable i is bit i of k."""
    return native_state(model, [(int(k) >> i) & 1 for i in range(model.n)])


def reference_start(req):
    """The uniform superposition, or the request's basis state."""
    dim = 1 << req.model.n
    if req.initial_state is None:
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    on = reference_domain(req.model)[1]
    psi = np.zeros(dim, dtype=np.complex128)
    psi[sum(1 << i for i, v in enumerate(req.initial_state) if v == on)] = 1.0
    return psi


def scalar_heuristic(req, sweeps=256, t_hot=None):
    """Reference annealer: the kernel as a per-variable loop that reads
    the schedule and draws its uniforms one variable at a time."""
    model = req.model
    n = model.n
    sched = req.schedule
    reads = req.reads
    rng = np.random.default_rng(req.seed)
    if t_hot is None:
        t_hot = reference_hot_temperature(model)
    is_qubo = isinstance(model, QuboModel)
    w, d = reference_dense_form(model)

    def init_rows(count):
        if req.initial_state is None:
            bits = rng.integers(0, 2, size=(count, n)).astype(np.float64)
            return bits if is_qubo else 2.0 * bits - 1.0
        row = np.array(req.initial_state, dtype=np.float64)
        return np.tile(row, (count, 1))

    def run(states):
        count = states.shape[0]
        if sched.total_time == 0.0 or n == 0:
            return states
        for k in range(sweeps):
            t = (k + 0.5) * sched.total_time / sweeps
            s_vec = [sched.s_at(t, v) for v in range(n)]
            tau = t_hot * (1.0 - min(s_vec))
            for v in range(n):
                if s_vec[v] >= 1.0:
                    continue
                f = states @ w[:, v] + d[v]
                if is_qubo:
                    delta = (1.0 - 2.0 * states[:, v]) * f
                else:
                    delta = -2.0 * states[:, v] * f
                u = rng.random(count)
                accept = u < 1.0 / (1.0 + np.exp(np.clip(delta / tau, -700.0, 700.0)))
                if is_qubo:
                    states[accept, v] = 1.0 - states[accept, v]
                else:
                    states[accept, v] = -states[accept, v]
        return states

    def native_row(row):
        return tuple(int(round(v)) for v in row)

    if sched.reinitialize:
        terminal = run(init_rows(reads))
        out = [native_row(terminal[r]) for r in range(reads)]
        return engines._assemble(model, out)

    out = []
    cur = init_rows(1)
    for _ in range(reads):
        cur = run(cur)
        out.append(native_row(cur[0]))
    return engines._assemble(model, out)


# Small integers make exact ties and zero-cost flips; general floats
# make fields whose last bits depend on the order BLAS sums them in.
coefficients = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def anneal_models(draw, sizes=range(1, 11), max_terms=20):
    # sizes are drawn evenly: a 64-byte row stride (n = 8) is among the defaults
    n = draw(st.sampled_from(sizes))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    if draw(st.booleans()):
        return QuboModel(n, draw(st.dictionaries(st.sampled_from(pairs), coefficients,
                                                 max_size=max_terms)))
    biases = draw(st.dictionaries(st.integers(0, n - 1), coefficients, max_size=n))
    off = [(i, j) for i, j in pairs if i < j]
    couplings = draw(st.dictionaries(st.sampled_from(off), coefficients,
                                     max_size=max_terms)) if off else {}
    return IsingModel(n, biases, couplings)


@st.composite
def heuristic_requests(draw, models=anneal_models()):
    """A request over a forward, reverse-with-hold or grouped schedule,
    with lockstep or chained reads."""
    model = draw(models)
    n = model.n
    total = draw(st.sampled_from([0.0, 3.0, 16.0]))
    shape = draw(st.sampled_from(["forward", "reverse", "grouped"]))
    if shape == "forward":
        sched = forward_schedule(total)
    elif shape == "reverse":
        hold = draw(st.sampled_from([0.0, 0.25, 0.5]))
        sched = reverse_with_hold(total, draw(st.sampled_from([0.0, 0.4])), hold)
    else:
        perm = list(draw(st.permutations(range(n))))
        cut = draw(st.integers(1, n))
        grouped, always = perm[:cut], tuple(perm[cut:cut + draw(st.integers(0, n - cut))])
        groups = [tuple(grouped[k::2]) for k in range(2) if grouped[k::2]]
        sched = grouped_cycle_schedule(
            max(total, 1.0), groups, cycles=draw(st.integers(1, 2)),
            reversal_target=draw(st.sampled_from([0.0, 0.3])), always_active=always,
            down_fraction=0.4, hold_fraction=draw(st.sampled_from([0.0, 0.2])))
    sched = dataclasses.replace(sched, reinitialize=draw(st.booleans()))
    domain = (0, 1) if isinstance(model, QuboModel) else (-1, 1)
    initial = None
    if draw(st.booleans()):
        initial = tuple(draw(st.lists(st.sampled_from(domain), min_size=n, max_size=n)))
    return SamplerRequest(model, sched, reads=draw(st.integers(1, 5)),
                          initial_state=initial, seed=draw(st.integers(0, 2**32 - 1)))


class TestHeuristicMatchesScalarLoop:
    # The examples couple one spin to two others that cancel exactly and to
    # a third through a tiny coupling: the gemm and the scalar loop disagree
    # on whether its field is exactly 0. Any positive temperature accepts
    # that flip with probability 1/2 either way; tau = 0 is rejected.
    @settings(max_examples=300, deadline=None)
    @given(heuristic_requests(), st.integers(1, 8), st.sampled_from([None, 1e-9]))
    @example(SamplerRequest(
        IsingModel(7, {}, {(0, 1): 0.0, (0, 2): 0.0, (0, 3): 0.0, (0, 4): 0.0, (0, 5): 0.0,
                           (1, 2): 1.0, (1, 3): 1.0, (1, 4): -3.068576530273632e-76}),
        dataclasses.replace(forward_schedule(3.0), reinitialize=False), reads=1, seed=0),
        1, 1e-9)
    @example(SamplerRequest(
        IsingModel(5, {}, {(1, 2): 3.0, (1, 3): 3.0, (1, 4): 9.28e-225}),
        dataclasses.replace(forward_schedule(3.0), reinitialize=False), reads=1, seed=5),
        1, 1e-9)
    def test_same_sample_set(self, req, sweeps, t_hot):
        want = scalar_heuristic(req, sweeps, t_hot)
        got = heuristic_anneal(req, sweeps=sweeps, t_hot=t_hot)
        assert got == want

    # sparse models over more variables, so that layers hold many variables
    @settings(max_examples=100, deadline=None)
    @given(heuristic_requests(anneal_models(range(11, 41), max_terms=60)), st.integers(1, 8),
           st.sampled_from([None, 1e-9]))
    def test_same_sample_set_on_sparse_models(self, req, sweeps, t_hot):
        want = scalar_heuristic(req, sweeps, t_hot)
        got = heuristic_anneal(req, sweeps=sweeps, t_hot=t_hot)
        assert got == want

    @pytest.mark.parametrize("reinitialize", [True, False])
    def test_merged_problem(self, merged_default, reinitialize):
        problem = merged_default
        w, _ = reference_dense_form(problem.qubo)
        layers = engines._layers(w, np.arange(problem.n))
        assert len(layers) < problem.n // 10
        gs = merged_schedule(problem, cycles=2, reinitialize=reinitialize)
        req = SamplerRequest(problem.qubo, gs, reads=3, seed=7)
        got = heuristic_anneal(req, sweeps=8)
        assert got == scalar_heuristic(req, sweeps=8)

    def test_spin_rows_with_a_64_byte_stride(self):
        # 8 spins put a state column at a 64-byte stride, where numpy 2.4's
        # in-place np.negative writes wrong values
        rng = np.random.default_rng(8)
        for seed in range(5):
            model = random_ising(8, rng, density=1.0)
            req = SamplerRequest(model, forward_schedule(3.0), reads=4, seed=seed)
            assert heuristic_anneal(req, sweeps=4) == scalar_heuristic(req, sweeps=4)

    @pytest.mark.parametrize("reads", [7, 8, 9, 16])
    def test_spin_rows_with_a_64_byte_read_stride(self, reads):
        # the state holds one row of reads per variable, so 8 reads put a
        # variable's row at a 64-byte stride; dense 8 spins give
        # one-variable layers, sparse 40 spins multi-variable ones
        rng = np.random.default_rng(64)
        models = [random_ising(8, rng, density=1.0), random_ising(40, rng, density=0.1)]
        for model in models:
            for seed in range(3):
                req = SamplerRequest(model, forward_schedule(3.0), reads=reads, seed=seed)
                assert heuristic_anneal(req, sweeps=4) == scalar_heuristic(req, sweeps=4)

    @pytest.mark.parametrize("reads, reinitialize", [
        pytest.param(8, True, id="8"), pytest.param(40, True, id="40"),
        pytest.param(8, False, id="8-chained"), pytest.param(40, False, id="40-chained")])
    def test_merged_problem_many_reads(self, merged_default, reads, reinitialize):
        # from random starts, with multi-variable layers whose variables
        # are consecutive in index order and layers whose are not, so the
        # layer-major permutation moves rows; chained reads carry the
        # permuted state across reads and across active-set switches
        problem = merged_default
        gs = merged_schedule(problem, cycles=2, reinitialize=reinitialize)
        req = SamplerRequest(problem.qubo, gs, reads=reads, seed=reads)
        planned, split = [], engines._layers

        def layers(w, active):
            out = split(w, active)
            planned.extend(active[pos] for pos in out)
            return out

        with mock.patch.object(engines, "_layers", layers):
            got = heuristic_anneal(req, sweeps=8)
        runs = [vs[-1] - vs[0] + 1 == len(vs) for vs in planned if len(vs) > 1]
        assert any(runs) and not all(runs)
        assert got == scalar_heuristic(req, sweeps=8)

    def test_default_sweeps_on_a_grouped_chain(self):
        _, qubo, aux = hc_problem()
        gs = grouped_cycle_schedule(16.0, [(0, 2), (1, 3)], always_active=aux,
                                    reinitialize=False, down_fraction=0.5)
        req = SamplerRequest(qubo, gs, reads=12, initial_state=(0,) * 6, seed=13)
        assert heuristic_anneal(req) == scalar_heuristic(req)

    @pytest.mark.parametrize("reinitialize", [True, False])
    def test_subnormal_hot_temperature(self, reinitialize):
        # t_hot = 1e-323 at s = 0 keeps tau at two subnormal steps, so a
        # nonzero field's delta / tau overflows to +-inf (clipped to 700
        # above) and a zero field's is 0, accepted at 1/2
        model = IsingModel(5, {0: 0.5, 2: -1.0}, {(0, 1): 1.0, (1, 2): -0.25, (3, 4): 0.0})
        sched = AnnealSchedule(4.0, ((0.0, 0.0), (4.0, 0.0)), reinitialize=reinitialize)
        for seed in range(6):
            req = SamplerRequest(model, sched, reads=4, seed=seed)
            with np.errstate(over="ignore"):
                got = heuristic_anneal(req, sweeps=8, t_hot=1e-323)
                want = scalar_heuristic(req, sweeps=8, t_hot=1e-323)
            assert got == want

    @pytest.mark.parametrize("reinitialize", [True, False])
    def test_active_set_changes_almost_every_sweep(self, reinitialize):
        # nine group windows over ten sweeps: the moving set changes at
        # eight of the nine sweep boundaries and repeats every third window
        model = random_ising(8, np.random.default_rng(24), density=0.6)
        gs = grouped_cycle_schedule(9.0, [(0, 3), (1, 4), (2, 5)], cycles=3,
                                    always_active=(6,), reinitialize=reinitialize)
        times = [(k + 0.5) * 9.0 / 10 for k in range(10)]
        moving = schedules_mod.fraction_table(gs, times, 8) < 1.0
        assert (moving[1:] != moving[:-1]).any(axis=1).sum() == 8
        for seed in range(4):
            req = SamplerRequest(model, gs, reads=3, seed=seed)
            assert heuristic_anneal(req, sweeps=10) == scalar_heuristic(req, sweeps=10)

    def test_schedule_read_once_per_distinct_path(self):
        # one table over all sweeps, each distinct path evaluated once
        _, qubo, aux = hc_problem()
        gs = grouped_cycle_schedule(16.0, [(0, 2), (1, 3)], always_active=aux,
                                    reinitialize=False, down_fraction=0.5)
        req = SamplerRequest(qubo, gs, reads=4, initial_state=(0,) * 6, seed=1)
        with mock.patch.object(schedules_mod, "_interp_all",
                               side_effect=schedules_mod._interp_all) as interp:
            heuristic_anneal(req, sweeps=10)
        assert interp.call_count == 3


@pytest.fixture(scope="module")
def merged_default():
    return build_merged_problem(DEFAULT_PARAMS)


@st.composite
def coupling_graphs(draw):
    """A symmetric coupling matrix with exact zeros (absent or cancelled
    couplings) and an ascending active set."""
    n = draw(st.integers(1, 40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    w = np.zeros((n, n))
    if pairs:
        for i, j in draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True)):
            w[i, j] = w[j, i] = draw(st.sampled_from([1.0, -0.5, 0.0]))
    active = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return w, np.array(active, dtype=np.intp)


class TestLayers:
    @settings(max_examples=300, deadline=None)
    @given(coupling_graphs())
    def test_layers_order_the_sweep(self, graph):
        w, active = graph
        layers = engines._layers(w, active)
        # the layers partition the active set
        assert all(len(pos) for pos in layers)
        assert sorted(np.concatenate(layers).tolist()) == list(range(len(active)))
        level = {}
        for lv, pos in enumerate(layers):
            for v in active[pos].tolist():
                level[v] = lv
        for u in active.tolist():
            for v in active.tolist():
                if u < v and w[u, v] != 0.0:
                    # no coupling inside a layer; an earlier neighbour sits lower
                    assert level[u] < level[v]

    def test_empty_couplings_give_one_layer(self):
        assert [p.tolist() for p in engines._layers(np.zeros((4, 4)), np.arange(4))] == [
            [0, 1, 2, 3]]


class TestHeuristicLayerPlan:
    @staticmethod
    def check(w, active):
        """The plan's layers are _layers' layers; every nonzero coupling of
        a layer's rows lies in its active block or its frozen block, the
        active block holds only active columns and the frozen block only
        frozen ones, and each nonempty block starts and ends at a column
        that couples to the layer."""
        perm, order, wp, spans = engines._layer_plan(w, active)
        k = len(active)
        assert sorted(perm.tolist()) == list(range(len(w)))
        assert perm[:k].tolist() == active[order].tolist()
        assert np.array_equal(wp, w[np.ix_(perm, perm)])
        layers = engines._layers(w, active)
        assert [(a, b) for a, b, *_ in spans] == [
            (a, a + len(pos)) for a, pos in zip(np.cumsum([0, *map(len, layers)]).tolist(), layers)]
        for (a, b, (alo, ahi), (flo, fhi)), pos in zip(spans, layers):
            assert sorted(order[a:b].tolist()) == pos.tolist()
            assert 0 <= alo <= ahi <= k <= flo <= fhi <= len(w)
            assert not np.isin(perm[flo:fhi], active).any()
            covered = np.zeros(len(w), dtype=bool)
            for lo, hi in ((alo, ahi), (flo, fhi)):
                if lo < hi:
                    assert wp[a:b, lo].any() and wp[a:b, hi - 1].any()
                covered[lo:hi] = True
            assert not wp[a:b, ~covered].any()
        return spans

    @settings(max_examples=300, deadline=None)
    @given(coupling_graphs())
    def test_blocks_hold_every_coupling_on_sparse_models(self, graph):
        self.check(*graph)

    def test_merged_problem(self, merged_default):
        # the two active sets of the default one-shot schedule: layers of
        # (rows, active columns, frozen columns), variables coupled to
        # later layers last
        problem = merged_default
        w, _ = engines._dense_form(problem.qubo)
        sched = merged_schedule(problem, cycles=3)
        times = [(k + 0.5) * sched.total_time / 256 for k in range(256)]
        moving = schedules_mod.fraction_table(sched, times, problem.n) < 1.0
        shapes = []
        for row in np.unique(moving, axis=0):
            spans = self.check(w, np.flatnonzero(row))
            shapes.append([(b - a, ahi - alo, fhi - flo)
                           for a, b, (alo, ahi), (flo, fhi) in spans])
        assert sorted(shapes) == [[(35, 92, 8), (1, 106, 0), (91, 15, 0)],
                                  [(98, 22, 15), (1, 29, 0), (21, 8, 0)]]


def frozen_bias_models():
    """A dense spin model and the QUBO with its coefficients."""
    ising = random_ising(8, np.random.default_rng(28), density=0.8)
    diagonal = {(i, i): c for i, c in ising.biases.items()}
    return [ising, QuboModel(8, {**diagonal, **ising.couplings})]


class TestFrozenBias:
    # A layer's couplings to frozen variables enter its fields as a bias,
    # built on entering an active set and at each run's first sweep.

    @pytest.mark.parametrize("reinitialize", [True, False])
    @pytest.mark.parametrize("model", frozen_bias_models(), ids=["ising", "qubo"])
    def test_frozen_on_values_couple_to_active_ones(self, model, reinitialize):
        # every variable starts at the on value and the groups take turns,
        # so each window's layers read the other group's on values (and
        # variable 7's, never active) through their frozen blocks
        gs = grouped_cycle_schedule(12.0, [(0, 2, 4), (1, 3, 5)], cycles=2,
                                    always_active=(6,), reinitialize=reinitialize)
        w, _ = engines._dense_form(model)
        for active in ((0, 2, 4, 6), (1, 3, 5, 6)):
            spans = engines._layer_plan(w, np.array(active))[3]
            assert any(fhi > flo for *_, (flo, fhi) in spans)
        for seed in range(4):
            req = SamplerRequest(model, gs, reads=3, initial_state=(1,) * 8, seed=seed)
            assert heuristic_anneal(req, sweeps=12) == scalar_heuristic(req, sweeps=12)

    @pytest.mark.parametrize("model", frozen_bias_models(), ids=["ising", "qubo"])
    def test_chained_read_starts_in_its_last_set(self, model):
        # windows A, B, A: each read's first sweep is in the set of the
        # previous read's last one, so no set change marks it, and the
        # first read's first sweep must build the biases all the same
        path_a = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 0.0), (3.0, 0.0))
        path_b = ((0.0, 1.0), (1.0, 1.0), (1.0, 0.3), (2.0, 0.3), (2.0, 1.0), (3.0, 1.0))
        paths = {**dict.fromkeys((0, 1, 2), path_a), **dict.fromkeys((3, 4), path_b)}
        sched = AnnealSchedule(3.0, ((0.0, 1.0), (3.0, 1.0)), variable_paths=paths,
                               reinitialize=False)
        times = [(k + 0.5) * 3.0 / 6 for k in range(6)]
        moving = schedules_mod.fraction_table(sched, times, 8) < 1.0
        sets = [np.flatnonzero(row).tolist() for row in moving]
        assert sets == [[0, 1, 2]] * 2 + [[3, 4]] * 2 + [[0, 1, 2]] * 2
        for seed in range(4):
            req = SamplerRequest(model, sched, reads=4, initial_state=(1,) * 8, seed=seed)
            assert heuristic_anneal(req, sweeps=6) == scalar_heuristic(req, sweeps=6)


# a uniform k * 2^-53 near 1 / q = 1 / (1 + e^z), where the forms may differ
@st.composite
def acceptance_draws(draw):
    z = draw(st.floats(-750.0, 750.0))
    k = draw(st.integers(0, 2**53 - 1))
    if draw(st.booleans()):
        q = float(np.exp(min(z, 700.0))) + 1.0
        k = min(max(round(2.0**53 / q) + draw(st.integers(-3, 3)), 0), 2**53 - 1)
    return z, k


class TestHeuristicAcceptanceForm:
    # The kernel accepts when fl(u * q) < 1 with q = fl(1 + fl(e^z)) and
    # z = min(delta / tau, 700); the Glauber form is u < fl(1 / q). The
    # forms can differ only where u * (1 + e^z) is within 2^-51 of 1.
    @staticmethod
    def forms(z, k):
        u = np.array([k * 2.0**-53])
        q = np.exp(np.minimum(np.array([z]), 700.0)) + 1.0
        return bool((u * q < 1.0)[0]), bool((u < 1.0 / q)[0])

    @staticmethod
    def distance_from_one(z, k):
        with localcontext() as ctx:
            ctx.prec = 60
            return abs(Decimal(k) / 2**53 * (1 + Decimal(min(z, 700.0)).exp()) - 1)

    @settings(max_examples=2000, deadline=None)
    @given(acceptance_draws())
    @example((-0.2742644960917602, 5117345964666492))
    @example((0.0, 2**52 - 1))
    @example((0.0, 2**52))
    @example((750.0, 0))
    @example((-750.0, 2**53 - 1))
    def test_forms_differ_only_within_the_bound(self, draw):
        z, k = draw
        kernel, glauber = self.forms(z, k)
        if kernel != glauber:
            assert self.distance_from_one(z, k) <= Decimal(2) ** -51

    def test_the_forms_do_differ_near_one(self):
        # so the bound above is not vacuous
        z, k = -0.2742644960917602, 5117345964666492
        assert self.forms(z, k) == (True, False)
        assert self.distance_from_one(z, k) < Decimal(2) ** -52

    def test_zero_field_accepts_below_one_half(self):
        # 1 + e^0 is exactly 2, so the kernel's test is u < 0.5
        assert self.forms(0.0, 2**52 - 1) == (True, True)
        assert self.forms(0.0, 2**52) == (False, False)


class TestAssembledEnergies:
    @settings(max_examples=300, deadline=None)
    @given(anneal_models(), st.data(), st.sampled_from([-1, 1 << 30]))
    def test_energies_equal_energy_of_bits(self, model, data, cut):
        # every bit of the energy, the sign of a zero included, from the
        # numpy fold (cut -1) and from the scalar one
        n = model.n
        bits = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                  min_size=1, max_size=12))
        states = [native_state(model, b) for b in bits]
        # a polynomial over the same bits, with a constant and a cubic
        # term, assembles to Poly.evaluate
        terms = {frozenset(k): c for k, c in bqm_mod.energy_terms(model)}
        poly = Poly({frozenset(): data.draw(coefficients), frozenset(range(min(n, 3))): 1.5,
                     **terms})
        with mock.patch.object(bqm_mod, "_SCALAR_FOLD_MAX", cut):
            records = engines._assemble(model, states).records
            poly_records = engines._assemble(poly, [tuple(b) for b in bits]).records
        assert sum(r.occurrences for r in records) == len(states)
        for r in records:
            want = energy_of_bits(model, [reference_domain(model).index(v) for v in r.state])
            assert type(r.energy) is float
            assert np.float64(r.energy).tobytes() == np.float64(want).tobytes()
        for r in poly_records:
            assert np.float64(r.energy).tobytes() == np.float64(poly.evaluate(r.state)).tobytes()


def scalar_pass(model, sched, psi, steps=None):
    """Reference integrator: the schedule read and the problem diagonal
    rebuilt from the term dicts at every step, and each qubit rotated by
    gathering and scattering its amplitude pairs. Returns (psi, worst
    norm drift)."""
    n = model.n
    dim = 1 << n
    lin, quad = reference_terms(model)
    idx = np.arange(dim)
    if isinstance(model, QuboModel):
        vals = [((idx >> i) & 1).astype(np.float64) for i in range(n)]
    else:
        vals = [2.0 * ((idx >> i) & 1).astype(np.float64) - 1.0 for i in range(n)]
    lows = [np.flatnonzero((idx >> i) & 1 == 0) for i in range(n)]
    if steps is None:
        steps = max(256, int(32 * sched.total_time))

    def diagonal(s):
        d = np.zeros(dim)
        for i, w in lin.items():
            d += (w * s[i]) * vals[i]
        for (i, j), w in quad.items():
            d += (w * s[i] * s[j]) * (vals[i] * vals[j])
        return d

    dt = sched.total_time / steps
    worst = 0.0
    for k in range(steps):
        tm = (k + 0.5) * dt
        s = np.array([sched.s_at(tm, v) for v in range(n)])
        phase = np.exp(-0.5j * dt * diagonal(s))
        psi = phase * psi
        for i in range(n):
            theta = (1.0 - s[i]) * dt
            if theta == 0.0:
                continue
            lo = lows[i]
            hi = lo + (1 << i)
            a0 = psi[lo]
            a1 = psi[hi]
            c, sn = math.cos(theta), math.sin(theta)
            psi[lo] = c * a0 + 1j * sn * a1
            psi[hi] = 1j * sn * a0 + c * a1
        psi = phase * psi
        nrm = float(np.linalg.norm(psi))
        worst = max(worst, abs(nrm - 1.0))
        psi = psi / nrm
    return psi, worst


def scalar_probabilities(req, steps=None):
    psi = reference_start(req)
    if req.schedule.total_time > 0.0:
        psi, _ = scalar_pass(req.model, req.schedule, psi, steps)
    return np.abs(psi) ** 2


def scalar_chained(req, steps=None):
    """schrodinger_anneal's chained reads over the reference integrator:
    each read integrates from the last outcome, measures once, collapses."""
    model, n = req.model, req.model.n
    rng = np.random.default_rng(req.seed)
    psi = reference_start(req)
    states, drift = [], 0.0
    for _ in range(req.reads):
        psi, d = scalar_pass(model, req.schedule, psi, steps)
        drift = max(drift, d)
        k = int(measure(psi, 1, rng)[0])
        states.append(index_state(model, k))
        psi = np.zeros(1 << n, dtype=np.complex128)
        psi[k] = 1.0
    return engines._assemble(model, states, drift)


def own_paths(sched, n, rates):
    """sched with every variable v on its own path: its distance from
    s = 1 scaled by rates[v], so each qubit turns through its own angle,
    and a rate of 0 holds it at s = 1, where it never rotates."""
    base = sched.variable_paths or {}
    return dataclasses.replace(sched, variable_paths={
        v: tuple((t, 1.0 - rates[v] * (1.0 - f)) for t, f in base.get(v, sched.breakpoints))
        for v in range(n)})


@st.composite
def integrator_requests(draw, sizes, reads=1):
    """A small model and schedule with an initial state where the schedule
    needs one. Half the schedules put every qubit on its own path, and
    some of those hold a qubit at s = 1, where it never rotates
    (theta == 0)."""
    n = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        model = random_ising(n, rng, density=0.8)
        domain = (-1, 1)
    else:
        q = {(i, j): float(rng.normal()) for i in range(n) for j in range(i, n)
             if rng.random() < 0.8}
        model = QuboModel(n, q)
        domain = (0, 1)
    shape = draw(st.sampled_from(["forward", "reverse", "grouped"]))
    if shape == "forward":
        sched = forward_schedule(2.0)
    elif shape == "reverse":
        sched = reverse_with_hold(2.0, 0.2, 0.3)
    else:
        groups = [tuple(range(0, n, 2)), tuple(range(1, n, 2))]
        sched = grouped_cycle_schedule(3.0, [g for g in groups if g], down_fraction=0.3)
    if draw(st.booleans()):
        rates = draw(st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=n, max_size=n))
        sched = own_paths(sched, n, rates)
    initial = None
    if sched.needs_initial_state(n):
        initial = tuple(domain[int(b)] for b in rng.integers(0, 2, n))
    if reads > 1:
        sched = dataclasses.replace(sched, reinitialize=False)
    return SamplerRequest(model, sched, reads=reads, initial_state=initial,
                          seed=draw(st.integers(0, 2**32 - 1)))


# The integrator reorders the scalar loop's arithmetic (Hadamard-basis
# rotations, diagonal folded by schedule path), so probabilities are held
# to it within this bound and sample sets exactly.
PROBABILITY_BOUND = 1e-12


def scalar_sampled(req, steps=None):
    """schrodinger_anneal's lockstep reads over the reference integrator:
    one pass, then all reads measured from the same seed."""
    model = req.model
    psi, drift = scalar_pass(model, req.schedule, reference_start(req), steps)
    outcomes = measure(psi, req.reads, np.random.default_rng(req.seed))
    states = [index_state(model, k) for k in outcomes]
    return engines._assemble(model, states, drift)


def sampling_case(c):
    """Seeded request c with 2-10 qubits and 200 lockstep reads: an Ising
    or QUBO model on a forward, reverse or grouped schedule; every eighth
    case puts each qubit on its own path and holds the first at s = 1."""
    rng = np.random.default_rng(9000 + c)
    n = 2 + c % 9
    shape = ("forward", "reverse", "grouped")[c % 3]
    if c % 2:
        model, domain = random_ising(n, rng, density=0.8), (-1, 1)
    else:
        q = {(i, j): float(rng.normal()) for i in range(n) for j in range(i, n)
             if rng.random() < 0.8}
        model, domain = QuboModel(n, q), (0, 1)
    initial = None
    if shape == "forward":
        sched = forward_schedule(2.0)
    else:
        if shape == "reverse":
            sched = reverse_with_hold(2.0, 0.2, 0.3)
        else:
            groups = [tuple(range(0, n, 2)), tuple(range(1, n, 2))]
            sched = grouped_cycle_schedule(3.0, groups, down_fraction=0.3)
        initial = tuple(domain[int(b)] for b in rng.integers(0, 2, n))
    if c % 8 == 3:
        sched = own_paths(sched, n, [0.0, *rng.uniform(0.2, 1.0, n - 1)])
        if initial is None:
            initial = tuple(domain[int(b)] for b in rng.integers(0, 2, n))
    return SamplerRequest(model, sched, reads=200, initial_state=initial, seed=c)


def valuation_qubo(j):
    """The hybrid's first valuation QUBO at --j2 j --j3 j, at native scale:
    2 (j + 1) qubits whose diagonal spans about 1,100."""
    enc2, enc3 = _valuation_encodings(RunConfig(algorithm="hybrid", j2=j, j3=j))
    poly, _ = build_gv_pbo(DEFAULT_INIT[0], enc2, enc3, collocation_grid(DEFAULT_PARAMS))
    return to_qubo(poly)[0]


class TestIntegratorMatchesScalarLoop:
    @settings(max_examples=80, deadline=None)
    @given(integrator_requests(sizes=range(1, 10)), st.sampled_from([None, 7, 40]))
    def test_same_probabilities(self, req, steps):
        want = scalar_probabilities(req, steps)
        got = final_probabilities(req, steps)
        assert np.max(np.abs(got - want)) <= PROBABILITY_BOUND

    @settings(max_examples=30, deadline=None)
    @given(integrator_requests(sizes=range(1, 8), reads=3), st.sampled_from([None, 7]))
    def test_chained_reads_share_one_plan(self, req, steps):
        want = scalar_chained(req, steps)
        got = schrodinger_anneal(req, steps)
        assert got.records == want.records
        assert abs(got.norm_drift - want.norm_drift) <= 1e-12

    def test_all_zero_angles(self):
        # every path held at s = 1: no qubit ever rotates, so the pass is
        # the diagonal phase alone and leaves every probability as it was
        model = IsingModel(3, {0: 0.3}, {(0, 1): -0.7, (1, 2): 0.4})
        sched = own_paths(forward_schedule(2.0), 3, [0.0] * 3)
        rng = np.random.default_rng(5)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        got, _ = engines._Integration(model, sched, 9).run(psi)
        want, _ = scalar_pass(model, sched, psi, 9)
        assert np.max(np.abs(np.abs(got) ** 2 - np.abs(want) ** 2)) <= PROBABILITY_BOUND
        assert np.max(np.abs(np.abs(got) ** 2 - np.abs(psi) ** 2)) <= PROBABILITY_BOUND

    def test_column_blocks_past_4096_states(self):
        # 13 qubits: the Hadamard transform runs over three axes (4, 4 and 5 qubits)
        model = random_ising(13, np.random.default_rng(3), density=0.3)
        req = SamplerRequest(model, forward_schedule(1.0))
        want = scalar_probabilities(req, 3)
        assert np.max(np.abs(final_probabilities(req, 3) - want)) <= PROBABILITY_BOUND

    @pytest.mark.parametrize("case", range(48))
    def test_sample_sets_match_scalar_reference(self, case):
        req = sampling_case(case)
        assert schrodinger_anneal(req).records == scalar_sampled(req).records

    # Native scale: the valuation QUBO at the default step size of 1/32
    # turns the half-step phase by up to 17 rad, which is where the
    # diagonal phase recurrence rounds most. The counts put the end of a
    # run of recurrence steps just before, at and after an anchor, and
    # 1,283 steps, not a multiple of the anchor interval, carry it over a
    # whole anneal. The grouped schedule's dips bottom out at 0.15 T and
    # 0.65 T and end at 0.5 T: at 1,283 steps its segments start at steps
    # 0, 192, 642 and 834, so two of its breakpoints fall inside an
    # interval of the anchors counted from step 0.
    @pytest.mark.parametrize("steps", [1, 2, engines._ANCHOR_EVERY - 1, engines._ANCHOR_EVERY,
                                       engines._ANCHOR_EVERY + 1, 1283])
    @pytest.mark.parametrize("shape", ["forward", "grouped"])
    def test_native_scale_phase_recurrence(self, native_valuation_qubo, shape, steps):
        model = native_valuation_qubo
        total = steps / 32.0
        if shape == "forward":
            sched, initial = forward_schedule(total), None
        else:
            sched = grouped_cycle_schedule(total, [tuple(range(5)), tuple(range(5, 10))],
                                           down_fraction=0.3)
            initial = tuple(v % 2 for v in range(model.n))
        req = SamplerRequest(model, sched, reads=100, initial_state=initial, seed=steps)
        want = scalar_probabilities(req, steps)
        assert np.max(np.abs(final_probabilities(req, steps) - want)) <= PROBABILITY_BOUND
        assert schrodinger_anneal(req, steps).records == scalar_sampled(req, steps).records

    @pytest.mark.parametrize("n, axes", [(1, 1), (2, 1), (7, 2), (11, 2), (12, 2), (13, 3),
                                         (14, 3), (16, 3)])
    @pytest.mark.parametrize("paths", ["shared", "own"])
    def test_transverse_stage_is_the_qubit_rotations(self, n, axes, paths):
        # No diagonal terms, so one step is the transverse stage alone. The
        # shared start paths differ by v % 3, which gives up to three angle
        # groups; own start paths give each qubit its own angle.
        rng = np.random.default_rng(n)
        starts = rng.uniform(size=n) if paths == "own" else [0.25 * (v % 3) for v in range(n)]
        model = IsingModel(n, {}, {})
        sched = AnnealSchedule(2.0, ((0.0, 0.0), (2.0, 1.0)),
                               {v: ((0.0, float(starts[v])), (2.0, 1.0)) for v in range(n)})
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        plan = engines._Integration(model, sched, 1)
        assert [op for op, *_ in plan.stages].count(np.matmul) == 2 * axes
        got, _ = plan.run(psi)
        want, _ = scalar_pass(model, sched, psi, 1)
        assert np.max(np.abs(got - want)) <= 1e-13


@pytest.fixture(scope="module")
def native_valuation_qubo():
    return valuation_qubo(4)


def knotted_schedule(knots, total=12.0):
    """A forward anneal over `total` with a breakpoint at each knot time
    and s = (t / total)^2 at every breakpoint, so each segment has its own
    slope. At 12 steps over 12 time units the step midpoints are k + 0.5,
    so knots 5, 6 and 8 leave a 1-step and a 2-step segment mid-pass, and
    a knot at 11 or 10 leaves a 1-step or 2-step segment at the end."""
    times = (0.0, *knots, total)
    return AnnealSchedule(total, tuple((t, (t / total) ** 2) for t in times))


def merged_phase_request(model, sched, reads=200, seed=3):
    """A lockstep request on sched, with a start state where it needs one."""
    initial = None
    if sched.needs_initial_state(model.n):
        domain = reference_domain(model)
        initial = tuple(domain[v % 2] for v in range(model.n))
    return SamplerRequest(model, sched, reads=reads, initial_state=initial, seed=seed)


def assert_pass_matches_scalar(req, steps):
    """The pass's amplitudes within PROBABILITY_BOUND of scalar_pass's (the
    last diagonal multiply shows in amplitudes only), and the same sample
    set."""
    start = reference_start(req)
    got, _ = engines._Integration(req.model, req.schedule, steps).run(start)
    want, _ = scalar_pass(req.model, req.schedule, start, steps)
    assert np.max(np.abs(got - want)) <= PROBABILITY_BOUND
    assert schrodinger_anneal(req, steps).records == scalar_sampled(req, steps).records


def edge_models():
    rng = np.random.default_rng(17)
    q = {(i, j): float(rng.normal()) for i in range(6) for j in range(i, 6)}
    return [random_ising(5, rng, density=0.8), QuboModel(6, q)]


class TestIntegratorMergedPhase:
    """The merged diagonal phase at its edges: p_0 before the first step,
    p_k p_{k+1} between steps, p_{K-1} alone after the last, and the
    multiplies that stand alone around short segments."""

    @pytest.mark.parametrize("steps", [1, 2])
    @pytest.mark.parametrize("shape", ["forward", "grouped", "own"])
    @pytest.mark.parametrize("m", range(2))
    def test_one_and_two_step_passes(self, steps, shape, m):
        # one step has no multiply between steps; two have one
        model = edge_models()[m]
        n = model.n
        if shape == "grouped":
            sched = grouped_cycle_schedule(3.0, [tuple(range(0, n, 2)), tuple(range(1, n, 2))],
                                           down_fraction=0.3)
        else:
            sched = forward_schedule(2.0)
            if shape == "own":
                sched = own_paths(sched, n, np.linspace(0.2, 1.0, n))
        assert_pass_matches_scalar(merged_phase_request(model, sched), steps)

    @pytest.mark.parametrize("knots", [(5.0, 6.0, 8.0), (11.0,), (10.0,), (9.0, 11.0)])
    @pytest.mark.parametrize("paths", ["global", "own"])
    @pytest.mark.parametrize("m", range(2))
    def test_short_segments(self, knots, paths, m):
        model = edge_models()[m]
        sched = knotted_schedule(knots)
        if paths == "own":
            sched = own_paths(sched, model.n, np.linspace(0.3, 1.0, model.n))
        assert_pass_matches_scalar(merged_phase_request(model, sched), 12)

    def test_level_blocks_across_a_pass(self):
        # 10 qubits on their own paths have 1,024 levels, so a block holds
        # 64 steps and a 150-step pass has blocks of 64, 64 and 22
        model = random_ising(10, np.random.default_rng(4), density=0.3)
        sched = own_paths(knotted_schedule((5.0, 6.0, 8.0)), 10, np.linspace(0.2, 1.0, 10))
        assert engines._Integration(model, sched, 150).level_phase.shape == (64, 1024)
        assert_pass_matches_scalar(merged_phase_request(model, sched), 150)

    @pytest.mark.parametrize("knots, steps", [((), 1), ((), 2), ((5.0, 6.0, 8.0), 12),
                                              ((9.0, 11.0), 12)])
    @pytest.mark.parametrize("m", range(2))
    def test_chained_reads_reuse_the_first_phase(self, knots, steps, m):
        model = edge_models()[m]
        sched = dataclasses.replace(knotted_schedule(knots), reinitialize=False)
        req = merged_phase_request(model, sched, reads=4, seed=11)
        want = scalar_chained(req, steps)
        got = schrodinger_anneal(req, steps)
        assert got.records == want.records
        assert abs(got.norm_drift - want.norm_drift) <= 1e-12
        # a pass leaves the plan's p_0 as it was, so a second pass from the
        # same state repeats the first
        plan = engines._Integration(model, sched, steps)
        first = plan.first.copy()
        psi = engines._start_vector(req)
        once, _ = plan.run(psi)
        again, _ = plan.run(psi)
        assert np.array_equal(plan.first, first)
        assert np.array_equal(once, again)

    # Every qubit on its own path: 2^16 levels, so a step's level phases
    # are a whole block. The plan alone, no pass.
    def test_level_blocks_stay_bounded(self):
        n = 16
        model = IsingModel(n, {0: 0.5}, {(0, n - 1): -0.3})
        sched = own_paths(forward_schedule(2.0), n, np.linspace(0.1, 1.0, n))
        plan = engines._Integration(model, sched, 40)
        assert len(plan.zsums) == 1 << n
        assert plan.level_phase.size <= engines._LEVEL_BLOCK
        assert plan.level_angle.size <= engines._LEVEL_BLOCK
        assert plan.spread.size <= engines._LEVEL_BLOCK
        # a forward schedule's n + 1 levels put many steps in one block
        plan = engines._Integration(model, forward_schedule(2.0), 40)
        assert plan.level_phase.shape == (40, n + 1)

    # The 14-qubit valuation QUBO (three Hadamard axes) at native scale and
    # 1,283 steps: the merged phase turns up to 34 rad per multiply, twice
    # the half-step phase, which is where the recurrence rounds most. The
    # reference is the same pass with every multiply evaluated exactly
    # (the scalar loop takes several seconds a pass at this size), so the
    # bound holds the recurrence's own rounding.
    @pytest.mark.parametrize("shape", ["forward", "grouped"])
    def test_native_scale_recurrence_at_14_qubits(self, shape):
        model = valuation_qubo(6)
        n, steps = model.n, 1283
        if shape == "forward":
            sched = forward_schedule(steps / 32.0)
        else:
            sched = grouped_cycle_schedule(steps / 32.0, [tuple(range(7)), tuple(range(7, n))],
                                           down_fraction=0.3)
        req = merged_phase_request(model, sched, reads=100, seed=steps)
        start = engines._start_vector(req)
        got, _ = engines._Integration(model, sched, steps).run(start)
        with mock.patch.object(engines, "_ANCHOR_EVERY", 1):
            want, _ = engines._Integration(model, sched, steps).run(start)
        assert np.max(np.abs(np.abs(got) ** 2 - np.abs(want) ** 2)) <= PROBABILITY_BOUND
        rng = functools.partial(np.random.default_rng, req.seed)
        assert np.array_equal(measure(got, req.reads, rng()), measure(want, req.reads, rng()))


def phases_of(angles):
    """engines._phases of each angle alone: a 1 x 1 coefficient of one
    times a row of the angles, which the gemm reproduces exactly."""
    angles = np.asarray(angles, dtype=np.float64).reshape(1, -1)
    out = np.empty(angles.shape, dtype=np.complex128)
    engines._phases(np.ones((1, 1)), angles, np.empty(angles.shape), out)
    return out[0]


def assert_unit_phases(angles, got):
    """got within 4e-16 of cos + i sin of the angles, part by part."""
    assert np.max(np.abs(got.real - np.cos(angles))) <= 4e-16
    assert np.max(np.abs(got.imag - np.sin(angles))) <= 4e-16


class TestIntegratorPhases:
    """_phases forms exp(i a) from t = tan(a / 2); it must stay within
    4e-16 of numpy's cos and sin wherever the integrator evaluates it."""

    def test_special_points(self):
        tiny = np.nextafter(0.0, 1.0)
        points = np.array([0.0, -0.0, tiny, 1e-300, 1e-17, math.pi / 2, math.pi])
        points = np.concatenate((points, -points))
        got = phases_of(points)
        assert_unit_phases(points, got)
        # a zero angle is exactly 1, and small angles keep their sign
        half = len(points) // 2
        assert got[0] == 1.0 and got[half] == 1.0
        assert np.array_equal(np.signbit(got.imag[[3, 4, half + 3, half + 4]]),
                              [False, False, True, True])

    def test_odd_multiples_of_half_pi_near_the_native_phase(self):
        # the merged phase at native scale turns up to about 34 rad; t is
        # largest (and cos is formed by cancellation) next to odd
        # multiples of pi / 2 and of pi
        k = np.arange(15, 29)
        base = k * (math.pi / 2)
        near = np.concatenate([base, *(np.nextafter(base, d) for d in (-np.inf, np.inf)),
                               base + 1e-9, base - 1e-9])
        angles = np.concatenate((near, -near))
        assert_unit_phases(angles, phases_of(angles))

    def test_wide_range(self):
        rng = np.random.default_rng(26)
        spread = rng.uniform(-1e4, 1e4, 200_000)
        scales = 10.0 ** rng.uniform(-8, 4, 50_000) * rng.choice([-1.0, 1.0], 50_000)
        angles = np.concatenate((spread, scales, [1e4, -1e4]))
        assert_unit_phases(angles, phases_of(angles))

    def test_anchor_rows_of_a_native_plan(self, native_valuation_qubo):
        # every exact evaluation of a 1,283-step pass on the 10-qubit
        # valuation QUBO, forward and grouped: m, r and q rows
        model = native_valuation_qubo
        for sched in (forward_schedule(1283 / 32.0),
                      grouped_cycle_schedule(1283 / 32.0, [tuple(range(5)), tuple(range(5, 10))],
                                             down_fraction=0.3)):
            plan = engines._Integration(model, sched, 1283)
            coef = np.concatenate(list(plan.anchors.values()))
            angles = coef @ plan.rows
            out = np.empty(angles.shape, dtype=np.complex128)
            engines._phases(coef, plan.rows, np.empty(angles.shape), out)
            assert np.abs(angles).max() > 30.0
            assert_unit_phases(angles, out)


class TestIntegratorSpreadBlocks:
    """Level phases are spread into basis order for a block of steps at
    once: with the entry budget shrunk, passes that end just before, at
    and after a spread block and a level block match the scalar loop."""

    # 5 qubits: 32 states and, on a forward schedule, 6 levels. A budget
    # of 96 entries gives spread blocks of 3 steps inside level blocks of
    # 16 (the last spread block of each 1 step); with every qubit on its
    # own path, 32 levels, both blocks are 3 steps.
    @pytest.mark.parametrize("steps", [2, 3, 4, 15, 16, 17, 35])
    @pytest.mark.parametrize("paths", ["shared", "own"])
    def test_block_boundaries(self, steps, paths):
        model = edge_models()[0]
        sched = forward_schedule(2.0)
        if paths == "own":
            sched = own_paths(sched, model.n, np.linspace(0.2, 1.0, model.n))
        req = merged_phase_request(model, sched)
        with mock.patch.object(engines, "_LEVEL_BLOCK", 96):
            plan = engines._Integration(model, sched, steps)
            assert plan.spread_steps == 3
            assert plan.block_steps == (16 if paths == "shared" else 3)
            assert plan.spread.shape == (min(3, steps), 32)
            got = final_probabilities(req, steps)
            samples = schrodinger_anneal(req, steps)
        assert np.max(np.abs(got - scalar_probabilities(req, steps))) <= PROBABILITY_BOUND
        assert samples.records == scalar_sampled(req, steps).records


def reference_rows(model, path):
    """The diagonal rows as whole-row products added one term at a time:
    ``rows[key] + w * vals[u] * vals[v]`` per term, keys in order of first
    appearance, the linear terms first."""
    dim = 1 << model.n
    values = np.array(value_domain(model), dtype=np.float64)
    vals = [values[(np.arange(dim) >> i) & 1] for i in range(model.n)]
    rows = {}
    for vars_, w in sorted(energy_terms(model), key=lambda t: len(t[0])):
        key = tuple(sorted(path[v] for v in vars_))
        row = w
        for v in vars_:
            row = row * vals[v]
        rows[key] = rows.get(key, 0.0) + row
    return rows


def assert_rows_match(model, path):
    """_diagonal_rows equals reference_rows key for key and bit for bit,
    the signs of zeros included."""
    got = engines._diagonal_rows(model, path)
    want = reference_rows(model, path)
    assert list(got) == list(want)
    for key in want:
        assert np.array_equal(got[key], want[key])
        assert np.array_equal(np.signbit(got[key]), np.signbit(want[key]))


class TestIntegratorDiagonalRows:
    """_diagonal_rows adds each term to the states it is not zero on,
    through strided views; the rows must equal whole-row products added
    one term at a time, bit for bit and key for key."""

    @pytest.mark.parametrize("j", [4, 6])
    @pytest.mark.parametrize("paths", ["shared", "halves", "own"])
    def test_native_valuation_qubos(self, j, paths):
        model = valuation_qubo(j)
        n = model.n
        path = {"shared": [0] * n, "halves": [2 * v // n for v in range(n)],
                "own": list(range(n))}[paths]
        assert_rows_match(model, path)

    @pytest.mark.parametrize("seed", range(6))
    def test_small_models(self, seed):
        # Ising (values -1 and 1) and QUBO models, couplings listed either
        # way round, zero weights, on 1 to 7 qubits and mixed paths
        rng = np.random.default_rng(seed)
        n = 1 + seed
        weights = rng.choice([-1.5, -0.0, 0.0, 0.3, 2.0 ** -60, 7.25], size=(n, n))
        if seed % 2:
            model = IsingModel(n, {i: weights[i, i] for i in range(n)},
                               {(j, i) if (i + j) % 2 else (i, j): weights[i, j]
                                for i in range(n) for j in range(i + 1, n)})
        else:
            model = QuboModel(n, {(i, j): weights[i, j] for i in range(n) for j in range(i, n)})
        path = rng.integers(0, 3, n).tolist()
        assert_rows_match(model, path)

    def test_plan_rows_are_the_diagonal_rows(self, native_valuation_qubo):
        model = native_valuation_qubo
        sched = grouped_cycle_schedule(4.0, [tuple(range(5)), tuple(range(5, 10))],
                                       down_fraction=0.3)
        plan = engines._Integration(model, sched, 64)
        path = [v // 5 for v in range(10)]
        assert np.array_equal(plan.rows, np.array(list(reference_rows(model, path).values())))


class TestNormCheck:
    def test_drift_beyond_tolerance_raises(self):
        # every Hadamard gemm scaled by 1.001: each step grows the norm by
        # about 0.4 %, far past the 1e-6 a step may drift
        sylvester = engines._sylvester
        req = SamplerRequest(TABLE1, forward_schedule(2.0))
        with mock.patch.object(engines, "_sylvester", lambda size: 1.001 * sylvester(size)):
            with pytest.raises(IntegrationError, match="norm drifted"):
                final_probabilities(req, steps=5)
            with pytest.raises(IntegrationError, match="norm drifted"):
                schrodinger_anneal(req, steps=5)

    def test_drift_inside_tolerance_is_removed_every_step(self):
        # two gemms per step at 2 qubits, each scaled by 1 + 1e-7: a step
        # drifts by about 2e-7, which would pass 1e-6 within six steps if
        # the drift carried over from step to step
        sylvester = engines._sylvester
        req = SamplerRequest(TABLE1, forward_schedule(2.0), reads=5)
        with mock.patch.object(engines, "_sylvester", lambda size: (1 + 1e-7) * sylvester(size)):
            got = schrodinger_anneal(req, steps=40)
            probs = final_probabilities(req, steps=40)
        assert 1.9e-7 < got.norm_drift < 2.1e-7
        assert abs(probs.sum() - 1.0) <= 1e-12


class TestStepGuard:
    def test_explicit_steps_outside_the_guard_raise(self):
        req = SamplerRequest(TABLE1, forward_schedule(2.0))
        with pytest.raises(CapacityError, match="integration steps"):
            final_probabilities(req, steps=engines.MAX_STEPS + 1)
        with pytest.raises(ValueError, match="steps"):
            final_probabilities(req, steps=0)

    @pytest.mark.parametrize("total", [1e308, 1e9, 8192.04])
    def test_long_anneal_raises_before_planning(self, total):
        req = SamplerRequest(TABLE1, forward_schedule(total))
        with mock.patch.object(engines, "fraction_table", side_effect=AssertionError):
            with pytest.raises(CapacityError, match="integration steps"):
                schrodinger_anneal(req)

    def test_longest_default_anneal_is_allowed(self):
        # 32 * 8192.03 rounds down to exactly the guard
        assert engines._step_count(forward_schedule(8192.03), None) == engines.MAX_STEPS
        assert engines._step_count(forward_schedule(1.0), None) == 256
