import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annealdp.bqm as bqm_mod
from annealdp.bqm import (
    _BLOCK_BITS,
    BRUTE_FORCE_MAX_VARS,
    CapacityError,
    IsingModel,
    QuboModel,
    brute_force,
    energy_of_bits,
    energy_terms,
    fold_indices,
    ising_energy,
    qubo_energy,
    random_ising,
    value_domain,
)
from annealdp.rbc import combinatorial_ppi

# Two-spin instance used throughout: h0=0.5, h1=-0.3, J01=-0.8.
TWO_SPIN = IsingModel(2, {0: 0.5, 1: -0.3}, {(0, 1): -0.8})

# Frozen by hand: e.g. (-1,-1) -> -0.5 + 0.3 - 0.8 = -1.0.
TWO_SPIN_ENERGIES = {
    (-1, -1): -1.0,
    (-1, 1): 0.0,
    (1, -1): 1.6,
    (1, 1): -0.6,
}


class TestEnergies:
    def test_two_spin_table(self):
        # Exact at printed (one-decimal) precision; 1 ulp of drift from
        # accumulation order is acceptable underneath.
        for state, expected in TWO_SPIN_ENERGIES.items():
            e = ising_energy(TWO_SPIN, state)
            assert round(e, 9) == expected
            assert e == pytest.approx(expected, abs=1e-12)

    def test_qubo_energy_by_hand(self):
        # x0 - x1 - 2 x0 x1: minimum -2 at (1,1)
        m = QuboModel(2, {(0, 0): 1.0, (1, 1): -1.0, (0, 1): -2.0})
        assert qubo_energy(m, (0, 0)) == 0.0
        assert qubo_energy(m, (1, 0)) == 1.0
        assert qubo_energy(m, (0, 1)) == -1.0
        assert qubo_energy(m, (1, 1)) == -2.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ising_energy(TWO_SPIN, (0, 1))
        with pytest.raises(ValueError):
            qubo_energy(QuboModel(2, {(0, 1): 1.0}), (-1, 1))
        with pytest.raises(ValueError):
            ising_energy(TWO_SPIN, (1,))

    def test_duplicate_keys_accumulate(self):
        m = QuboModel(2, {(0, 1): 1.0, (1, 0): 2.0})
        assert m.q == {(0, 1): 3.0}
        mi = IsingModel(2, {}, {(1, 0): 0.5, (0, 1): 0.25})
        assert mi.couplings == {(0, 1): 0.75}

    def test_index_validation(self):
        with pytest.raises(ValueError):
            IsingModel(2, {2: 1.0})
        with pytest.raises(ValueError):
            IsingModel(2, {}, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            QuboModel(1, {(0, 1): 1.0})


class TestBruteForce:
    def test_two_spin_ground(self):
        res = brute_force(TWO_SPIN)
        assert res.min_energy == -1.0
        assert res.argmin_states == ((-1, -1),)

    def test_qubo_ground_native_domain(self):
        m = QuboModel(2, {(0, 0): 1.0, (1, 1): -1.0, (0, 1): -2.0})
        res = brute_force(m)
        assert res.min_energy == -2.0
        assert res.argmin_states == ((1, 1),)

    def test_degenerate_minima_all_reported(self):
        # No terms at all: every state ties at zero.
        res = brute_force(QuboModel(2))
        assert res.min_energy == 0.0
        assert res.argmin_states == ((0, 0), (1, 0), (0, 1), (1, 1))

    def test_spectrum_matches_scalar_energies(self):
        rng = np.random.default_rng(7)
        ising = random_ising(5, rng)
        res = brute_force(ising, keep_spectrum=True)
        assert res.spectrum is not None
        assert len(res.spectrum) == 32
        for state, energy in res.spectrum:
            assert energy == ising_energy(ising, state)

    def test_blocking_is_bit_for_bit(self, monkeypatch):
        # Force tiny blocks and compare against a single-block run.
        import annealdp.bqm as bqm_mod

        rng = np.random.default_rng(19)
        ising = random_ising(8, rng)
        whole = brute_force(ising, keep_spectrum=True)
        monkeypatch.setattr(bqm_mod, "_BLOCK_BITS", 3)
        split = brute_force(ising, keep_spectrum=True)
        assert whole == split

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
    def test_partition_free_at_any_block_size(self, n, spin, seed):
        # Spectrum and argmin bits must not depend on the block size, also
        # with small integer weights that make exact ties across blocks.
        rng = np.random.default_rng(seed)
        scale = float(rng.choice([1.0, 0.5]))
        weight = (lambda: float(rng.integers(-2, 3))) if seed % 2 else rng.normal
        pairs = [(i, j) for i in range(n) for j in range(i, n) if rng.random() < 0.6]
        if spin:
            model = IsingModel(n, {i: scale * weight() for i, j in pairs if i == j},
                               {(i, j): scale * weight() for i, j in pairs if i != j})
        else:
            model = QuboModel(n, {p: scale * weight() for p in pairs})
        results = []
        for bits in (1, 3, 14, 20):
            with mock.patch.object(bqm_mod, "_BLOCK_BITS", bits):
                results.append(brute_force(model, keep_spectrum=True))
        first = results[0]
        energies = np.array([e for _, e in first.spectrum])
        for res in results[1:]:
            assert np.array([e for _, e in res.spectrum]).tobytes() == energies.tobytes()
            assert [s for s, _ in res.spectrum] == [s for s, _ in first.spectrum]
            assert res.argmin_states == first.argmin_states
            assert np.float64(res.min_energy).tobytes() == np.float64(first.min_energy).tobytes()

    def test_vector_scalar_agreement_exact(self):
        rng = np.random.default_rng(23)
        ising = random_ising(6, rng)
        energies = fold_indices(energy_terms(ising), np.arange(0, 64, dtype=np.int64),
                                ising.n, value_domain(ising))
        for k in range(64):
            bits = [(k >> i) & 1 for i in range(6)]
            assert energies[k] == energy_of_bits(ising, bits)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            brute_force(QuboModel(27))
        with pytest.raises(CapacityError):
            brute_force(QuboModel(5), max_vars=4)

    def test_zero_variables(self):
        res = brute_force(QuboModel(0))
        assert res.min_energy == 0.0
        assert res.argmin_states == ((),)


def exhaustive_reference(
    model: IsingModel | QuboModel,
    keep_spectrum: bool = False,
    max_vars: int = BRUTE_FORCE_MAX_VARS,
):
    """The enumerator brute_force replaced: every state folded exactly in
    fixed index blocks. Kept verbatim as the equality reference."""
    n = model.n
    if n > max_vars:
        raise CapacityError(f"brute force over {n} variables exceeds the guard of {max_vars}")
    total = 1 << n
    block = 1 << min(n, _BLOCK_BITS)
    min_energy = np.inf
    argmin_idx: list[int] = []
    spectrum_energies: list[np.ndarray] = []
    for start in range(0, total, block):
        stop = min(start + block, total)
        energies = fold_indices(energy_terms(model), np.arange(start, stop, dtype=np.int64),
                                n, value_domain(model))
        if keep_spectrum:
            spectrum_energies.append(energies)
        bmin = float(energies.min())
        if bmin < min_energy:
            min_energy = bmin
            argmin_idx = []
        if bmin == min_energy:
            argmin_idx.extend(int(start + k) for k in np.flatnonzero(energies == min_energy))

    def to_state(k: int) -> tuple[int, ...]:
        bits = tuple((k >> i) & 1 for i in range(n))
        if isinstance(model, IsingModel):
            return tuple(2 * b - 1 for b in bits)
        return bits

    spectrum = None
    if keep_spectrum:
        flat = np.concatenate(spectrum_energies) if spectrum_energies else np.zeros(0)
        spectrum = tuple((to_state(k), float(flat[k])) for k in range(total))
    return bqm_mod.SpectrumResult(
        min_energy=float(min_energy),
        argmin_states=tuple(to_state(k) for k in argmin_idx),
        spectrum=spectrum,
    )


def exact_folds(run) -> list[tuple[IsingModel | QuboModel, list[int]]]:
    """Run run() and return each (model, state indices) that brute_force
    rescored with the exact fold."""
    folds = []
    fold = bqm_mod.fold_indices

    def spy(terms, idx, n, domain=(0, 1)):
        # brute_force's rescoring only, not the split ranking's half folds
        caller = sys._getframe(1)
        if caller.f_code is bqm_mod.brute_force.__code__:
            folds.append((caller.f_locals["model"], idx.tolist()))
        return fold(terms, idx, n, domain)

    with mock.patch.object(bqm_mod, "fold_indices", spy):
        run()
    return folds


def rescored_indices(model, run) -> list[int]:
    """The state indices of `model` itself that run() rescored exactly."""
    return [k for m, idx in exact_folds(run) if m is model for k in idx]


def _same_result(got, want) -> bool:
    return (
        np.float64(got.min_energy).tobytes() == np.float64(want.min_energy).tobytes()
        and got.argmin_states == want.argmin_states
        and got.spectrum == want.spectrum
    )


WEIGHT_KINDS = ("dyadic", "integer", "mixed", "zero")
# a dyadic QUBO with 9 states strictly between delta and 2 delta of its minimum
NEAR_TIE_N, NEAR_TIE_SEED = 9, 58


def _dyadic_unit(m: int) -> float:
    """Finest power of two whose multiples up to m + 1 in magnitude are
    exact floats. A dyadic model of m terms, each an integer in [-1, 1]
    plus a few units, then sums exactly in any order, and delta spans
    several units, so near-ties fall on both sides of delta and 2 delta."""
    return 2.0 ** ((m + 1).bit_length() - 52)


def _kind_model(n: int, spin: bool, kind: str, seed: int) -> IsingModel | QuboModel:
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i, n) if rng.random() < 0.6]
    unit = _dyadic_unit(len(pairs))

    def weight() -> float:
        if kind == "dyadic":
            return float(rng.integers(-1, 2)) + float(rng.integers(-3, 4)) * unit
        if kind == "integer":
            return float(rng.integers(-2, 3))
        if kind == "mixed":
            return float(rng.choice([1e12, 1.0, 0.1, 0.3, 0.7])) * float(rng.choice([-1.0, 1.0]))
        return 0.0

    if spin:
        return IsingModel(n, {i: weight() for i, j in pairs if i == j},
                          {(i, j): weight() for i, j in pairs if i != j})
    return QuboModel(n, {p: weight() for p in pairs})


def _delta_window(model: IsingModel | QuboModel) -> tuple[set[int], set[int], set[int]]:
    """For a dyadic model, whose approximate and exact energies agree: the
    states within 2 delta of the minimum (the candidate set must hold
    them), those within 2 delta plus one unit (the threshold is rounded up
    by less than that), and those strictly between delta and 2 delta."""
    energies = fold_indices(energy_terms(model), np.arange(0, 1 << model.n, dtype=np.int64),
                            model.n, value_domain(model))
    weights = [c for _, c in bqm_mod.energy_terms(model)]
    m = Fraction(len(weights), 2**53)
    delta = 2 * m / (1 - m) * sum(Fraction(abs(w)) for w in weights)
    emin = float(energies.min())
    near = np.flatnonzero(energies <= emin + 4 * float(delta) + 1e-9).tolist()
    gap = {k: Fraction(float(energies[k])) - Fraction(emin) for k in near}
    slack = Fraction(_dyadic_unit(len(weights)))
    return (
        {k for k, g in gap.items() if g <= 2 * delta},
        {k for k, g in gap.items() if g <= 2 * delta + slack},
        {k for k, g in gap.items() if delta < g <= 2 * delta},
    )


class TestSplitEnumeration:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 14), st.booleans(), st.sampled_from(WEIGHT_KINDS),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_equals_exhaustive_reference(self, n, spin, kind, keep, seed):
        # an all-zero model makes every state a candidate; keep it small
        n = min(n, 10) if kind == "zero" else n
        keep = keep and n <= 8
        model = _kind_model(n, spin, kind, seed)
        want = exhaustive_reference(model, keep_spectrum=keep)
        window = _delta_window(model) if kind == "dyadic" and not keep else None
        for bits in (1, 3, 14, 20):
            results = []
            with mock.patch.object(bqm_mod, "_BLOCK_BITS", bits):
                rescored = rescored_indices(model, lambda: results.append(brute_force(model, keep)))
            assert _same_result(results[0], want), (bits, results[0], want)
            if window is not None:
                assert window[0] <= set(rescored) <= window[1]
                assert rescored == sorted(rescored)

    def test_candidates_reach_two_delta(self):
        # this dyadic model has states strictly between delta and 2 delta
        # of its minimum; every one of them must be rescored
        model = _kind_model(NEAR_TIE_N, False, "dyadic", NEAR_TIE_SEED)
        must, may, beyond_delta = _delta_window(model)
        assert beyond_delta
        rescored = rescored_indices(model, lambda: brute_force(model))
        assert must <= set(rescored) <= may

    def test_rescoring_finds_argmin_the_ranking_misses(self):
        # States 7 and 10 both have real energy -0.2. The dict-order fold
        # gives state 10 exactly -0.2 and state 7 -0.19999999999999996,
        # while the split ranking gives state 7 -0.20000000000000007.
        model = QuboModel(4, {(0, 1): 0.1, (0, 2): -0.3, (0, 3): 0.7, (1, 2): -0.7,
                              (1, 3): -0.2, (2, 2): 0.7, (2, 3): 0.3})
        weights = [c for _, c in bqm_mod.energy_terms(model)]
        with mock.patch.object(bqm_mod, "_UNIT_ROUNDOFF", 0.0):
            assert bqm_mod._near_minimum(model, weights).tolist() == [7]
        results = []
        rescored = rescored_indices(model, lambda: results.append(brute_force(model)))
        assert len(rescored) > 1 and 10 in rescored
        assert results[0].argmin_states == ((0, 1, 0, 1),)
        assert _same_result(results[0], exhaustive_reference(model))

    def test_peak_memory_holds_no_full_array(self):
        model = random_ising(20, np.random.default_rng(20))
        tracemalloc.start()
        try:
            brute_force(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float per state would be 8 MiB
        assert peak < (1 << 20) * 8 // 4

    def test_valuation_qubo_rescores_one_state(self):
        # the 20-variable valuation QUBO at every anchor of a default run
        folds = exact_folds(lambda: combinatorial_ppi(fixed_iterations=2))
        assert [len(idx) for m, idx in folds if m.n == 20] == [1, 1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("spin", [False, True])
    def test_non_finite_coefficient_rejected(self, bad, spin):
        # without the check one such term poisons every state (inf * 0 is
        # NaN) and the result has no argmin at all
        if spin:
            models = [IsingModel(2, {0: bad, 1: -1.0}, {(0, 1): 0.5}),
                      IsingModel(2, {1: -1.0}, {(0, 1): bad})]
        else:
            models = [QuboModel(2, {(0, 0): bad, (1, 1): -1.0}),
                      QuboModel(2, {(1, 1): -1.0, (0, 1): bad})]
        for model in models:
            for keep in (False, True):
                with pytest.raises(ValueError, match="finite"):
                    brute_force(model, keep_spectrum=keep)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31 - 1))
def test_brute_force_matches_scan(n, seed):
    rng = np.random.default_rng(seed)
    ising = random_ising(n, rng)
    res = brute_force(ising)
    best = min(ising_energy(ising, s) for s in itertools.product((-1, 1), repeat=n))
    assert res.min_energy == best
    for s in res.argmin_states:
        assert ising_energy(ising, s) == best
