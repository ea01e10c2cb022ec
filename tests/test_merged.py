"""Tests for the merged activation-bit problem and its drivers.

Oracles: exhaustive enumeration of the reduced model against the cubic
form (with auxiliaries minimized out analytically), the standalone
valuation brute force that combinatorial_ppi performs, and closed-form
parameter values. Heuristic runs assert determinism and statistical
thresholds only.
"""

import functools
import itertools
import json
import math
import os
import struct
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealdp import merged, quadratize
from annealdp.bqm import brute_force
from annealdp.cli import EXIT_OK, main
from annealdp.merged import (
    AnnealOutcome,
    CYCLE_BASE_US,
    MergedProblem,
    build_merged_problem,
    default_merged_encodings,
    greedy_merged_sampler,
    losses,
    merged_schedule,
    multi_anneal_ppi,
    one_shot_ensemble,
    one_shot_ppi,
)
from annealdp.pbf import BinaryEncoding, to_qubo
from annealdp.quadratize import min_over_aux
from annealdp.rbc import (
    DEFAULT_PARAMS,
    DegenerateEstimateError,
    _keep_lowest,
    analytic_policy_update,
    build_gv_pbo,
    collocation_grid,
    combinatorial_ppi,
    fit_log_coefficients,
    gamma_constants,
    true_parameters,
)
from annealdp.engines import (
    SampleRecord,
    SampleSet,
    SamplerRequest,
    sequential_greedy,
)
from support import from_qubo

TRUTH = (0.3135, -18.116633445402133, 1.4566642388929352)

# scale = 2 x* / (2^7 - 1); the true value sits exactly 63.5 steps up
S2_6 = -0.285301314100821
S3_6 = 0.02293959431327457

# terminal state of the classical exhaustive run at the 7-bit widths,
# two fixed iterations (frozen from a direct combinatorial_ppi run)
COMB6 = (0.3118011784996823, -18.259284102452543, 1.3993152531097488)

# component values at the truth-snapped bit state of the default build
GP_TRUTH_BITS = 0.9058617638605702
GV_TRUTH_BITS = 0.31105250767523884

# losses at the continuous true parameters, anchor = reference = truth
UNADJ_AT_TRUTH = 1.1792882034342131
ADJ_AT_TRUTH = (0.9058594406321188, 0.2734287628020944, 0.2734287628020944)


def spearman(a, b) -> float:
    def midrank(v):
        v = np.asarray(v, dtype=float)
        order = np.argsort(v, kind="mergesort")
        ranks = np.empty(len(v))
        ranks[order] = np.arange(1, len(v) + 1)
        _, inv, cnt = np.unique(v, return_inverse=True, return_counts=True)
        sums = np.bincount(inv, weights=ranks)
        return sums[inv] / cnt[inv]

    ra, rb = midrank(a), midrank(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(ra @ rb / math.sqrt((ra @ ra) * (rb @ rb)))


def _bytes(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


def _gp_refit(x1, x3_bar):
    """The continuous policy objective with its surrogates refitted on
    every call."""
    p = DEFAULT_PARAMS
    c = fit_log_coefficients(x3_bar, p)
    kappa = p.alpha * p.beta * x3_bar
    return -(c.at0 + c.at1 * x1) - kappa * (c.a0 + c.a1 * x1 + c.a2 * x1 * x1)


@pytest.fixture(scope="module")
def prob6() -> MergedProblem:
    return build_merged_problem(DEFAULT_PARAMS)


@pytest.fixture(scope="module")
def grid3():
    return collocation_grid(DEFAULT_PARAMS, k_count=3)


@pytest.fixture(scope="module")
def prob_small(grid3) -> MergedProblem:
    encs = default_merged_encodings(DEFAULT_PARAMS, 2, 2, 2)
    return build_merged_problem(DEFAULT_PARAMS, encodings=encs, grid=grid3)


@pytest.fixture(scope="module", params=["prob6", "prob_small"])
def any_problem(request) -> MergedProblem:
    return request.getfixturevalue(request.param)


class TestDefaultEncodings:
    def test_widths_and_scales(self):
        enc1, enc2, enc3 = default_merged_encodings()
        assert enc1.vars == tuple(range(7))
        assert enc2.vars == tuple(range(7, 14))
        assert enc3.vars == tuple(range(14, 21))
        assert enc1.scale == 2.0**-7
        assert enc2.scale == pytest.approx(S2_6, rel=1e-15)
        assert enc3.scale == pytest.approx(S3_6, rel=1e-15)

    def test_truth_centered_midgrid(self):
        # the [0, 2x*] span puts the true value exactly between the two
        # middle grid points
        _, enc2, enc3 = default_merged_encodings()
        assert TRUTH[1] / enc2.scale == pytest.approx(63.5, abs=1e-12)
        assert TRUTH[2] / enc3.scale == pytest.approx(63.5, abs=1e-12)

    def test_custom_widths(self):
        enc1, enc2, enc3 = default_merged_encodings(DEFAULT_PARAMS, 2, 3, 4)
        assert enc1.bit_count == 3
        assert enc2.bit_count == 4
        assert enc3.bit_count == 5
        assert enc2.scale == pytest.approx(2 * TRUTH[1] / 15)
        assert enc3.scale == pytest.approx(2 * TRUTH[2] / 31)
        # an explicit scale replaces only its own register's scale
        assert default_merged_encodings(DEFAULT_PARAMS, 2, 3, 4, s2=-0.5) == \
            (enc1, BinaryEncoding(enc2.var_base, enc2.bit_count, -0.5), enc3)


class TestBuild:
    def test_layout_default(self, prob6):
        assert prob6.x_p == 21
        assert prob6.x_v == 22
        assert prob6.primary_count == 23
        assert prob6.offset == 0.0
        assert prob6.poly.degree == 3

    def test_aux_counts_default(self, prob6):
        # one auxiliary per cubic pair: all C(7,2) = 21 bit pairs of the
        # policy block couple to x_p, and the valuation block carries
        # 21 + 21 + 49 = 91 pairs across its two registers
        assert prob6.policy_aux_count == 21
        assert prob6.valuation_aux_count == 91
        assert prob6.n == 23 + 21 + 91

    def test_aux_methods_all_positive_terms(self, prob6):
        # the log-curvature coefficient is negative and the residual
        # quadratic's coefficients are positive, so every activation
        # cubic has a positive coefficient and reduces by PTR
        assert {r.method for r in prob6.alloc.records} == {"ptr"}

    def test_small_layout(self, prob_small):
        assert prob_small.x_p == 9
        assert prob_small.x_v == 10
        assert prob_small.policy_aux_count == 3
        assert prob_small.valuation_aux_count == 15
        assert prob_small.n == 29

    def test_default_anchors_are_closed_form(self, prob6):
        x1s, _, x3s = true_parameters(DEFAULT_PARAMS)
        assert prob6.x1_anchor == x1s
        assert prob6.x3_anchor == x3s

    def test_overlapping_encodings_rejected(self):
        enc1 = BinaryEncoding(0, 3, 0.125)
        enc2 = BinaryEncoding(2, 3, -1.0)
        enc3 = BinaryEncoding(5, 3, 0.1)
        with pytest.raises(ValueError, match="overlap"):
            build_merged_problem(DEFAULT_PARAMS, encodings=(enc1, enc2, enc3))

    def test_gapped_encodings_rejected(self):
        enc1 = BinaryEncoding(0, 3, 0.125)
        enc2 = BinaryEncoding(4, 3, -1.0)
        enc3 = BinaryEncoding(7, 3, 0.1)
        with pytest.raises(ValueError, match="contiguous"):
            build_merged_problem(DEFAULT_PARAMS, encodings=(enc1, enc2, enc3))

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError, match="bias"):
            build_merged_problem(DEFAULT_PARAMS, bias=-0.1)

    def test_decode_rejects_non_binary_bits(self, prob6):
        state = list(prob6.encode_initial(TRUTH))
        state[0] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            prob6.decode_states([state])

    def test_decode_states_past_int64_registers(self):
        # registers of 63 and 64 bits take Python integer weights
        wide = types.SimpleNamespace(
            x_p=130,
            enc1=BinaryEncoding(0, 2, 0.25),
            enc2=BinaryEncoding(2, 64, -1e-18),
            enc3=BinaryEncoding(66, 63, 3e-17),
        )
        rng = np.random.default_rng(5)
        states = [tuple(int(b) for b in rng.integers(0, 2, size=130)) for _ in range(4)]
        states.append((1,) * 130)
        for got, state in zip(MergedProblem.decode_states(wide, states), states):
            assign = dict(enumerate(state))
            want = tuple(enc.decode_assignment(assign) for enc in (wide.enc1, wide.enc2, wide.enc3))
            assert _bytes(got) == _bytes(want)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 64),
                              st.floats(1e-300, 1e250) | st.floats(-1e250, -1e-300)),
                    min_size=3, max_size=3),
           st.data())
    def test_decoded_values_inside_encoding_ranges(self, registers, data):
        # scale * m for 0 <= m <= max_int lies in [0, scale * max_int],
        # rounding being monotone, so no decoded read needs a range check
        encs, base = [], 0
        for bits, scale in registers:
            encs.append(BinaryEncoding(base, bits, scale))
            base += bits
        problem = types.SimpleNamespace(x_p=base, enc1=encs[0], enc2=encs[1], enc3=encs[2])
        states = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=base, max_size=base),
                                    max_size=6))
        states += [[0] * base, [1] * base]
        for values in MergedProblem.decode_states(problem, states):
            for name, value, enc in zip(("x1", "x2", "x3"), values, encs):
                lo, hi = sorted((0.0, enc.scale * enc.max_int))
                assert lo <= value <= hi
                merged._check_range(name, value, enc)

    def test_encode_initial(self, prob6):
        state = prob6.encode_initial(TRUTH)
        assert len(state) == prob6.n
        assert state[prob6.x_p] == 0
        assert state[prob6.x_v] == 0
        assert all(state[a] == 0 for a in prob6.aux_vars)
        decoded = prob6.decode_states([state])[0]
        assert decoded[0] == pytest.approx(0.3125)
        # mid-grid ties resolve to the smaller integer
        assert decoded[1] == pytest.approx(63 * S2_6)
        assert decoded[2] == pytest.approx(63 * S3_6)


class TestExhaustiveCorrectness:
    @pytest.mark.parametrize("bias", [0.0, 0.3])
    def test_reduction_matches_cubic_everywhere(self, grid3, bias):
        encs = default_merged_encodings(DEFAULT_PARAMS, 2, 2, 2)
        prob = build_merged_problem(DEFAULT_PARAMS, encodings=encs, grid=grid3, bias=bias)
        reduced = from_qubo(prob.qubo, prob.offset)
        for bits in itertools.product((0, 1), repeat=9):
            for x_p, x_v in ((0, 0), (0, 1), (1, 0), (1, 1)):
                assign = dict(enumerate(bits + (x_p, x_v)))
                gp = prob.gp_poly.evaluate(assign)
                gv = prob.gv_poly.evaluate(assign)
                want = x_p * gp + x_v * gv + bias * (x_p + x_v)
                assert prob.poly.evaluate(assign) == pytest.approx(want, rel=1e-12, abs=1e-12)
                got = min_over_aux(reduced, prob.aux_vars, assign)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_all_off_energy_is_zero(self, prob_small):
        reduced = from_qubo(prob_small.qubo, prob_small.offset)
        rng = np.random.default_rng(0)
        for _ in range(20):
            bits = rng.integers(0, 2, size=9)
            assign = dict(enumerate(tuple(int(b) for b in bits) + (0, 0)))
            assert min_over_aux(reduced, prob_small.aux_vars, assign) == pytest.approx(0.0, abs=1e-12)

    def test_policy_only_equals_gp(self, prob_small):
        # with x_p=1, x_v=0 and auxiliaries minimized out, the merged
        # energy is exactly the policy component
        reduced = from_qubo(prob_small.qubo, prob_small.offset)
        for k in range(8):
            bits = [int(b) for b in f"{k:03b}"[::-1]] + [0] * 6
            assign = dict(enumerate(bits + [1, 0]))
            want = prob_small.gp_poly.evaluate(assign)
            assert min_over_aux(reduced, prob_small.aux_vars, assign) == pytest.approx(want, rel=1e-12)

    def test_both_active_carries_double_bias(self, grid3):
        encs = default_merged_encodings(DEFAULT_PARAMS, 2, 2, 2)
        prob = build_merged_problem(DEFAULT_PARAMS, encodings=encs, grid=grid3, bias=0.7)
        reduced = from_qubo(prob.qubo, prob.offset)
        assign = dict(enumerate([0] * 9 + [1, 1]))
        want = prob.gp_poly.evaluate(assign) + prob.gv_poly.evaluate(assign) + 1.4
        assert min_over_aux(reduced, prob.aux_vars, assign) == pytest.approx(want, rel=1e-12)

    def test_deactivation_strictly_preferred(self, prob_small):
        # both components are strictly positive, so dropping an active
        # bit lowers the energy at every assignment even without bias
        for bits in itertools.product((0, 1), repeat=9):
            assign = dict(enumerate(bits + (1, 1)))
            on = prob_small.poly.evaluate(assign)
            assign[prob_small.x_p] = 0
            assign[prob_small.x_v] = 0
            assert prob_small.poly.evaluate(assign) < on


class TestSchedule:
    def test_groups_pair_bits_with_activation(self, prob6):
        sched = merged_schedule(prob6)
        width = sched.total_time / 2
        # variables below 0.5 at the bottom of each window's dip
        dipped = [{v for v in range(prob6.n) if sched.s_at((w + 0.2) * width, v) < 0.5}
                  for w in range(2)]
        aux = set(prob6.aux_vars)
        assert dipped[0] == set(prob6.enc1.vars + (prob6.x_p,)) | aux
        assert dipped[1] == set(prob6.enc2.vars + prob6.enc3.vars + (prob6.x_v,)) | aux

    @pytest.mark.parametrize("cycles,total", [(1, 23.0), (3, 115.0), (5, 207.0)])
    def test_default_times(self, prob6, cycles, total):
        sched = merged_schedule(prob6, cycles=cycles)
        assert sched.total_time == pytest.approx(total)
        assert total == pytest.approx(CYCLE_BASE_US * (2 * cycles - 1))

    def test_full_reversal_and_reinit_flag(self, prob6):
        sched = merged_schedule(prob6, reinitialize=False)
        # each window dips all the way to s = 0
        assert min(f for path in sched.variable_paths.values() for _, f in path) == 0.0
        assert not sched.reinitialize
        assert merged_schedule(prob6).reinitialize

    def test_policy_block_moves_first(self, prob6):
        sched = merged_schedule(prob6)
        half = sched.total_time / 2
        # window bottoms: each group's fraction dips to the reversal
        # target inside its own window and pins at 1 elsewhere
        assert sched.s_at(0.2 * half, prob6.x_p) < 0.5
        assert sched.s_at(half + 0.2 * half, prob6.x_p) == pytest.approx(1.0)
        assert sched.s_at(0.2 * half, prob6.x_v) == pytest.approx(1.0)
        assert sched.s_at(half + 0.2 * half, prob6.x_v) < 0.5


class TestGreedyOracle:
    def test_single_read_from_truth(self, prob6):
        greedy = functools.partial(greedy_merged_sampler, prob6)
        state = multi_anneal_ppi(prob6, sampler=greedy, reads=1, init=TRUTH)
        # policy lands on the grid argmin one step below the FOC value
        assert state.x1 == 0.3125
        assert abs(state.x1 - TRUTH[0]) <= prob6.enc1.scale
        # valuation lands on the joint grid argmin; x2 moves half a
        # step, x3 rides the correlated valley to 2.5 steps below the
        # true value (the argmin, not a failure to stay put)
        assert state.x2 == pytest.approx(COMB6[1], rel=1e-14)
        assert state.x3 == pytest.approx(COMB6[2], rel=1e-14)
        assert abs(state.x2 - TRUTH[1]) <= abs(prob6.enc2.scale)
        assert abs(state.x3 - TRUTH[2]) <= 3 * prob6.enc3.scale

    def test_valuation_argmin_matches_standalone_brute_force(self, prob6):
        # same anchor, standalone registers: the brute-force spectrum
        # of the valuation objective alone must pick the same point
        enc2 = BinaryEncoding(0, 7, S2_6)
        enc3 = BinaryEncoding(7, 7, S3_6)
        poly, _ = build_gv_pbo(prob6.x1_anchor, enc2, enc3, prob6.grid)
        model, off = to_qubo(poly)
        res = brute_force(model)
        best = res.argmin_states[0]
        assign = {v: best[v] for v in range(len(best))}
        assert enc2.decode_assignment(assign) == pytest.approx(COMB6[1], rel=1e-14)
        assert enc3.decode_assignment(assign) == pytest.approx(COMB6[2], rel=1e-14)
        del off

    def test_one_shot_oracle_matches_combinatorial(self):
        # anchored at the classical run's terminal state, the grouped
        # oracle must reproduce its valuation argmin exactly
        enc2 = BinaryEncoding(0, 7, S2_6)
        enc3 = BinaryEncoding(7, 7, S3_6)
        comb = combinatorial_ppi(DEFAULT_PARAMS, encodings=(enc2, enc3), fixed_iterations=2)
        assert (comb.x1, comb.x2, comb.x3) == pytest.approx(COMB6, rel=1e-14)

        prob = build_merged_problem(DEFAULT_PARAMS, anchors=(comb.x1, comb.x3))
        state = one_shot_ppi(
            prob, sampler=functools.partial(greedy_merged_sampler, prob), reads=3, cycles=2,
            keep_fraction=0.4,
        )
        assert state.x2 == comb.x2
        assert state.x3 == comb.x3
        # policy argmin: exhaustive scan of the 7-bit register
        vals = []
        for k in range(2**7):
            assign = {v: (k >> i) & 1 for i, v in enumerate(prob.enc1.vars)}
            vals.append((prob.gp_poly.evaluate(assign), k))
        best = min(vals)[1]
        assert state.x1 == best * prob.enc1.scale
        assert abs(state.x1 - analytic_policy_update(comb.x3, DEFAULT_PARAMS)) <= prob.enc1.scale

    def test_driver_matches_direct_greedy_walk(self, prob_small):
        init = (0.5, -0.5, 0.5)
        greedy = functools.partial(greedy_merged_sampler, prob_small)
        state = multi_anneal_ppi(prob_small, sampler=greedy, reads=2, init=init)
        direct = sequential_greedy(
            prob_small.poly,
            groups=prob_small.groups,
            initial=prob_small.encode_initial(init)[: prob_small.primary_count],
            cycles=1,
            activations=(prob_small.x_p, prob_small.x_v),
        )
        assert prob_small.decode_states([direct])[0] == (state.x1, state.x2, state.x3)
        assert direct[prob_small.x_p] == 0
        assert direct[prob_small.x_v] == 0

    def test_chained_reads_reach_fixed_point(self, prob_small):
        sched = merged_schedule(prob_small, reinitialize=False)
        req = SamplerRequest(prob_small.qubo, sched, reads=4,
                             initial_state=prob_small.encode_initial())
        ss = greedy_merged_sampler(prob_small, req)
        states = ss.expand_states()
        assert len(states) == 4
        assert len(set(states)) == 1

    def test_one_shot_reads_share_one_walk(self, prob_small):
        sched = merged_schedule(prob_small, cycles=2, reinitialize=True)
        with mock.patch.object(merged, "sequential_greedy", wraps=sequential_greedy) as walk:
            ss = greedy_merged_sampler(prob_small, SamplerRequest(prob_small.qubo, sched, reads=5))
        assert walk.call_count == 1
        assert len(ss.records) == 1
        assert ss.records[0].occurrences == 5
        assert ss.records[0].energy == prob_small.poly.evaluate(ss.records[0].state)

    @pytest.mark.parametrize("init", [(0.5, -0.5, 0.5), (0.1, -30.0, 2.5), TRUTH])
    def test_chain_stopped_at_fixed_point_matches_full_chain(self, prob_small, init):
        reads = 6
        initial = prob_small.encode_initial(init)
        start = initial[: prob_small.primary_count]
        full, cur = [], start
        for _ in range(reads):
            cur = sequential_greedy(prob_small.poly, prob_small.groups, cur, cycles=1,
                                    activations=(prob_small.x_p, prob_small.x_v))
            full.append(cur)
        sched = merged_schedule(prob_small, reinitialize=False)
        req = SamplerRequest(prob_small.qubo, sched, reads=reads, initial_state=initial)
        with mock.patch.object(merged, "sequential_greedy", wraps=sequential_greedy) as walk:
            ss = greedy_merged_sampler(prob_small, req)
        assert walk.call_count < reads
        # _assemble's order: energy, then occurrences (most first), then state
        counts = {s: full.count(s) for s in full}
        assert ss.expand_states() == sorted(
            full, key=lambda s: (prob_small.poly.evaluate(s), -counts[s], s))

    def test_determinism(self, prob_small):
        greedy = functools.partial(greedy_merged_sampler, prob_small)
        a = multi_anneal_ppi(prob_small, sampler=greedy, reads=2)
        b = multi_anneal_ppi(prob_small, sampler=greedy, reads=2)
        assert (a.x1, a.x2, a.x3) == (b.x1, b.x2, b.x3)


class TestGreedySkipsReduction:
    """The greedy engine walks the cubic form, so a greedy merged solve
    never quadratizes and never builds the QUBO."""

    GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

    @pytest.fixture
    def forbid_reduction(self):
        def forbidden(*args, **kwargs):
            raise AssertionError("the merged reduction was built")

        with mock.patch.object(merged, "to_qubo", forbidden), \
                mock.patch.object(merged, "quadratize_full", forbidden), \
                mock.patch.object(quadratize, "_ntr_terms", forbidden), \
                mock.patch.object(quadratize, "_ptr_terms", forbidden):
            yield

    def test_reading_the_qubo_hits_the_patches(self, forbid_reduction):
        prob = build_merged_problem(DEFAULT_PARAMS, encodings=default_merged_encodings(DEFAULT_PARAMS, 2, 2, 2))
        with pytest.raises(AssertionError, match="reduction was built"):
            prob.qubo

    @pytest.mark.parametrize("case", ["oneshot_greedy", "multi_anneal_greedy_narrow"])
    def test_greedy_solve_matches_pins(self, case, forbid_reduction, tmp_path, capsys):
        with open(os.path.join(self.GOLDEN, "cases.json")) as fh:
            flags = json.load(fh)[case]
        assert main(["solve", *flags, "--out-dir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        pinned = sorted(os.listdir(os.path.join(self.GOLDEN, case)))
        assert pinned
        for fname in pinned:
            with open(os.path.join(self.GOLDEN, case, fname), "rb") as fh:
                assert (tmp_path / fname).read_bytes() == fh.read(), fname


class TestLosses:
    def test_values_at_truth(self, prob6):
        out = losses(TRUTH, prob6, reference=TRUTH, anchor=TRUTH)
        assert out.unadjusted_loss == pytest.approx(UNADJ_AT_TRUTH, rel=1e-12)
        assert out.adjusted_loss == pytest.approx(ADJ_AT_TRUTH, rel=1e-12)
        # anchor == reference makes the two measures coincide
        assert out.adjusted_loss == out.minimum_loss
        assert out.minimum_loss[1] == out.minimum_loss[2]

    def test_reference_optional(self, prob6):
        out = losses(TRUTH, prob6)
        assert out.minimum_loss is None
        assert out.adjusted_loss == pytest.approx(ADJ_AT_TRUTH, rel=1e-12)

    def test_bit_evaluation_matches_continuous(self, prob6):
        # the quadratic surrogates are exact on grid points, so the
        # reconstructed components equal the continuous formulas
        state = prob6.encode_initial(TRUTH)
        (lp,), (lv,) = prob6.component_losses([state])
        assert lp == pytest.approx(GP_TRUTH_BITS, rel=1e-14)
        assert lv == pytest.approx(GV_TRUTH_BITS, rel=1e-14)
        out = losses(prob6.decode_states([state])[0], prob6)
        assert out.unadjusted_loss == pytest.approx(lp + lv, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_batched_losses_match_poly_evaluate(self, any_problem, data):
        # a few distinct states repeated, with the all-zero state among them
        n = any_problem.n
        zero = (0,) * n
        pool = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple),
                                  min_size=1, max_size=8))
        states = data.draw(st.lists(st.sampled_from(pool + [zero]), max_size=63))
        states.insert(data.draw(st.integers(0, len(states))), zero)
        g_p, g_v = any_problem.component_losses(states)
        assert g_p.shape == g_v.shape == (len(states),)
        for state, lp, lv in zip(states, g_p.tolist(), g_v.tolist()):
            assign = {v: state[v] for v in range(any_problem.primary_count)}
            for got, poly in ((lp, any_problem.gp_poly), (lv, any_problem.gv_poly)):
                assert struct.pack("<d", got) == struct.pack("<d", poly.evaluate(assign))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ensemble_scoring_matches_per_read_reference(self, any_problem, data):
        # the batched decode against each register's decode_assignment,
        # and losses (policy surrogates fitted once per anchor) against a
        # per-read refit
        n = any_problem.primary_count
        states = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple),
                                    min_size=1, max_size=16))
        decoded = any_problem.decode_states(states)
        assert len(decoded) == len(states)
        for got, state in zip(decoded, states):
            assign = dict(enumerate(state))
            want = tuple(enc.decode_assignment(assign)
                         for enc in (any_problem.enc1, any_problem.enc2, any_problem.enc3))
            assert _bytes(got) == _bytes(want)
            assert _bytes(any_problem.decode_states([state])[0]) == _bytes(want)

        def inside(enc, lo_frac):
            top = enc.scale * enc.max_int
            return st.floats(lo_frac, 1.0).map(lambda f: f * top)

        anchor = (data.draw(st.floats(0.01, 0.99)), data.draw(inside(any_problem.enc2, 0.0)),
                  data.draw(inside(any_problem.enc3, 0.01)))
        reference = data.draw(st.sampled_from([None, TRUTH]))
        gam_a = gamma_constants(anchor[0], any_problem.grid)
        gam_r = gamma_constants(TRUTH[0], any_problem.grid)
        for x1, x2, x3 in decoded:
            out = losses((x1, x2, x3), any_problem, reference=reference, anchor=anchor)
            want_unadj = _gp_refit(x1, any_problem.x3_anchor) + any_problem.gammas.evaluate(x2, x3)
            want_adj = (_gp_refit(x1, anchor[2]), gam_a.evaluate(x2, anchor[2]),
                        gam_a.evaluate(anchor[1], x3))
            assert _bytes((out.unadjusted_loss,)) == _bytes((want_unadj,))
            assert _bytes(out.adjusted_loss) == _bytes(want_adj)
            if reference is None:
                assert out.minimum_loss is None
            else:
                want_min = (_gp_refit(x1, TRUTH[2]), gam_r.evaluate(x2, TRUTH[2]),
                            gam_r.evaluate(TRUTH[1], x3))
                assert _bytes(out.minimum_loss) == _bytes(want_min)

    def test_local_minimality_at_truth(self, prob6):
        # flipping any single bit of the truth-snapped state cannot
        # lower that parameter's adjusted loss below its truth value
        at = losses(TRUTH, prob6, anchor=TRUTH)
        base = prob6.encode_initial(TRUTH)
        base_decoded = prob6.decode_states([base])[0]
        for v in range(prob6.primary_count - 2):
            flipped = list(base)
            flipped[v] ^= 1
            cand = prob6.decode_states([flipped])[0]
            out = losses(cand, prob6, anchor=TRUTH)
            for p in range(3):
                if abs(cand[p] - base_decoded[p]) > 1e-15:
                    assert out.adjusted_loss[p] >= at.adjusted_loss[p] - 1e-12

    def test_out_of_range_rejected(self, prob6):
        with pytest.raises(ValueError, match="x1"):
            losses((1.5, TRUTH[1], TRUTH[2]), prob6)
        with pytest.raises(ValueError, match="x2"):
            losses((TRUTH[0], 1.0, TRUTH[2]), prob6)
        with pytest.raises(ValueError, match="x3"):
            losses((TRUTH[0], TRUTH[1], -0.5), prob6)

    def test_nonfinite_losses_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            AnnealOutcome((0.3, -18.0, 1.4), float("inf"), (0.0, 0.0, 0.0))

    def test_keep_count(self):
        # post-selection keeps ceil(reads * fraction) reads, at least one
        assert len(_keep_lowest([0.0] * 200, 0.1)) == 20
        assert len(_keep_lowest([0.0] * 100, 0.1)) == 10
        assert len(_keep_lowest([0.0] * 5, 0.1)) == 1
        assert len(_keep_lowest([0.0] * 3, 0.4)) == 2
        assert len(_keep_lowest([0.0] * 3, 1.0)) == 3
        for fraction in (0.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="keep_fraction"):
                _keep_lowest([0.0] * 10, fraction)


class TestMultiAnneal:
    def test_validation(self, prob_small):
        with pytest.raises(ValueError, match="reads"):
            multi_anneal_ppi(prob_small, reads=0)
        with pytest.raises(ValueError, match="reinitialize"):
            multi_anneal_ppi(prob_small, schedule=merged_schedule(prob_small, reinitialize=True))

    def test_heuristic_smoke(self, prob_small):
        state = multi_anneal_ppi(prob_small, reads=10, seed=3)
        again = multi_anneal_ppi(prob_small, reads=10, seed=3)
        assert (state.x1, state.x2, state.x3) == (again.x1, again.x2, again.x3)
        assert state.iteration == 10
        assert len(state.loss_history) == 10
        assert all(math.isfinite(v) for v in state.loss_history)
        assert 0.0 < state.x1 < 1.0
        assert 2 * TRUTH[1] <= state.x2 <= 0.0
        assert 0.0 <= state.x3 <= 2 * TRUTH[2]

    @staticmethod
    def stub(states_and_counts):
        """A sampler returning these (state, occurrences) records."""
        def sampler(req):
            records = tuple(SampleRecord(s, 0.0, c) for s, c in states_and_counts)
            return SampleSet(records)
        return sampler

    def test_policy_pick_skips_degenerate_reads(self, prob_small):
        at_zero = prob_small.encode_initial((0.0, TRUTH[1], TRUTH[2]))
        inside = prob_small.encode_initial((0.875, TRUTH[1], 0.5))
        g_p, g_v = prob_small.component_losses([at_zero, inside])
        # the lowest policy loss sits on the read that decodes x1 = 0
        assert g_p[0] < g_p[1]
        sampler = self.stub([(at_zero, 2), (inside, 1)])
        state = multi_anneal_ppi(prob_small, sampler=sampler, reads=3)
        assert state.x1 == prob_small.decode_states([inside])[0][0] == 0.875
        # the valuation pick still takes the lowest read of all
        lowest_v = (at_zero, inside)[int(np.argmin(g_v))]
        assert (state.x2, state.x3) == prob_small.decode_states([lowest_v])[0][1:]

    def test_all_degenerate_reads_raise(self, prob_small):
        at_zero = prob_small.encode_initial((0.0, TRUTH[1], TRUTH[2]))
        also_zero = prob_small.encode_initial((0.0, TRUTH[1], 0.5))
        sampler = self.stub([(at_zero, 1), (also_zero, 2)])
        with pytest.raises(DegenerateEstimateError, match="x1"):
            multi_anneal_ppi(prob_small, sampler=sampler, reads=3)


class TestOneShot:
    def test_validation(self, prob_small):
        with pytest.raises(ValueError, match="reads"):
            one_shot_ppi(prob_small, reads=0)
        with pytest.raises(ValueError, match="cycles"):
            one_shot_ppi(prob_small, cycles=0)

    def test_heuristic_smoke(self, prob_small):
        outs = one_shot_ensemble(prob_small, reads=40, cycles=2, seed=7, reference=TRUTH)
        assert len(outs) == 40
        for o in outs:
            assert math.isfinite(o.unadjusted_loss)
            assert o.minimum_loss is not None
        again = one_shot_ensemble(prob_small, reads=40, cycles=2, seed=7, reference=TRUTH)
        assert [o.params for o in outs] == [o.params for o in again]

    def test_ppi_shape(self, prob_small):
        state = one_shot_ppi(prob_small, reads=30, cycles=2, seed=1)
        assert state.iteration == 2
        assert len(state.loss_history) == 3
        assert 0.0 < state.x1 < 1.0


class TestEnsembleCorrelations:
    def test_adjusted_loss_ranks_errors(self, prob6):
        outs = one_shot_ensemble(prob6, reads=200, cycles=3, seed=0, reference=TRUTH)
        errs = np.abs(np.array([o.params for o in outs]) - np.array(TRUTH))
        adj = np.array([o.adjusted_loss for o in outs])
        mins = np.array([o.minimum_loss for o in outs])
        unadj = np.array([o.unadjusted_loss for o in outs])
        for p in range(3):
            assert spearman(adj[:, p], errs[:, p]) >= 0.8
            assert spearman(mins[:, p], errs[:, p]) >= 0.9
        # the raw energy is dominated by the valuation scale: it tracks
        # x2 strongly and x1 barely at all
        assert abs(spearman(unadj, errs[:, 0])) < 0.3
        assert spearman(unadj, errs[:, 1]) >= 0.8
        assert spearman(adj[:, 0], errs[:, 0]) > spearman(unadj, errs[:, 0])
        assert spearman(adj[:, 2], errs[:, 2]) > spearman(unadj, errs[:, 2])

    def test_final_estimate_in_band(self, prob6):
        state = one_shot_ppi(prob6, reads=200, cycles=3, seed=0)
        rel = [abs(g - t) / abs(t) for g, t in zip((state.x1, state.x2, state.x3), TRUTH)]
        # post-selected averages land within a few percent; the bound
        # is loose on purpose, the published hardware means are 3-5%
        assert all(r < 0.06 for r in rel)
