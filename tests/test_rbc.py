"""Growth-model benchmark, objective construction, and iteration drivers."""

import csv
import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealdp.bqm import CapacityError, brute_force
from annealdp.engines import SampleRecord, SampleSet, heuristic_anneal
from annealdp.merged import build_merged_problem, default_merged_encodings
from annealdp.pbf import BinaryEncoding, LogCoefficients, Poly, ln_1mx_poly, ln_x_poly, to_qubo
from annealdp.rbc import (
    COLLOCATION_MAX_NODES,
    DEFAULT_PARAMS,
    CollocationGrid,
    GammaConstants,
    PpiState,
    RbcParams,
    analytic_policy_update,
    build_gp_pbo,
    _keep_lowest,
    build_gv_pbo,
    classical_ppi,
    closed_form_step,
    collocation_grid,
    combinatorial_ppi,
    default_valuation_encodings,
    fit_log_coefficients,
    gamma_constants,
    hybrid_ppi,
    oracle_sampler,
    simulate_consumption,
    spanning_scale,
    true_parameters,
    write_consumption_csv,
    write_iteration_csv,
)
from support import poly_approx_eq

AB = 0.33 * 0.95

# Frozen reference values for the default calibration (normalized chain).
KBAR = 0.17705807534879062
E_LNZ_STATIONARY = 2.0066295285050782e-05
TRUTH = (0.3135, -18.116633445402133, 1.4566642388929352)
ALG1_FIXED2 = (0.3112428489077642, -18.128433813540788, 1.4414371661060008)
ALG2_FIXED2 = (0.3114751953775199, -18.130000000000003, 1.44)


def convex_argmin(df, lo, hi, tol=1e-14):
    """Argmin of a smooth strictly convex function via sign bisection
    on its derivative; function-value search cannot localize a flat
    quadratic bottom past sqrt(eps)."""
    a, b = lo, hi
    assert df(a) < 0.0 < df(b)
    while b - a > tol:
        mid = 0.5 * (a + b)
        if df(mid) < 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


@pytest.fixture(scope="module")
def grid():
    return collocation_grid()


@pytest.fixture(scope="module")
def alg2_fixed2():
    return combinatorial_ppi(fixed_iterations=2)


class TestParams:
    def test_default_rows_stochastic(self):
        for row in DEFAULT_PARAMS.transition:
            assert abs(sum(row) - 1.0) < 1e-12

    def test_printed_middle_row_rejected(self):
        # the unnormalized source matrix is off by 1e-4 in its middle row
        raw = (
            (0.9727, 0.0273, 0.0, 0.0, 0.0),
            (0.0041, 0.9806, 0.0153, 0.0, 0.0),
            (0.0, 0.0082, 0.9837, 0.0082, 0.0),
            (0.0, 0.0, 0.0153, 0.9806, 0.0041),
            (0.0, 0.0, 0.0, 0.0273, 0.9727),
        )
        assert abs(sum(raw[2]) - 1.0) > 1e-5
        with pytest.raises(ValueError, match="row 2"):
            RbcParams(transition=raw)

    def test_negative_entry_rejected(self):
        rows = [list(r) for r in DEFAULT_PARAMS.transition]
        rows[0][0] += rows[0][1]
        rows[0][1] = -DEFAULT_PARAMS.transition[0][1]
        with pytest.raises(ValueError, match="negative"):
            RbcParams(transition=tuple(tuple(r) for r in rows))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            RbcParams(transition=((1.0,),) * 5)

    def test_z_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            RbcParams(z_grid=(1.0, 0.99, 1.01, 1.02, 1.03))

    @pytest.mark.parametrize("field,value", [("alpha", 0.0), ("alpha", 1.0), ("beta", 1.0), ("beta", -0.1)])
    def test_share_bounds(self, field, value):
        with pytest.raises(ValueError):
            RbcParams(**{field: value})

    def test_k_bar(self):
        assert DEFAULT_PARAMS.k_bar == pytest.approx(KBAR, rel=1e-14)
        assert DEFAULT_PARAMS.k_bar == pytest.approx(AB ** (1.0 / 0.67), rel=1e-14)

    def test_stationary_matches_power_iteration(self):
        p = np.asarray(DEFAULT_PARAMS.transition)
        pi = np.full(5, 0.2)
        for _ in range(20000):
            pi = pi @ p
        pi /= pi.sum()
        assert np.allclose(DEFAULT_PARAMS.stationary(), pi, atol=1e-12)

    def test_stationary_symmetric_and_normalized(self):
        pi = DEFAULT_PARAMS.stationary()
        assert pi.sum() == pytest.approx(1.0, abs=1e-14)
        assert pi[0] == pytest.approx(pi[4], rel=1e-10)
        assert pi[1] == pytest.approx(pi[3], rel=1e-10)
        assert pi[2] == max(pi)

    def test_expected_log_z(self):
        assert DEFAULT_PARAMS.expected_log_z() == pytest.approx(E_LNZ_STATIONARY, rel=1e-10)

    def test_conditional_expected_log_z(self):
        e = DEFAULT_PARAMS.conditional_expected_log_z()
        direct = np.asarray(DEFAULT_PARAMS.transition) @ np.log(DEFAULT_PARAMS.z_grid)
        assert np.array_equal(e, direct)
        # persistence keeps the conditional mean ordered with the state
        assert all(a < b for a, b in zip(e, e[1:]))


class TestClosedForm:
    def test_resource_split_exact(self):
        c, k_next = closed_form_step(0.2, 3)
        y = DEFAULT_PARAMS.z_grid[3] * 0.2 ** 0.33
        assert c == pytest.approx((1.0 - AB) * y, rel=1e-15)
        assert k_next == pytest.approx(AB * y, rel=1e-15)
        assert c + k_next == pytest.approx(y, rel=1e-15)

    def test_steady_state_is_fixed_point(self):
        _, k_next = closed_form_step(KBAR, 2)
        assert k_next == pytest.approx(KBAR, rel=1e-12)

    def test_convergence_from_below(self):
        k = 0.5 * KBAR
        for _ in range(200):
            _, k = closed_form_step(k, 2)
        assert k == pytest.approx(KBAR, rel=1e-12)

    def test_bad_capital(self):
        with pytest.raises(ValueError, match="positive"):
            closed_form_step(0.0, 2)

    def test_bad_z_index(self):
        with pytest.raises(ValueError, match="z_index"):
            closed_form_step(0.1, 5)


class TestTrueParameters:
    def test_frozen_values(self):
        x1, x2, x3 = true_parameters()
        assert x1 == AB
        assert x3 == pytest.approx(1.0 / (1.0 - AB), rel=1e-15)
        assert x2 == pytest.approx(TRUTH[1], rel=1e-12)

    def test_intercept_against_independent_stationary(self):
        # independent chain aggregation: long power iteration, plain formula
        p = np.asarray(DEFAULT_PARAMS.transition)
        pi = np.full(5, 0.2)
        for _ in range(20000):
            pi = pi @ p
        pi /= pi.sum()
        e = float(pi @ np.log(DEFAULT_PARAMS.z_grid))
        x3 = 1.0 / (1.0 - AB)
        x2 = (math.log(1.0 - AB) + 0.95 * x3 * e + AB * x3 * math.log(AB)) / 0.05
        assert true_parameters()[1] == pytest.approx(x2, rel=1e-12)


class TestComputedOnce:
    """The closed form and the policy-free part of the gamma constants are
    computed once per params instance and once per grid; repeated calls
    return the same floats."""

    def test_repeated_calls_give_identical_tuples(self):
        params = RbcParams()
        grid = collocation_grid(params)
        first = true_parameters(params)
        assert true_parameters(params) == first
        assert true_parameters(params) == true_parameters(RbcParams()) == true_parameters()
        gam = dataclasses.astuple(gamma_constants(0.3135, grid))
        assert dataclasses.astuple(gamma_constants(0.3135, grid)) == gam
        assert dataclasses.astuple(gamma_constants(0.3135, collocation_grid(RbcParams()))) == gam

    def test_closed_form_eigen_solve_runs_once(self, monkeypatch):
        params = RbcParams()
        calls = []
        stationary = RbcParams.stationary
        monkeypatch.setattr(RbcParams, "stationary",
                            lambda self: calls.append(self) or stationary(self))
        for _ in range(3):
            true_parameters(params)
            params.expected_log_z()
        assert len(calls) == 1

    def test_cached_gamma_inputs_equal_a_fresh_computation(self, grid):
        # the uncached expression of the policy-free node arrays
        p = grid.params
        u = grid.log_y()
        e_cond = (np.asarray(p.transition) @ np.log(p.z_grid))[grid.z_index()]
        zeta = p.beta * e_cond + (p.alpha * p.beta - 1.0) * u
        x1 = 0.27
        w = -zeta - p.alpha * p.beta * math.log(x1)
        t = math.log(1.0 - x1) + u
        gam = gamma_constants(x1, grid)
        assert gam.gamma0 == float(u @ u)
        assert gam.gamma3 == float(-2.0 * w @ t)
        assert gam.gamma33 == float(w @ w)
        assert gam.zeta == float(zeta.sum())

    def test_conditional_expectation_is_read_only(self):
        e = RbcParams().conditional_expected_log_z()
        with pytest.raises(ValueError):
            e[0] = 1.0

    def test_params_from_lists(self):
        # lists make the params unhashable; the per-instance cache needs
        # no hash
        listed = RbcParams(z_grid=list(DEFAULT_PARAMS.z_grid),
                           transition=[list(row) for row in DEFAULT_PARAMS.transition])
        with pytest.raises(TypeError):
            hash(listed)
        assert true_parameters(listed) == true_parameters(DEFAULT_PARAMS)
        assert listed.expected_log_z() == DEFAULT_PARAMS.expected_log_z()
        grid = collocation_grid(listed)
        assert (dataclasses.astuple(gamma_constants(0.3, grid))
                == dataclasses.astuple(gamma_constants(0.3, collocation_grid())))
        prob = build_merged_problem(listed)
        ref = build_merged_problem()
        assert list(prob.qubo.q.items()) == list(ref.qubo.q.items())
        assert prob.offset == ref.offset


class TestPolicyUpdate:
    @pytest.mark.parametrize("x3_bar", [0.5, 1.0, 1.4566, 2.0])
    def test_matches_continuous_argmin(self, x3_bar):
        kappa = AB * x3_bar

        def dg(x):
            return 1.0 / (1.0 - x) - kappa / x

        xstar = convex_argmin(dg, 1e-6, 1.0 - 1e-6)
        assert abs(analytic_policy_update(x3_bar) - xstar) < 1e-10

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ValueError, match="positive"):
            analytic_policy_update(0.0)

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_stays_interior_and_monotone(self, x3_bar):
        x1 = analytic_policy_update(x3_bar)
        assert 0.0 < x1 < 1.0
        assert analytic_policy_update(x3_bar + 0.5) > x1


class TestLogFit:
    @pytest.mark.parametrize("x3_bar", [0.5, 1.0, 1.4566642388929352, 2.0])
    def test_surrogate_stationary_at_foc(self, x3_bar):
        c = fit_log_coefficients(x3_bar)
        kappa = AB * x3_bar
        v = analytic_policy_update(x3_bar)
        assert -c.at1 - kappa * (c.a1 + 2.0 * c.a2 * v) == pytest.approx(0.0, abs=1e-12)

    def test_value_and_curvature_match(self):
        x3_bar = 1.4566642388929352
        v = analytic_policy_update(x3_bar)
        c = fit_log_coefficients(x3_bar)
        assert c.a0 + c.a1 * v + c.a2 * v * v == pytest.approx(math.log(v), rel=1e-12)
        assert c.at0 + c.at1 * v == pytest.approx(math.log(1.0 - v), rel=1e-12)
        assert 2.0 * c.a2 == pytest.approx(-1.0 / (v * v), rel=1e-12)

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ValueError):
            fit_log_coefficients(-1.0)


class TestGpPbo:
    # x1 on 7 bits with scale 2^-7, covering (0, 1)
    ENC = BinaryEncoding(0, 7, 2.0 ** -7)

    def test_composition_identity(self):
        enc = self.ENC
        coeffs = LogCoefficients()  # stock table, not the anchored fit
        poly = build_gp_pbo(1.2, enc, coeffs)
        kappa = AB * 1.2
        direct = -ln_1mx_poly(enc, coeffs) - kappa * ln_x_poly(enc, coeffs)
        assert poly_approx_eq(poly, direct, tol=1e-12)

    def test_quadratic_in_policy_bits(self):
        enc = self.ENC
        poly = build_gp_pbo(1.4566642388929352, enc)
        assert poly.degree == 2
        assert set(poly.variables()) <= set(enc.vars)

    @pytest.mark.parametrize("x3_bar", [0.5, 1.4566642388929352, 2.0])
    def test_all_zero_value_positive(self, x3_bar):
        enc = self.ENC
        coeffs = fit_log_coefficients(x3_bar)
        poly = build_gp_pbo(x3_bar, enc, coeffs)
        zeros = {v: 0 for v in enc.vars}
        expected = -(coeffs.at0 + AB * x3_bar * coeffs.a0)
        assert poly.evaluate(zeros) == pytest.approx(expected, rel=1e-12)
        assert poly.evaluate(zeros) > 0.0

    @pytest.mark.parametrize("x3_bar", [0.5, 0.9, 1.3, 1.4566642388929352, 1.8, 2.2])
    def test_grid_argmin_within_one_step_of_foc(self, x3_bar):
        enc = self.ENC
        poly = build_gp_pbo(x3_bar, enc)
        best_m, best_e = None, math.inf
        for m in range(enc.max_int + 1):
            assign = {enc.var_base + j: (m >> j) & 1 for j in range(enc.bit_count)}
            e = poly.evaluate(assign)
            if e < best_e:
                best_m, best_e = m, e
        decoded = enc.scale * best_m
        assert abs(decoded - analytic_policy_update(x3_bar)) <= enc.scale + 1e-15

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ValueError):
            build_gp_pbo(0.0, self.ENC)


class TestGamma:
    def test_gamma22_exact(self, grid):
        gam = gamma_constants(0.3135, grid)
        assert gam.gamma22 == (1.0 - 0.95) ** 2

    def test_node_count(self, grid):
        assert gamma_constants(0.3, grid).node_count == 133 * 5

    def test_quadratic_matches_direct_residual_sum(self, grid):
        # independent recomputation straight from the definition
        rng = np.random.default_rng(5)
        p = grid.params
        u = grid.log_y()
        e_cond = p.conditional_expected_log_z()[grid.z_index()]
        for x1_bar in (0.2, 0.3135, 0.6):
            gam = gamma_constants(x1_bar, grid)
            w = (1.0 - AB) * u - 0.95 * e_cond - AB * math.log(x1_bar)
            t = math.log(1.0 - x1_bar) + u
            for _ in range(5):
                x2 = float(rng.uniform(-30.0, 5.0))
                x3 = float(rng.uniform(0.0, 3.0))
                direct = float(np.sum(((1.0 - 0.95) * x2 + w * x3 - t) ** 2))
                assert gam.evaluate(x2, x3) == pytest.approx(direct, rel=1e-9)

    def test_zeta_aggregate(self, grid):
        p = grid.params
        u = grid.log_y()
        e_cond = p.conditional_expected_log_z()[grid.z_index()]
        expected = float(np.sum(0.95 * e_cond + (AB - 1.0) * u))
        assert gamma_constants(0.3135, grid).zeta == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("x1_bar", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_boundary_policy(self, x1_bar, grid):
        with pytest.raises(ValueError):
            gamma_constants(x1_bar, grid)

    def test_finiteness_guard(self):
        with pytest.raises(ValueError, match="finite"):
            GammaConstants(math.nan, 0, 0, 0, 0, 0.0025, 0, 0, 5)


def gv_poly_by_products(x1_bar, enc2, enc3, grid):
    """The valuation quadratic through six Poly products and sums: the
    reference build_gv_pbo's direct coefficients must equal bit for bit,
    key order included."""
    gam = gamma_constants(x1_bar, grid)
    x2p = enc2.value_poly()
    x3p = enc3.value_poly()
    return (Poly.constant(gam.gamma0 + gam.gamma1)
            + gam.gamma2 * x2p + gam.gamma3 * x3p + gam.gamma23 * (x2p * x3p)
            + (gam.node_count * gam.gamma22) * (x2p * x2p) + gam.gamma33 * (x3p * x3p))


# a register scale: None spans [0, 2x*], "fixed" is the 10-bit reference
# pair (-0.035, 0.003), a number is --s2/--s3 at its validated extremes
SCALES = st.sampled_from((None, "fixed", 1e-6, -1e-6, 1e3, -1e3))


class TestDirectValuationTerms:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), SCALES, SCALES,
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_matches_product_build(self, j2, j3, s2, s3, x1_bar):
        _, x2s, x3s = true_parameters()
        s2 = {None: spanning_scale(x2s, j2 + 1), "fixed": -0.035}.get(s2, s2)
        s3 = {None: spanning_scale(x3s, j3 + 1), "fixed": 0.003}.get(s3, s3)
        enc2 = BinaryEncoding(j2 + 2, j2 + 1, s2)
        enc3 = BinaryEncoding(2 * j2 + 3, j3 + 1, s3)
        grid = collocation_grid()
        got, _ = build_gv_pbo(x1_bar, enc2, enc3, grid)
        want = gv_poly_by_products(x1_bar, enc2, enc3, grid)
        assert ([(k, c.hex()) for k, c in got.terms.items()]
                == [(k, c.hex()) for k, c in want.terms.items()])


class TestGvPbo:
    def test_encoding_overlap_rejected(self, grid):
        enc2 = BinaryEncoding(0, 6, -0.5)
        enc3 = BinaryEncoding(5, 6, 0.05)
        with pytest.raises(ValueError, match="overlap"):
            build_gv_pbo(0.3, enc2, enc3, grid)

    def test_composition_identity(self, grid):
        enc2 = BinaryEncoding(0, 5, -0.9)
        enc3 = BinaryEncoding(5, 5, 0.09)
        poly, gam = build_gv_pbo(0.3135, enc2, enc3, grid)
        rng = np.random.default_rng(11)
        for _ in range(20):
            bits = {v: int(rng.integers(0, 2)) for v in (*enc2.vars, *enc3.vars)}
            x2 = enc2.decode_assignment(bits)
            x3 = enc3.decode_assignment(bits)
            assert poly.evaluate(bits) == pytest.approx(gam.evaluate(x2, x3), rel=1e-9)

    def test_all_zero_is_constant_block(self, grid):
        enc2, enc3 = default_valuation_encodings()
        poly, gam = build_gv_pbo(0.3135, enc2, enc3, grid)
        zeros = {v: 0 for v in (*enc2.vars, *enc3.vars)}
        assert poly.evaluate(zeros) == pytest.approx(gam.gamma0 + gam.gamma1, rel=1e-12)

    def test_quadratic(self, grid):
        enc2, enc3 = default_valuation_encodings()
        poly, _ = build_gv_pbo(0.3135, enc2, enc3, grid)
        assert poly.degree == 2

    def test_exhaustive_argmin_matches_nested_loop_oracle(self, grid):
        # second, independent brute force: plain nested loops on the
        # decoded grids evaluated through the aggregated quadratic
        enc2 = BinaryEncoding(0, 6, -0.56)
        enc3 = BinaryEncoding(6, 6, 0.048)
        poly, gam = build_gv_pbo(0.3135, enc2, enc3, grid)
        qubo, offset = to_qubo(poly)
        res = brute_force(qubo)
        state = res.argmin_states[0]
        assign = {v: state[v] for v in range(len(state))}
        got = (enc2.decode_assignment(assign), enc3.decode_assignment(assign))

        best, best_val = None, math.inf
        for m2 in range(enc2.max_int + 1):
            for m3 in range(enc3.max_int + 1):
                val = gam.evaluate(enc2.scale * m2, enc3.scale * m3)
                if val < best_val:
                    best, best_val = (enc2.scale * m2, enc3.scale * m3), val
        assert got == pytest.approx(best, rel=1e-12)
        assert res.min_energy + offset == pytest.approx(best_val, rel=1e-9)

    def test_argmin_near_encoded_truth(self, grid):
        # The conditional continuation term tilts the slope argmin a few
        # steps below the analytic value; the intercept lands on the
        # nearest encodable point.
        enc2, enc3 = default_valuation_encodings()
        poly, _ = build_gv_pbo(0.3135, enc2, enc3, grid)
        qubo, offset = to_qubo(poly)
        res = brute_force(qubo)
        state = res.argmin_states[0]
        assign = {v: state[v] for v in range(len(state))}
        x2 = enc2.decode_assignment(assign)
        x3 = enc3.decode_assignment(assign)
        truth_bits2 = enc2.nearest_bits(TRUTH[1])
        assert enc2.encode_value(truth_bits2) == pytest.approx(x2, rel=1e-12)
        assert abs(x3 - TRUTH[2]) <= 6 * abs(enc3.scale) + 1e-12


class TestClassicalPpi:
    def test_fixed_two_iterations_frozen(self):
        st = classical_ppi(fixed_iterations=2)
        assert st.as_tuple() == pytest.approx(ALG1_FIXED2, rel=1e-9)
        assert st.iteration == 2
        assert len(st.loss_history) == 2
        assert st.loss_history[1] <= st.loss_history[0] + 1e-12

    def test_error_profile(self):
        st = classical_ppi(fixed_iterations=2)
        errs = tuple(100.0 * abs(v / t - 1.0) for v, t in zip(st.as_tuple(), TRUTH))
        assert errs == pytest.approx((0.72, 0.0651, 1.0453), abs=0.01)
        # slope worst, intercept best
        assert errs[2] > errs[0] > errs[1]

    def test_state_invariants(self):
        with pytest.raises(ValueError, match="x1"):
            PpiState(1.5, 0.0, 1.0, 1)
        with pytest.raises(ValueError, match="iteration"):
            PpiState(0.5, 0.0, 1.0, -1)


class TestCombinatorialPpi:
    def test_fixed_two_iterations_frozen(self, alg2_fixed2):
        assert alg2_fixed2.as_tuple() == pytest.approx(ALG2_FIXED2, rel=1e-9)
        assert alg2_fixed2.iteration == 2

    def test_deterministic(self, alg2_fixed2):
        again = combinatorial_ppi(fixed_iterations=2)
        assert again.as_tuple() == alg2_fixed2.as_tuple()
        assert again.loss_history == alg2_fixed2.loss_history

    def test_default_encodings(self):
        enc2, enc3 = default_valuation_encodings()
        assert enc2.bit_count == 10 and enc3.bit_count == 10
        assert enc2.scale == -0.035 and enc3.scale == 0.003
        assert set(enc2.vars) | set(enc3.vars) == set(range(20))

    def test_default_scales_span_off_the_reference_width(self):
        # the reference pair at J = 9; elsewhere the merged registers'
        # spanning scale, so the top code decodes to 2 x*
        for j in range(1, 21):
            enc2, enc3 = default_valuation_encodings(j, j)
            if j == 9:
                assert (enc2.scale, enc3.scale) == (-0.035, 0.003)
                continue
            assert enc2.scale * enc2.max_int == pytest.approx(2 * TRUTH[1], rel=1e-15)
            assert enc3.scale * enc3.max_int == pytest.approx(2 * TRUTH[2], rel=1e-15)
            _, m2, m3 = default_merged_encodings(DEFAULT_PARAMS, 6, j, j)
            assert (enc2.scale, enc3.scale) == (m2.scale, m3.scale)

    def test_error_profile(self, alg2_fixed2):
        errs = tuple(100.0 * abs(v / t - 1.0) for v, t in zip(alg2_fixed2.as_tuple(), TRUTH))
        assert errs == pytest.approx((0.6459, 0.0738, 1.144), abs=0.01)
        assert errs[2] > errs[0] > errs[1]

    def test_reduced_encoding_converges(self, grid):
        enc2 = BinaryEncoding(0, 6, -0.56)
        enc3 = BinaryEncoding(6, 6, 0.048)
        st = combinatorial_ppi(encodings=(enc2, enc3), fixed_iterations=2)
        assert 0.0 < st.x1 < 1.0
        assert st.x2 == pytest.approx(TRUTH[1], rel=0.05)
        assert st.x3 == pytest.approx(TRUTH[2], rel=0.05)


class TestHybridPpi:
    def test_oracle_sampler_reproduces_grid_search(self, alg2_fixed2):
        st = hybrid_ppi(sampler=oracle_sampler)
        assert st.as_tuple() == alg2_fixed2.as_tuple()

    def test_heuristic_sampler_smoke(self):
        enc2 = BinaryEncoding(0, 6, -0.56)
        enc3 = BinaryEncoding(6, 6, 0.048)
        sampler = functools.partial(heuristic_anneal, sweeps=192)
        st = hybrid_ppi(sampler=sampler, encodings=(enc2, enc3), reads=30, seed=3)
        assert 0.0 < st.x1 < 1.0
        assert all(math.isfinite(l) for l in st.loss_history)
        again = hybrid_ppi(sampler=sampler, encodings=(enc2, enc3), reads=30, seed=3)
        assert again.as_tuple() == st.as_tuple()

    def test_keep_fraction_validation(self):
        with pytest.raises(ValueError, match="keep_fraction"):
            hybrid_ppi(keep_fraction=0.0)
        with pytest.raises(ValueError, match="reads"):
            hybrid_ppi(reads=0)

    def test_keeps_lowest_reads_in_record_order(self):
        # two distinct reads, 3 + 2 occurrences; keeping 60 % averages
        # the three lowest, the tie broken by record order
        enc2, enc3 = BinaryEncoding(0, 2, -1.0), BinaryEncoding(2, 2, 1.0)
        seen = []

        def sampler(req):
            seen.append(req)
            low, high = SampleRecord((1, 0, 0, 1), 1.0, 3), SampleRecord((0, 1, 1, 1), 1.0, 2)
            return SampleSet((low, high))

        st = hybrid_ppi(sampler=sampler, encodings=(enc2, enc3), iterations=1, reads=5,
                        keep_fraction=0.6, seed=4)
        assert (st.x2, st.x3) == (-1.0, 2.0)
        (req,) = seen
        assert (req.reads, req.seed, req.initial_state) == (5, 4, None)
        assert req.schedule.total_time == 20.0


def test_keep_lowest_is_stable_lowest_first():
    # the count rule and the fraction check are in test_merged's test_keep_count
    assert _keep_lowest([3.0, 1.0, 2.0, 1.0, 0.5], 0.6) == [4, 1, 3]
    assert _keep_lowest([2.0, 2.0, 2.0], 1.0) == [0, 1, 2]


class TestConsumption:
    def test_truth_paths_identical(self):
        sim = simulate_consumption(TRUTH[0])
        assert max(sim.rel_gap) < 1e-12
        assert sim.c_exact == sim.c_model

    def test_estimated_policy_gap_small_peaking_at_impact(self, alg2_fixed2):
        sim = simulate_consumption(alg2_fixed2.x1)
        gaps = sim.rel_gap
        assert all(g < 0.02 for g in gaps)
        # under-saving raises consumption but depresses output one period
        # later; the effects offset, so the gap peaks immediately and is
        # largest in the first post-shock period among all later ones
        post = gaps[1:]
        assert post.index(max(post)) == 0

    def test_default_shock_path(self):
        sim = simulate_consumption(0.3)
        assert sim.z_path == (2, 0, 0, 0, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("shock_period,want", [(0, (0, 0, 0)), (2, (2, 2, 0)), (5, (2, 2, 2))])
    def test_shock_period_bounds(self, shock_period, want):
        sim = simulate_consumption(0.3, periods=3, shock_period=shock_period)
        assert sim.z_path == want

    def test_gaps_computed_once(self):
        # the CSV writer reads one gap per row: a gap tuple rebuilt on
        # every read made a long simulation take time quadratic in periods
        sim = simulate_consumption(0.3, periods=50)
        assert sim.rel_gap is sim.rel_gap

    def test_resource_identity_along_exact_path(self):
        sim = simulate_consumption(0.3, periods=6)
        for t in range(5):
            assert sim.k_exact[t + 1] == pytest.approx(sim.c_exact[t] * AB / (1.0 - AB), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="x1_hat"):
            simulate_consumption(1.2)
        with pytest.raises(ValueError, match="shock_period"):
            simulate_consumption(0.3, shock_period=-1)
        with pytest.raises(ValueError, match="shock_index out of range"):
            simulate_consumption(0.3, periods=2, shock_index=9)
        with pytest.raises(ValueError, match="shock_index out of range"):
            simulate_consumption(0.3, shock_index=-1)
        with pytest.raises(ValueError, match="periods"):
            simulate_consumption(0.3, periods=0)
        with pytest.raises(ValueError, match="positive"):
            simulate_consumption(0.3, k0=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                simulate_consumption(0.3, k0=bad)

    def test_csv_roundtrip(self, tmp_path):
        sim = simulate_consumption(0.31)
        path = tmp_path / "consumption.csv"
        write_consumption_csv(str(path), sim)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        for t, row in enumerate(rows):
            assert int(row["period"]) == t
            assert float(row["c_exact"]) == sim.c_exact[t]
            assert float(row["rel_gap"]) == sim.rel_gap[t]

    def test_iteration_csv(self, tmp_path):
        history = []
        st = classical_ppi(fixed_iterations=2, history=history)
        path = tmp_path / "iters.csv"
        write_iteration_csv(str(path), {7: history, 9: [st]})
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["execution"], r["iteration"]) for r in rows] == [
            ("7", "1"), ("7", "2"), ("9", "2")]
        assert rows[1] == {**rows[2], "execution": "7"}
        assert float(rows[2]["x1"]) == st.x1
        assert float(rows[2]["err_x2_pct"]) == pytest.approx(
            100.0 * abs(st.x2 / TRUTH[1] - 1.0), rel=1e-12
        )


class TestGridType:
    def test_node_layout(self, grid):
        assert grid.node_count == 665
        assert grid.k_nodes[0] == pytest.approx(0.5 * KBAR, rel=1e-14)
        assert grid.k_nodes[-1] == pytest.approx(1.5 * KBAR, rel=1e-14)
        assert len(grid.log_y()) == 665
        assert len(grid.z_index()) == 665

    def test_log_y_spot_check(self, grid):
        # node (k index 3, z index 1) in k-major order
        idx = 3 * 5 + 1
        k = grid.k_nodes[3]
        z = DEFAULT_PARAMS.z_grid[1]
        assert grid.log_y()[idx] == pytest.approx(math.log(z) + 0.33 * math.log(k), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="k_count"):
            collocation_grid(k_count=1)
        # the guard passes the bound and fires before linspace allocates
        with mock.patch.object(np, "linspace", return_value=np.ones(2)) as linspace:
            collocation_grid(k_count=COLLOCATION_MAX_NODES)
        assert linspace.call_count == 1
        with mock.patch.object(np, "linspace", side_effect=AssertionError), \
                pytest.raises(CapacityError, match="k_count 1000001"):
            collocation_grid(k_count=COLLOCATION_MAX_NODES + 1)
        with pytest.raises(ValueError, match="positive"):
            CollocationGrid(DEFAULT_PARAMS, (0.1, -0.2))
