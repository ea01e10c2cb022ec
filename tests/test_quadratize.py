import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealdp.merged import build_merged_problem, default_merged_encodings
from annealdp.pbf import PRUNE_TOL, Poly, to_qubo
from annealdp.quadratize import (
    AuxAllocation,
    AuxRecord,
    ReductionResult,
    aux_allocation,
    deduction_reduce,
    elc_reduce,
    min_over_aux,
    ntr_reduce,
    ptr_reduce,
    quadratize_full,
)
from support import poly_approx_eq

x = Poly.variable


def assignments(vars_):
    vars_ = sorted(vars_)
    for bits in itertools.product((0, 1), repeat=len(vars_)):
        yield dict(zip(vars_, bits))


def exact_min(p: Poly) -> float:
    return min(p.evaluate(a) for a in assignments(p.variables()))


def argmin_set(p: Poly) -> set[tuple[int, ...]]:
    best = exact_min(p)
    out = set()
    for a in assignments(p.variables()):
        if p.evaluate(a) == pytest.approx(best, abs=1e-9):
            out.add(tuple(a[v] for v in sorted(a)))
    return out


# Five-constraint toy problem used across the reduction examples:
# (x1+x2+x3-1)^2 + (x1 x4 + x2 x5 - x3)^2 + (x1 + 2 x2 - x3 - 2 x4)^2
def five_var_constraint_poly() -> Poly:
    c1 = x(1) + x(2) + x(3) - 1
    c2 = x(1) * x(4) + x(2) * x(5) - x(3)
    c3 = x(1) + 2 * x(2) - x(3) - 2 * x(4)
    return c1 * c1 + c2 * c2 + c3 * c3


class TestFiveVarExpansion:
    def test_multilinear_expansion_frozen(self):
        # Expanded by hand; the quartic cross term is 2 x1 x2 x4 x5 and the
        # two cubics are -2 x1 x3 x4 and -2 x2 x3 x5.
        h = five_var_constraint_poly()
        expected = Poly(
            {
                frozenset((1, 2, 4, 5)): 2.0,
                frozenset((1, 3, 4)): -2.0,
                frozenset((2, 3, 5)): -2.0,
                frozenset((2, 3)): -2.0,
                frozenset((1, 2)): 6.0,
                frozenset((1, 4)): -3.0,
                frozenset((2, 4)): -8.0,
                frozenset((2, 5)): 1.0,
                frozenset((2,)): 3.0,
                frozenset((3, 4)): 4.0,
                frozenset((3,)): 1.0,
                frozenset((4,)): 4.0,
                frozenset(): 1.0,
            }
        )
        assert poly_approx_eq(h, expected, tol=1e-12)

    def test_ground_state(self):
        h = five_var_constraint_poly()
        assert exact_min(h) == 0.0
        assert h.evaluate({1: 0, 2: 1, 3: 0, 4: 1, 5: 0}) == 0.0

    def test_naive_global_substitution_is_invalid(self):
        # Dropping every term containing a zero pair lets some states dip
        # to -3 and -2, below the true ground energy 0.
        h = five_var_constraint_poly()
        kept = {
            k: c
            for k, c in h.terms.items()
            if not any({i, j} <= k for i, j in ((1, 2), (2, 3), (1, 3)))
        }
        naive = Poly(kept)
        energies = {naive.evaluate(a) for a in assignments(range(1, 6))}
        assert -3.0 in energies
        assert -2.0 in energies

    def test_term_by_term_deduction_preserves_ground(self):
        h = five_var_constraint_poly()
        reduced = h
        for pair in ((1, 2), (2, 3), (1, 3)):
            reduced = deduction_reduce(reduced, pair, 0)
        assert reduced.degree == 2
        # the quartic becomes its penalty form 2 x1 x2, on top of 6 x1 x2
        assert reduced.coeff(1, 2) == 8.0
        assert exact_min(reduced) == 0.0
        assert reduced.evaluate({1: 0, 2: 1, 3: 0, 4: 1, 5: 0}) == 0.0


class TestNtr:
    def test_cubic_form_frozen(self):
        # -x1 x2 x3 -> 2 xa - xa(x1 + x2 + x3)
        got = ntr_reduce((1, 2, 3), -1.0, aux=4)
        expected = 2 * x(4) - x(4) * (x(1) + x(2) + x(3))
        assert got == expected

    def test_min_over_aux_matches_term(self):
        reduced = ntr_reduce((1, 2, 3), -1.0, aux=4)
        for a in assignments((1, 2, 3)):
            want = -a[1] * a[2] * a[3]
            assert min_over_aux(reduced, (4,), a) == want

    def test_all_ones_needs_aux_on(self):
        reduced = ntr_reduce((1, 2, 3), -1.0, aux=4)
        assert reduced.evaluate({1: 1, 2: 1, 3: 1, 4: 1}) == -1.0
        assert reduced.evaluate({1: 1, 2: 1, 3: 1, 4: 0}) == 0.0

    def test_rejects_positive_and_low_degree(self):
        with pytest.raises(ValueError):
            ntr_reduce((1, 2, 3), 1.0, aux=4)
        with pytest.raises(ValueError):
            ntr_reduce((1, 2), -1.0, aux=4)

    def test_rejects_aux_among_term_variables(self):
        # would otherwise return {x2: -1, x1x2: -1, x2x3: -1}
        with pytest.raises(ValueError, match="auxiliary x2"):
            ntr_reduce((1, 2, 3), -1.0, aux=2)

    def test_scaling(self):
        reduced = ntr_reduce((0, 1, 2, 3), -2.5, aux=9)
        for a in assignments(range(4)):
            want = -2.5 * a[0] * a[1] * a[2] * a[3]
            assert min_over_aux(reduced, (9,), a) == pytest.approx(want)


class TestPtr:
    def test_cubic_form_frozen(self):
        # x1 x2 x3 -> xa(1 + x1 - x2 - x3) + x2 x3
        got = ptr_reduce((1, 2, 3), 1.0, aux_ids=(4,))
        expected = x(4) * (1 + x(1) - x(2) - x(3)) + x(2) * x(3)
        assert got == expected

    def test_min_over_aux_matches_term(self):
        reduced = ptr_reduce((1, 2, 3), 1.0, aux_ids=(4,))
        for a in assignments((1, 2, 3)):
            want = a[1] * a[2] * a[3]
            assert min_over_aux(reduced, (4,), a) == want

    def test_quintic_needs_three_auxes(self):
        vars5 = (0, 1, 2, 3, 4)
        reduced = ptr_reduce(vars5, 1.5, aux_ids=(5, 6, 7))
        assert reduced.degree == 2
        for a in assignments(vars5):
            want = 1.5 * a[0] * a[1] * a[2] * a[3] * a[4]
            assert min_over_aux(reduced, (5, 6, 7), a) == pytest.approx(want)
        with pytest.raises(ValueError):
            ptr_reduce(vars5, 1.5, aux_ids=(5, 6))

    def test_all_zero_min_is_zero(self):
        reduced = ptr_reduce((1, 2, 3, 4), 3.0, aux_ids=(5, 6))
        assert min_over_aux(reduced, (5, 6), {1: 0, 2: 0, 3: 0, 4: 0}) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ptr_reduce((1, 2, 3), -1.0, aux_ids=(4,))

    def test_rejects_repeated_auxiliaries(self):
        with pytest.raises(ValueError, match="repeat"):
            ptr_reduce((0, 1, 2, 3), 1.0, aux_ids=(7, 7))

    def test_rejects_aux_among_term_variables(self):
        with pytest.raises(ValueError, match=r"\[2\]"):
            ptr_reduce((0, 1, 2, 3), 1.0, aux_ids=(2, 7))

    def test_quartic_terms_in_chain_order(self):
        # per auxiliary {a}, {a, v_idx}, {a, v_j > v_idx}; closing pair last
        got = ptr_reduce((0, 1, 2, 3), 1.5, aux_ids=(4, 5))
        assert list(got.terms.items()) == [
            (frozenset({4}), 3.0),
            (frozenset({4, 0}), 1.5),
            (frozenset({4, 1}), -1.5),
            (frozenset({4, 2}), -1.5),
            (frozenset({4, 3}), -1.5),
            (frozenset({5}), 1.5),
            (frozenset({5, 1}), 1.5),
            (frozenset({5, 2}), -1.5),
            (frozenset({5, 3}), -1.5),
            (frozenset({2, 3}), 1.5),
        ]


class TestElc:
    def test_printed_example(self):
        h = x(1) * x(2) + x(2) * x(3) + x(3) * x(4) - 4 * (x(1) * x(2) * x(3))
        reduced = elc_reduce(h, {1: 1, 2: 0, 3: 0})
        expected = (
            x(1) * x(2) + x(2) * x(3) + x(3) * x(4) + 4 * x(1) - 4 * (x(1) * x(2)) - 4 * (x(1) * x(3))
        )
        assert reduced == expected
        assert reduced.degree == 2

    def test_ground_state_preserved(self):
        h = x(1) * x(2) + x(2) * x(3) + x(3) * x(4) - 4 * (x(1) * x(2) * x(3))
        reduced = elc_reduce(h, {1: 1, 2: 0, 3: 0})
        assert exact_min(h) == -2.0
        assert exact_min(reduced) == -2.0
        assert argmin_set(h) <= argmin_set(reduced) or argmin_set(h) & argmin_set(reduced)

    def test_psi_at_excluded_configuration(self):
        h = -4 * (x(1) * x(2) * x(3))
        reduced = elc_reduce(h, {1: 1, 2: 0, 3: 0})
        psi = reduced - h
        assert psi.evaluate({1: 1, 2: 0, 3: 0}) == 4.0

    def test_parity_rejection(self):
        h = -4 * (x(1) * x(2) * x(3))
        with pytest.raises(ValueError, match="parity"):
            elc_reduce(h, {1: 1, 2: 1, 3: 0})  # two ones vs size three
        h2 = 4 * (x(1) * x(2) * x(3))
        with pytest.raises(ValueError, match="parity"):
            elc_reduce(h2, {1: 1, 2: 0, 3: 0})
        # opposite parity is accepted for positive coefficients
        reduced = elc_reduce(h2, {1: 1, 2: 1, 3: 0})
        assert reduced.coeff(1, 2, 3) == 0.0

    def test_missing_term_rejected(self):
        with pytest.raises(ValueError, match="no term"):
            elc_reduce(x(1) * x(2), {1: 1, 2: 0, 3: 0})


class TestDeduction:
    def test_identity_when_pair_absent(self):
        p = x(1) * x(2) * x(3) + x(4)
        assert deduction_reduce(p, (4, 5), 0) == p

    def test_quadratic_terms_untouched(self):
        p = 6 * (x(1) * x(2)) + 2 * (x(1) * x(2) * x(4) * x(5))
        out = deduction_reduce(p, (1, 2), 0)
        assert out == 8 * (x(1) * x(2))

    def test_value_one_substitution(self):
        # x1 x2 = 1 in the ground state: positive terms just shrink
        p = 3 * (x(1) * x(2) * x(3))
        out = deduction_reduce(p, (1, 2), 1)
        assert out == 3 * x(3)
        # negative terms also need the (1 - x1 x2) penalty
        q = -2 * (x(1) * x(2) * x(3))
        out_q = deduction_reduce(q, (1, 2), 1)
        assert out_q == -2 * x(3) + 2 * (1 - x(1) * x(2))
        # no state dips below the original minimum
        assert exact_min(out_q) >= exact_min(q)

    def test_value_validation(self):
        with pytest.raises(ValueError):
            deduction_reduce(x(1) * x(2) * x(3), (1, 2), 2)


class TestQuadratizeFull:
    def test_quadratic_identity(self):
        p = x(0) * x(1) - 2 * x(2) + 1
        res = quadratize_full(p)
        assert res.qubo_poly == p
        assert res.alloc.aux_vars == ()

    def test_sign_driven_method_choice(self):
        p = -1 * (x(0) * x(1) * x(2)) + 2 * (x(3) * x(4) * x(5) * x(6))
        res = quadratize_full(p)
        methods = {r.term: r.method for r in res.alloc.records}
        assert methods[(0, 1, 2)] == "ntr"
        assert methods[(3, 4, 5, 6)] == "ptr"
        # one aux for the cubic, d-2 = 2 for the quartic
        assert len([r for r in res.alloc.records if r.method == "ntr"]) == 1
        assert len([r for r in res.alloc.records if r.method == "ptr"]) == 2
        assert res.qubo_poly.degree == 2

    def test_aux_ids_deterministic_and_disjoint(self):
        p = x(2) * x(5) * x(7) - 3 * (x(0) * x(1) * x(3))
        res = quadratize_full(p)
        assert res.alloc.original_n == 8
        assert res.alloc.aux_vars == (8, 9)
        assert res.alloc.records[0].term == (0, 1, 3)  # sorted term order
        res2 = quadratize_full(p, alloc=aux_allocation(p, aux_start=20))
        assert res2.alloc.aux_vars == (20, 21)

    def test_min_over_aux_exactness_small(self):
        p = (
            2.5 * (x(0) * x(1) * x(2) * x(3))
            - 1.5 * (x(1) * x(2) * x(4))
            + 0.5 * x(0)
            - x(3) * x(4)
        )
        res = quadratize_full(p)
        for a in assignments(range(5)):
            assert min_over_aux(res.qubo_poly, res.alloc.aux_vars, a) == pytest.approx(
                p.evaluate(a), abs=1e-9
            )

    def test_rejects_aux_start_below_variable_count(self):
        # aux_start=2 would reuse x2 for the auxiliary of 2 x0 x1 x2
        p = 2 * (x(0) * x(1) * x(2)) + x(3)
        with pytest.raises(ValueError, match="aux_start 2"):
            aux_allocation(p, aux_start=2)
        assert aux_allocation(p, aux_start=4).aux_vars == (4,)

    def test_cancelled_pair_reenters_at_end(self):
        # the PTR pair of x0x2x3 cancels -x2x3; x1x2x3 then re-adds it
        p = -1 * (x(2) * x(3)) + x(0) * x(2) * x(3) + 2 * (x(1) * x(2) * x(3)) + x(0)
        res = quadratize_full(p)
        assert list(res.qubo_poly.terms.items())[-1] == (frozenset({2, 3}), 2.0)
        assert list(res.qubo_poly.terms.items()) == list(chained_quadratize_reference(p).qubo_poly.terms.items())

    def test_min_over_aux_rejects_shared_auxes(self):
        bad = x(0) * x(8) * x(9)
        with pytest.raises(ValueError, match="share"):
            min_over_aux(bad, (8, 9), {0: 1})


@st.composite
def random_pbfs(draw):
    n = draw(st.integers(3, 7))
    n_terms = draw(st.integers(1, 8))
    terms = {}
    for _ in range(n_terms):
        size = draw(st.integers(1, min(5, n)))
        vars_ = draw(st.frozensets(st.integers(0, n - 1), min_size=size, max_size=size))
        coeff = draw(
            st.floats(-5, 5, allow_nan=False).filter(lambda c: abs(c) > 1e-6)
        )
        terms[vars_] = terms.get(vars_, 0.0) + coeff
    return n, Poly(terms)


@settings(max_examples=50, deadline=None)
@given(random_pbfs())
def test_quadratize_full_exact_property(case):
    n, p = case
    res = quadratize_full(p, alloc=aux_allocation(p, n))
    assert res.qubo_poly.degree <= 2
    for a in assignments(range(n)):
        assert min_over_aux(res.qubo_poly, res.alloc.aux_vars, a) == pytest.approx(
            p.evaluate(a), abs=1e-8
        )


# The reduction as it was written before quadratize_full accumulated in
# place: every NTR/PTR piece is built through Poly arithmetic and added
# with `out + piece`. It is the reference for the result, key order
# included.


def _chained_ntr(vars_, coeff, aux):
    vs = sorted(set(vars_))
    d = len(vs)
    mag = -coeff
    terms = {frozenset((aux,)): mag * (d - 1)}
    for v in vs:
        terms[frozenset((v, aux))] = -mag
    return Poly(terms)


def _chained_ptr(vars_, coeff, aux_ids):
    vs = sorted(set(vars_))
    d = len(vs)
    out = Poly.zero()
    for idx in range(d - 2):
        a = Poly.variable(aux_ids[idx])
        inner = Poly.constant(float(d - idx - 2)) + Poly.variable(vs[idx])
        for j in range(idx + 1, d):
            inner = inner - Poly.variable(vs[j])
        out = out + a * inner
    out = out + Poly.variable(vs[-2]) * Poly.variable(vs[-1])
    return coeff * out


def chained_quadratize_reference(p, aux_start=None):
    vars_ = p.variables()
    original_n = (max(vars_) + 1) if vars_ else 0
    next_aux = original_n if aux_start is None else aux_start
    out_terms = {k: c for k, c in p.terms.items() if len(k) <= 2}
    out = Poly(out_terms)
    records = []
    for k in sorted((k for k in p.terms if len(k) >= 3), key=lambda k: tuple(sorted(k))):
        c = p.terms[k]
        term = tuple(sorted(k))
        if c < 0:
            out = out + _chained_ntr(term, c, next_aux)
            records.append(AuxRecord(next_aux, "ntr", term))
            next_aux += 1
        else:
            aux_ids = tuple(range(next_aux, next_aux + len(term) - 2))
            out = out + _chained_ptr(term, c, aux_ids)
            records.extend(AuxRecord(a, "ptr", term) for a in aux_ids)
            next_aux += len(term) - 2
    return ReductionResult(out, AuxAllocation(original_n, tuple(records)))


DYADIC = st.builds(lambda k, m: k / 2.0**m, st.integers(-16, 16).filter(bool), st.integers(0, 3))


@st.composite
def cancelling_pbfs(draw):
    """Degree <= 4 over <= 8 variables, dyadic coefficients, plus a
    quadratic term that a PTR pair cancels (exactly or to within
    PRUNE_TOL) and, sometimes, a later PTR term that re-adds it."""
    n = draw(st.integers(4, 8))
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        size = draw(st.integers(0, 4))
        key = draw(st.frozensets(st.integers(0, n - 1), min_size=size, max_size=size))
        terms[key] = terms.get(key, 0.0) + draw(DYADIC)
    u, v = n - 2, n - 1
    first = draw(st.integers(0, n - 4))
    c = abs(draw(DYADIC))
    slack = draw(st.sampled_from((0.0, 0.4 * PRUNE_TOL, -0.4 * PRUNE_TOL)))
    terms[frozenset((u, v))] = -c + slack
    terms[frozenset((first, u, v))] = c
    if draw(st.booleans()):
        later = draw(st.integers(first + 1, n - 3))
        terms[frozenset((later, u, v))] = abs(draw(DYADIC))
    return n, Poly(terms)


@settings(max_examples=150, deadline=None)
@given(cancelling_pbfs(), st.integers(0, 3))
def test_quadratize_full_matches_chained_reference(case, gap):
    n, p = case
    for aux_start in (None, n + gap):
        got = quadratize_full(p, alloc=aux_allocation(p, aux_start))
        want = chained_quadratize_reference(p, aux_start=aux_start)
        assert list(got.qubo_poly.terms.items()) == list(want.qubo_poly.terms.items())
        assert got.alloc == want.alloc


def chained_merged_reference(prob):
    """The merged problem's QUBO, offset and allocation, each block
    reduced by the chained reference and the reductions summed through
    Poly arithmetic: the eager build, rebuilt from the problem's blocks."""
    x_p, x_v = prob.x_p, prob.x_v
    prod_p = Poly.variable(x_p) * prob.gp_poly
    prod_v = Poly.variable(x_v) * prob.gv_poly
    bias_poly = prob.bias * (Poly.variable(x_p) + Poly.variable(x_v))
    red_p = chained_quadratize_reference(prod_p, aux_start=x_v + 1)
    red_v = chained_quadratize_reference(prod_v, aux_start=x_v + 1 + len(red_p.alloc.records))
    records = red_p.alloc.records + red_v.alloc.records
    qubo, offset = to_qubo(red_p.qubo_poly + red_v.qubo_poly + bias_poly, n=x_v + 1 + len(records))
    return qubo, offset, AuxAllocation(x_v + 1, records)


@pytest.mark.parametrize("widths", [(6, 6, 6), (3, 3, 3), (4, 5, 6), (2, 2, 2), (7, 7, 7)])
@pytest.mark.parametrize("bias", [0.0, 0.5])
def test_merged_problem_matches_chained_reference(widths, bias):
    prob = build_merged_problem(encodings=default_merged_encodings(j1=widths[0], j2=widths[1], j3=widths[2]),
                                bias=bias)
    qubo, offset, alloc = chained_merged_reference(prob)
    assert list(prob.qubo.q.items()) == list(qubo.q.items())
    assert prob.qubo.n == qubo.n
    assert prob.offset == offset
    assert prob.alloc == alloc
    x_p, x_v = prob.x_p, prob.x_v
    prod_p = Poly.variable(x_p) * prob.gp_poly
    prod_v = Poly.variable(x_v) * prob.gv_poly
    bias_poly = bias * (Poly.variable(x_p) + Poly.variable(x_v))
    assert list(prob.poly.terms.items()) == list((prod_p + prod_v + bias_poly).terms.items())


def _float_bits(items):
    return [(k, float(c).hex()) for k, c in items]


class TestDeferredReduction:
    """build_merged_problem sets the allocation and the variable count;
    the QUBO and its offset are built on first read, and equal the eager
    build bit for bit, key order included."""

    # (x1_bar, x3_bar) anchors; None is the closed-form pair
    ANCHORS = (None, (0.05, 0.4), (0.25, 1.2), (0.5, 2.0), (0.95, 3.5))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
           st.sampled_from((0.0, 0.5)), st.sampled_from(ANCHORS), st.booleans())
    def test_lazy_build_matches_eager_reference(self, j1, j2, j3, bias, anchors, alloc_first):
        prob = build_merged_problem(encodings=default_merged_encodings(j1=j1, j2=j2, j3=j3),
                                    anchors=anchors, bias=bias)
        qubo, offset, alloc = chained_merged_reference(prob)
        if alloc_first:
            assert prob.alloc == alloc
            assert prob.n == qubo.n
        assert _float_bits(prob.q.items()) == _float_bits(qubo.q.items())
        assert prob.qubo.q is prob.q
        assert prob.qubo.n == prob.n == qubo.n
        assert float(prob.offset).hex() == float(offset).hex()
        assert prob.alloc == alloc

    def test_reduction_is_built_once(self):
        prob = build_merged_problem(encodings=default_merged_encodings(j1=2, j2=2, j3=2))
        with mock.patch("annealdp.merged.quadratize_full", wraps=quadratize_full) as spy:
            assert prob.aux_vars and prob.n == prob.x_v + 1 + len(prob.aux_vars)
            assert spy.call_count == 0
            first = prob.qubo
            assert prob.qubo is first and prob.q is first.q
            prob.offset
        assert spy.call_count == 2


@st.composite
def random_cubics(draw):
    """Degree <= 3 over <= 9 variables, signed coefficients."""
    n = draw(st.integers(1, 9))
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        size = draw(st.integers(0, min(3, n)))
        key = draw(st.frozensets(st.integers(0, n - 1), min_size=size, max_size=size))
        terms[key] = draw(st.floats(-4, 4, allow_nan=False).filter(lambda c: abs(c) > 1e-6))
    return n, Poly(terms)


@settings(max_examples=150, deadline=None)
@given(random_cubics(), st.integers(0, 3), st.booleans())
def test_aux_allocation_is_quadratize_full_allocation(case, gap, default_start):
    n, p = case
    aux_start = None if default_start else n + gap
    alloc = aux_allocation(p, aux_start)
    if default_start:
        assert alloc == quadratize_full(p).alloc
    assert alloc == chained_quadratize_reference(p, aux_start).alloc


@settings(max_examples=100, deadline=None)
@given(random_cubics(), st.integers(0, 3), st.booleans())
def test_quadratize_full_on_a_held_allocation(case, gap, default_start):
    # a caller that holds the allocation gets the same reduction, key
    # order and coefficient bits included
    n, p = case
    aux_start = None if default_start else n + gap
    want = chained_quadratize_reference(p, aux_start)
    got = quadratize_full(p, alloc=aux_allocation(p, aux_start))
    assert got.alloc == want.alloc
    assert _float_bits(got.qubo_poly.terms.items()) == _float_bits(want.qubo_poly.terms.items())
    if default_start:
        assert _float_bits(quadratize_full(p).qubo_poly.terms.items()) == _float_bits(
            got.qubo_poly.terms.items())


@pytest.mark.parametrize("widths", [(6, 6, 6), (0, 0, 0), (1, 4, 0), (7, 2, 9)])
def test_merged_reductions_share_no_key(widths):
    # build_merged_problem takes the union of the two reductions for their
    # sum: every policy key holds x_p or a policy auxiliary, every
    # valuation key x_v or a valuation auxiliary, and no key holds both
    prob = build_merged_problem(encodings=default_merged_encodings(j1=widths[0], j2=widths[1], j3=widths[2]))
    x_p, x_v = prob.x_p, prob.x_v
    prod_p, prod_v = Poly.variable(x_p) * prob.gp_poly, Poly.variable(x_v) * prob.gv_poly
    red_p = quadratize_full(prod_p, alloc=aux_allocation(prod_p, x_v + 1))
    red_v = quadratize_full(prod_v, alloc=aux_allocation(prod_v, x_v + 1 + len(red_p.alloc.records)))
    own_p = {x_p, *red_p.alloc.aux_vars}
    own_v = {x_v, *red_v.alloc.aux_vars}
    assert all(k & own_p and not k & own_v for k in red_p.qubo_poly.terms)
    assert all(k & own_v and not k & own_p for k in red_v.qubo_poly.terms)
    assert red_p.qubo_poly.terms.keys().isdisjoint(red_v.qubo_poly.terms)
