import itertools
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealdp.bqm import QuboModel, qubo_energy
from annealdp.pbf import (
    PRUNE_TOL,
    BinaryEncoding,
    EncodingRangeWarning,
    LogCoefficients,
    ParseError,
    Poly,
    from_qubo,
    ln_1mx_poly,
    ln_x_poly,
    read_poly,
    to_qubo,
    write_csv,
    write_poly,
    write_text,
)

x = Poly.variable


def states(n):
    return itertools.product((0, 1), repeat=n)


class TestPolyAlgebra:
    def test_multilinearity(self):
        assert x(0) * x(0) == x(0)
        p = x(0) + x(1)
        q = x(0) - x(1)
        assert p * q == x(0) - x(1)

    def test_squared_penalty_expansion(self):
        p = (Poly.constant(1.0) - x(1) - x(2)) ** 2
        expected = Poly(
            {
                frozenset(): 1.0,
                frozenset((1,)): -1.0,
                frozenset((2,)): -1.0,
                frozenset((1, 2)): 2.0,
            }
        )
        assert p == expected
        for s in states(3):
            assert p.evaluate(s) == (1 - s[1] - s[2]) ** 2

    def test_constant_and_zero(self):
        assert Poly.constant(3.5).evaluate((0, 1)) == 3.5
        assert Poly.zero() == Poly.constant(0.0)
        assert (x(0) * x(1) - x(0) * x(1)) == Poly.zero()

    def test_prune_tolerance(self):
        assert Poly({frozenset((0,)): 5e-13}) == Poly.zero()
        assert Poly({frozenset((0,)): 5e-12}) != Poly.zero()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        # a NaN used to be dropped silently, losing its term
        with pytest.raises(ValueError, match="not finite"):
            Poly({frozenset((0, 1, 2)): bad, frozenset((3,)): 1.0})
        with pytest.raises(ValueError, match="not finite"):
            Poly.linear({0: 1.0}, constant=bad)

    def test_three_term_example(self):
        # 2 x1 x2 x3 + 4 x2 x3 x4 - 5 x2 x3 x5 at x=(1,1,1,0,0) on ids 1..5
        p = 2 * (x(1) * x(2) * x(3)) + 4 * (x(2) * x(3) * x(4)) - 5 * (x(2) * x(3) * x(5))
        assert p.degree == 3
        assert p.evaluate({1: 1, 2: 1, 3: 1, 4: 0, 5: 0}) == 2.0

    def test_pair_gadget_nonnegative(self):
        # x1 x2 - 2(x1 + x2) xa + 3 xa: zero iff xa == x1 x2, else >= 1
        gadget = x(1) * x(2) - 2 * (x(1) + x(2)) * x(3) + 3 * x(3)
        for x1, x2, xa in states(3):
            val = gadget.evaluate({1: x1, 2: x2, 3: xa})
            if xa == x1 * x2:
                assert val == 0.0
            else:
                assert val >= 1.0

    def test_pow(self):
        p = 1 + x(0) - 2 * x(1)
        for s in states(2):
            assert (p ** 3).evaluate(s) == pytest.approx(p.evaluate(s) ** 3)
        assert p ** 0 == Poly.constant(1.0)
        with pytest.raises(ValueError):
            p ** -1

    def test_missing_variable_error(self):
        p = x(0) + x(5)
        with pytest.raises(ValueError, match=r"\[5\]"):
            p.evaluate({0: 1})

    def test_degree_and_variables(self):
        p = x(2) * x(7) * x(3) + x(1) + 4
        assert p.degree == 3
        assert p.variables() == (1, 2, 3, 7)
        assert p.coeff(2, 3, 7) == 1.0
        assert p.coeff() == 4.0


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        vars_ = draw(st.frozensets(st.integers(0, 5), max_size=4))
        coeff = draw(st.floats(-5, 5, allow_nan=False))
        terms[vars_] = terms.get(vars_, 0.0) + coeff
    return Poly(terms)


@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys())
def test_ring_ops_match_pointwise(p, q):
    for s in states(6):
        assert (p + q).evaluate(s) == pytest.approx(p.evaluate(s) + q.evaluate(s), abs=1e-9)
        assert (p * q).evaluate(s) == pytest.approx(p.evaluate(s) * q.evaluate(s), rel=1e-9, abs=1e-9)
        assert (p - q).evaluate(s) == pytest.approx(p.evaluate(s) - q.evaluate(s), abs=1e-9)


# Arithmetic as it was written before the operators skipped the key
# pass: each result goes through the public constructor.


def _old_add(p, q):
    if not isinstance(q, Poly):
        q = Poly.constant(q)
    terms = dict(p.terms)
    for k, c in q.terms.items():
        terms[k] = terms.get(k, 0.0) + c
    return Poly(terms)


def _old_neg(p):
    return Poly({k: -c for k, c in p.terms.items()})


def _old_mul(p, q):
    if not isinstance(q, Poly):
        c = float(q)
        return Poly({k: v * c for k, v in p.terms.items()})
    terms = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            key = k1 | k2
            terms[key] = terms.get(key, 0.0) + c1 * c2
    return Poly(terms)


def _items(p):
    return list(p.terms.items())


SCALARS = st.sampled_from((0.0, 0.4 * PRUNE_TOL, -3.0 * PRUNE_TOL, 0.5, -2.0, 3.25))


@st.composite
def poly_pairs(draw):
    """Two dyadic polynomials; q sometimes cancels some of p's terms
    exactly or to within PRUNE_TOL, so the prune path runs."""
    p = draw(small_polys())
    q = draw(small_polys())
    if p.terms and draw(st.booleans()):
        slack = draw(st.sampled_from((0.0, 0.4 * PRUNE_TOL, -0.4 * PRUNE_TOL)))
        cancelled = {k: -c + slack for k, c in p.terms.items() if draw(st.booleans())}
        q = Poly({**q.terms, **cancelled})
    return p, q


@settings(max_examples=120, deadline=None)
@given(poly_pairs(), SCALARS)
def test_arithmetic_items_match_constructor_path(pq, c):
    p, q = pq
    assert _items(p + q) == _items(_old_add(p, q))
    assert _items(p - q) == _items(_old_add(p, _old_neg(q)))
    assert _items(-p) == _items(_old_neg(p))
    assert _items(p * q) == _items(_old_mul(p, q))
    assert _items(p * c) == _items(c * p) == _items(_old_mul(p, c))
    assert _items(p + c) == _items(c + p) == _items(_old_add(p, c))
    assert _items(p - c) == _items(_old_add(p, -c))
    assert _items(c - p) == _items(_old_add(_old_neg(p), c))


@settings(max_examples=60, deadline=None)
@given(small_polys())
def test_canonical_form_unique(p):
    # Equal pointwise evaluation iff equal canonical form: perturbing any
    # single coefficient beyond the prune tolerance breaks equality somewhere.
    q = p + Poly({frozenset((0, 3)): 1e-6})
    diffs = [abs(p.evaluate(s) - q.evaluate(s)) for s in states(6)]
    assert max(diffs) > 0


class TestQuboBridge:
    def test_roundtrip(self):
        p = 1.5 + 2 * x(0) - 3 * (x(0) * x(2))
        model, offset = to_qubo(p)
        assert offset == 1.5
        assert model.n == 3
        for s in states(3):
            assert qubo_energy(model, s) + offset == pytest.approx(p.evaluate(s))
        assert from_qubo(model, offset) == p

    def test_degree_guard(self):
        with pytest.raises(ValueError, match="degree 3"):
            to_qubo(x(0) * x(1) * x(2))

    def test_explicit_n(self):
        model, _ = to_qubo(x(1), n=5)
        assert model.n == 5


def _old_to_qubo(poly, n=None):
    """to_qubo as it was written before its one pass: a degree pass, a
    variable pass, then the terms into the QuboModel constructor."""
    if poly.degree > 2:
        raise ValueError(f"polynomial has degree {poly.degree}, expected <= 2")
    vars_ = poly.variables()
    if n is None:
        n = (max(vars_) + 1) if vars_ else 0
    q = {}
    offset = 0.0
    for k, c in poly.terms.items():
        if not k:
            offset += c
        elif len(k) == 1:
            (i,) = k
            q[(i, i)] = q.get((i, i), 0.0) + c
        else:
            i, j = sorted(k)
            q[(i, j)] = q.get((i, j), 0.0) + c
    return QuboModel(n, q), offset


def _outcome(fn, *args):
    try:
        model, offset = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    return model.n, [(k, c.hex()) for k, c in model.q.items()], offset.hex()


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.frozensets(st.integers(-2, 6), max_size=3),
                       st.floats(-5, 5, allow_nan=False), max_size=10),
       st.one_of(st.none(), st.integers(-1, 8)))
def test_to_qubo_matches_multi_pass_reference(terms, n):
    # negative ids, too small an n and cubic terms reach the same errors
    poly = Poly(terms)
    assert _outcome(to_qubo, poly, n) == _outcome(_old_to_qubo, poly, n)


class TestTextFormat:
    def test_roundtrip(self, tmp_path):
        p = -0.25 + 3 * x(2) - (1 / 3) * (x(0) * x(4) * x(7))
        path = tmp_path / "poly.txt"
        write_poly(p, str(path))
        assert read_poly(str(path)) == p

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.frozensets(st.integers(0, 40), max_size=6),
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
        max_size=8,
    ))
    def test_roundtrip_keeps_every_term_exactly(self, terms):
        p = Poly(terms)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "poly.txt")
            write_poly(p, path)
            got = read_poly(path)
        # stored coefficients are nonzero, so equal floats are equal bits
        assert got.terms == p.terms

    def test_comments_and_accumulation(self, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("# objective\n2.0 1 2\n0.5 2 1  # same monomial\n-1.0\n")
        p = read_poly(str(path))
        assert p == Poly({frozenset((1, 2)): 2.5, frozenset(): -1.0})

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("2.0 1 1\n")
        with pytest.raises(ParseError, match="duplicate"):
            read_poly(str(path))
        path.write_text("x 1\n")
        with pytest.raises(ParseError):
            read_poly(str(path))
        path.write_text("1.0 -3\n")
        with pytest.raises(ParseError, match="negative"):
            read_poly(str(path))

    @pytest.mark.parametrize("text", ["nan 0 1 2\n", "inf 3\n", "-inf\n", "1e308 0 1\n1e308 1 0\n"])
    def test_non_finite_coefficient_names_line(self, tmp_path, text):
        path = tmp_path / "poly.txt"
        path.write_text("2.0 0 1 2\n" + text)
        lines = text.count("\n") + 1
        with pytest.raises(ParseError, match=f"line {lines}: coefficient is not finite"):
            read_poly(str(path))


class TestWriteText:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(max_size=300), min_size=1, max_size=6))
    def test_successive_writes_leave_exactly_the_last_text(self, texts):
        # shorter and longer texts in turn: no tail of an earlier one survives
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.txt")
            for text in texts:
                write_text(path, text)
                with open(path, "rb") as fh:
                    assert fh.read() == text.encode("utf-8")

    def test_csv_rows_end_in_crlf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), [["a", "b,c"], [1, 'say "hi"']])
        assert path.read_bytes() == b'a,"b,c"\r\n1,"say ""hi"""\r\n'

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_text(str(tmp_path / "new.txt"), "x\n")
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "new.txt").st_mode & 0o777 == 0o640


class TestBinaryEncoding:
    def test_minimal_example(self):
        enc = BinaryEncoding(var_base=0, bit_count=3, scale=1.0)
        assert enc.encode_value((1, 0, 1)) == 5.0
        assert enc.encode_value((0, 0, 0)) == 0.0

    def test_negative_scale_range(self):
        enc = BinaryEncoding(var_base=0, bit_count=10, scale=-0.035)
        assert enc.encode_value((1,) * 10) == pytest.approx(-35.805, abs=1e-12)
        assert enc.max_int == 1023

    def test_value_poly_matches_encode(self):
        enc = BinaryEncoding(var_base=3, bit_count=4, scale=0.25)
        vp = enc.value_poly()
        for bits in states(4):
            assignment = dict(zip(enc.vars, bits))
            assert vp.evaluate(assignment) == enc.encode_value(bits)

    def test_nearest_bits_roundtrip_within_half_step(self):
        enc = BinaryEncoding(var_base=0, bit_count=5, scale=0.125)
        for value in (0.0, 0.3, 1.9999, 3.875, 2.0624):
            bits = enc.nearest_bits(value)
            assert abs(enc.encode_value(bits) - value) <= abs(enc.scale) / 2 + 1e-15

    def test_ties_round_down(self):
        enc = BinaryEncoding(var_base=0, bit_count=2, scale=1.0)
        assert enc.nearest_bits(0.5) == (0, 0)
        assert enc.nearest_bits(1.5) == (1, 0)
        assert enc.nearest_bits(2.5) == (0, 1)

    def test_clamp_warns(self):
        enc = BinaryEncoding(var_base=0, bit_count=2, scale=1.0)
        with pytest.warns(EncodingRangeWarning):
            assert enc.nearest_bits(-1.0) == (0, 0)
        with pytest.warns(EncodingRangeWarning):
            assert enc.nearest_bits(99.0) == (1, 1)

    def test_negative_scale_nearest(self):
        enc = BinaryEncoding(var_base=0, bit_count=2, scale=-0.5)
        assert enc.nearest_bits(-0.75) == (1, 0)  # tie at q=1.5 rounds down
        assert enc.nearest_bits(-1.4) == (1, 1)

    def test_grid(self):
        enc = BinaryEncoding(var_base=0, bit_count=2, scale=0.5)
        assert list(enc.grid()) == [0.0, 0.5, 1.0, 1.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            BinaryEncoding(0, 0, 1.0)
        with pytest.raises(ValueError):
            BinaryEncoding(0, 3, 0.0)
        enc = BinaryEncoding(0, 3, 1.0)
        with pytest.raises(ValueError):
            enc.encode_value((1, 0))
        with pytest.raises(ValueError):
            enc.encode_value((1, 2, 0))


class TestLogSurrogates:
    def test_default_coefficients_frozen(self):
        c = LogCoefficients()
        assert (c.a0, c.a1, c.a2) == (-0.10905, 0.57570, -1.38445)
        assert (c.at0, c.at1) == (-0.22278, -0.28375)

    def test_ln_x_structure(self):
        enc = BinaryEncoding(var_base=0, bit_count=4, scale=1.0)
        c = LogCoefficients()
        p = ln_x_poly(enc, c)
        assert p.degree == 2
        assert p.coeff() == c.a0
        for j in range(4):
            assert p.coeff(j) == pytest.approx(c.a1 * 2**j + c.a2 * 4**j)
        for j in range(4):
            for i in range(j):
                assert p.coeff(i, j) == pytest.approx(2 * c.a2 * 2 ** (i + j))

    def test_ln_x_equals_quadratic_in_decoded_value(self):
        enc = BinaryEncoding(var_base=2, bit_count=5, scale=0.03)
        c = LogCoefficients(a0=0.2, a1=-1.1, a2=0.4, at0=0.0, at1=0.0)
        p = ln_x_poly(enc, c)
        for m in range(enc.max_int + 1):
            bits = {enc.var_base + j: (m >> j) & 1 for j in range(5)}
            v = enc.scale * m
            assert p.evaluate(bits) == pytest.approx(c.a0 + c.a1 * v + c.a2 * v * v, abs=1e-12)

    def test_ln_1mx_structure(self):
        enc = BinaryEncoding(var_base=0, bit_count=3, scale=1 / 8)
        c = LogCoefficients()
        p = ln_1mx_poly(enc, c)
        assert p.degree == 1
        assert p.coeff() == c.at0
        for j in range(3):
            assert p.coeff(j) == pytest.approx(c.at1 * 2**j / 8)

    def test_exact_quadratic_has_zero_grid_error(self):
        # coefficients of an exact target (x itself) reproduce it on every
        # grid point, so the surrogate's error is the fit's alone
        enc = BinaryEncoding(var_base=0, bit_count=3, scale=0.1)
        c = LogCoefficients(a0=0.0, a1=1.0, a2=0.0, at0=0.0, at1=-1.0)
        p = ln_x_poly(enc, c)
        for m in range(1, enc.max_int + 1):
            bits = {j: (m >> j) & 1 for j in range(3)}
            assert p.evaluate(bits) == pytest.approx(0.1 * m, abs=1e-12)

