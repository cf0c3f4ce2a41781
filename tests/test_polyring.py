"""Ring axioms, ordering, and the division algorithm."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reference_division import ref_divide

from germcone import polyring
from germcone.families import family_f
from germcone.groebner import homogenize
from germcone.localforms import initial_part
from germcone.polyring import (
    GRADED_FIRST, GREVLEX, MonomialOrder, Polynomial, divide, m_deg,
    m_divides)

VARS = ("x", "y", "z")

monomials = st.tuples(*(st.integers(0, 4) for _ in VARS))
coefficients = st.fractions(
    min_value=-9, max_value=9, max_denominator=7).filter(lambda q: q != 0)
term_dicts = st.dictionaries(monomials, coefficients, max_size=5)
polys = st.builds(lambda d: Polynomial(VARS, d), term_dicts)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
orders = st.sampled_from([GREVLEX, GRADED_FIRST])


def poly(d):
    return Polynomial(VARS, d)


X = Polynomial.variable(VARS, "x")
Y = Polynomial.variable(VARS, "y")
Z = Polynomial.variable(VARS, "z")


# --- ring axioms ---

@given(polys, polys, polys)
def test_addition_group(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + Polynomial.zero(VARS) == f
    assert (f - g) + g == f
    assert f - f == Polynomial.zero(VARS)


@given(polys, polys, polys)
def test_multiplication_ring(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * Polynomial.constant(VARS, 1) == f
    assert f * (g + h) == f * g + f * h


@given(polys, st.integers(0, 4))
def test_pow_is_repeated_product(f, e):
    expected = Polynomial.constant(VARS, 1)
    for _ in range(e):
        expected = expected * f
    assert f ** e == expected


@given(polys, st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_scalar_operations(f, c):
    assert c * f == f * c == Polynomial.constant(VARS, c) * f
    assert f + c == f + Polynomial.constant(VARS, c)
    assert c - f == -(f - c)


@given(nonzero_polys, nonzero_polys)
def test_domain_no_zero_divisors(f, g):
    assert not (f * g).is_zero()


# --- degrees and leading terms ---

@given(nonzero_polys, nonzero_polys)
def test_degree_arithmetic(f, g):
    assert (f * g).degree() == f.degree() + g.degree()
    assert (f * g).min_degree() == f.min_degree() + g.min_degree()


@given(nonzero_polys, nonzero_polys, orders)
def test_leading_monomial_multiplicative(f, g, order):
    fo, go = f.with_order(order), g.with_order(order)
    lm_f, lm_g = fo.leading_monomial(), go.leading_monomial()
    lm_fg = (fo * go).leading_monomial()
    assert lm_fg == tuple(a + b for a, b in zip(lm_f, lm_g))


def test_order_examples():
    f = X ** 2 - Y ** 3
    assert f.with_order(GREVLEX).leading_monomial() == (0, 3, 0)
    assert f.with_order(GRADED_FIRST).leading_monomial() == (0, 3, 0)
    # grevlex tie at equal degree: x^2*y beats x*y^2
    g = X ** 2 * Y + X * Y ** 2
    assert g.with_order(GREVLEX).leading_monomial() == (2, 1, 0)
    # at equal degree grevlex ranks y^2 above x*z, gradedfirst the x-power
    h = X * Z + Y ** 2
    assert h.with_order(GREVLEX).leading_monomial() == (0, 2, 0)
    assert h.with_order(GRADED_FIRST).leading_monomial() == (1, 0, 1)


def test_gradedfirst_ranks_first_variable():
    w_vars = ("w", "x", "y")
    order = MonomialOrder("gradedfirst")
    f = Polynomial(w_vars, {(1, 0, 2): Fraction(1), (0, 3, 0): Fraction(1)},
                   order)
    # same total degree; the w-power decides
    assert f.leading_monomial() == (1, 0, 2)


@given(polys, orders)
def test_terms_sorted_descending(f, order):
    fo = f.with_order(order)
    keys = [order.key(m) for m, _ in fo.terms]
    assert keys == sorted(keys, reverse=True)


@given(st.lists(monomials, unique=True), orders)
def test_desc_key_reverses_key(monos, order):
    assert sorted(monos, key=order.desc_key) == sorted(
        monos, key=order.key, reverse=True)


def test_homogeneous_flag():
    assert (X * Y + Z ** 2).is_homogeneous()
    assert not (X + Z ** 2).is_homogeneous()
    assert Polynomial.zero(VARS).is_homogeneous()


# --- substitution and evaluation ---

@given(polys, st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_substitute_matches_evaluate(f, v):
    point = {"x": v, "y": Fraction(1, 2), "z": Fraction(-2)}
    pinned = f.substitute({"x": v, "y": Fraction(1, 2)})
    assert pinned.vars == ("z",)
    assert pinned.evaluate({"z": Fraction(-2)}) == f.evaluate(point)


def test_derivative_product_rule():
    f = X ** 2 * Y - Z ** 3
    g = X * Y + 1
    lhs = (f * g).derivative("x")
    rhs = f.derivative("x") * g + f * g.derivative("x")
    assert lhs == rhs
    assert Polynomial.constant(VARS, 7).derivative("y").is_zero()


def test_with_vars_embeds():
    f = X * Y + Z
    g = f.with_vars(("x", "y", "z", "t"))
    assert g.vars == ("x", "y", "z", "t")
    assert g.degree() == 2
    assert g.substitute({"t": 0}) == f


# --- division ---

@settings(max_examples=500)
@given(polys, st.lists(nonzero_polys, min_size=1, max_size=3), orders)
def test_division_postcondition(f, divisors, order):
    # divide builds no quotient: f is recombined from the reference's
    _, r = divide(f, divisors, order)
    quotients, ref_r = ref_divide(f, divisors, order)
    assert r.terms_dict() == ref_r
    recombined = r.with_order(GREVLEX)
    for q, d in zip(quotients, divisors):
        recombined = recombined + poly(q) * d
    assert recombined == f
    lead = [d.with_order(order).leading_monomial() for d in divisors]
    for mono, _ in r.terms:
        assert not any(m_divides(lm, mono) for lm in lead)


def test_division_worked_example():
    f = X ** 2 * Y + X * Y ** 2
    _, r = divide(f, [X * Y - 1], GREVLEX)
    assert r == X + Y
    (q,), ref_r = ref_divide(f, [X * Y - 1], GREVLEX)
    assert poly(q) == X + Y and poly(ref_r) == r


def test_division_by_self():
    f = X ** 2 - Y ** 3
    _, r = divide(f, [f], GREVLEX)
    assert r.is_zero()
    assert ref_divide(f, [f], GREVLEX) == ([{(0, 0, 0): 1}], {})


def test_bad_arguments_raise_value_error():
    # checks that raise, not asserts, so that they hold under python -O
    with pytest.raises(ValueError):
        Polynomial.zero(VARS).leading_term()
    with pytest.raises(ValueError):
        X.substitute({"t": 1})


def test_divide_rejects_zero_divisor():
    with pytest.raises(ValueError):
        divide(X, [Polynomial.zero(VARS)], GREVLEX)


def test_unknown_order_kind_raises_value_error():
    with pytest.raises(ValueError):
        MonomialOrder("bogus")


def _ordered_terms(p, order):
    keys = [order.key(m) for m, _ in p.terms]
    assert keys == sorted(keys, reverse=True)
    assert all(type(c) is Fraction and c for _, c in p.terms)
    return list(p.terms)


def _assert_divide_matches_reference(f, divisors, order):
    none, r = divide(f, divisors, order)
    _, ref_r = ref_divide(f, divisors, order)
    assert none is None
    assert _ordered_terms(r, order) == sorted(
        ref_r.items(), key=lambda t: order.key(t[0]), reverse=True)


# leads with rational, non-monic coefficients, some on shared monomials
lead_coefficients = st.sampled_from(
    [Fraction(3, 7), Fraction(-1, 2), Fraction(5), Fraction(-9, 4)])


@st.composite
def rational_divisors(draw):
    tail = draw(term_dicts)
    mono = draw(monomials)
    tail[mono] = draw(lead_coefficients)
    return poly(tail)


@settings(max_examples=400)
@given(polys, st.lists(st.one_of(nonzero_polys, rational_divisors()),
                       min_size=1, max_size=3), orders)
def test_divide_matches_fraction_reference(f, divisors, order):
    _assert_divide_matches_reference(f, divisors, order)


# the ids keep the case names from when GRLEX and LEX ran as order1, order2
@pytest.mark.parametrize("order", [pytest.param(GREVLEX, id="order0"),
                                   pytest.param(GRADED_FIRST, id="order3")])
def test_divide_reference_cases(order):
    a = Fraction(3, 7) * X * Y - Fraction(1, 2)
    b = Fraction(-5, 3) * X * Y + Z ** 2 - 2
    f = Fraction(2, 9) * X ** 3 * Y ** 2 - X * Y * Z + Fraction(1, 5) * Y
    for f_, divisors in ((f, [a]), (f, [a, b]), (f, [b, a, X + Fraction(1, 3)]),
                         (Polynomial.zero(VARS), [a, b]), (a, [a]),
                         (f ** 2, [a * b, b, a])):
        _assert_divide_matches_reference(f_, divisors, order)
    none, r = divide(Polynomial.zero(VARS), [a, b], order)
    assert none is None and r.is_zero()


# --- printing round-trips through the constructor ---

@given(polys)
def test_str_has_no_surprises(f):
    s = str(f)
    assert s
    if f.is_zero():
        assert s == "0"
    else:
        assert "--" not in s and "+ -" not in s


def test_monomial_helpers():
    assert m_deg((2, 0, 3)) == 5
    assert m_divides((1, 0, 2), (2, 1, 2))
    assert not m_divides((1, 0, 3), (2, 1, 2))


# --- the integer kernel of * and **, against term-by-term Fractions ---

def _ref_mul(a, b):
    """Product of two term dicts, one Fraction product per pair of terms."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_pow(a, e):
    out = {(0,) * len(VARS): Fraction(1)}
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


def _fraction_terms(f):
    assert all(type(c) is Fraction and c for _, c in f.terms)
    return dict(f.terms)


@given(polys, polys)
def test_mul_matches_fraction_reference(f, g):
    assert _fraction_terms(f * g) == _ref_mul(f.terms_dict(), g.terms_dict())


@given(polys, st.integers(0, 5))
def test_pow_matches_fraction_reference(f, e):
    assert _fraction_terms(f ** e) == _ref_pow(f.terms_dict(), e)
    assert _fraction_terms(f ** 0) == {(0, 0, 0): 1}


@pytest.mark.parametrize("e", range(7))
def test_pow_with_mixed_denominators(e):
    f = Fraction(1, 2) * X + Fraction(1, 3) * Y - 1
    assert _fraction_terms(f ** e) == _ref_pow(f.terms_dict(), e)


def test_cancelling_products():
    assert _fraction_terms((X + Y) * (X - Y)) == {(2, 0, 0): 1, (0, 2, 0): -1}
    a, b = Fraction(1, 2) * X, Polynomial.constant(VARS, Fraction(1, 3))
    assert _fraction_terms((a + b) * (a - b)) == {
        (2, 0, 0): Fraction(1, 4), (0, 0, 0): Fraction(-1, 9)}
    assert (X - X) ** 3 == Polynomial.zero(VARS)


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        X ** -1


def test_monomial_power_is_one_term(monkeypatch):
    def refuse(*args):
        raise AssertionError("a monomial power took a polynomial product")

    monkeypatch.setattr(polyring, "_int_mul", refuse)
    assert (X ** 3_000_000).terms == (((3_000_000, 0, 0), Fraction(1)),)
    assert _fraction_terms((Fraction(-2, 3) * X * Y ** 2) ** 5) == {
        (5, 10, 0): Fraction(-32, 243)}


def _repeated_product(f, e):
    out = Polynomial.constant(f.vars, 1)
    for _ in range(e):
        out = out * f
    return out


def _mixed_f46():
    """f(4, 6) under x -> x + y + z, y -> y + z: 80 terms of mixed signs."""
    base = family_f(4, 6)
    x, y, z, *rest = (Polynomial.variable(base.vars, v) for v in base.vars)
    images = [x + y + z, y + z, z, *rest]
    f = Polynomial.zero(base.vars)
    for mono, c in base.terms:
        term = Polynomial.constant(base.vars, c)
        for image, e in zip(images, mono):
            term = term * image ** e
        f = f + term
    return f


@pytest.mark.parametrize("base, e", [
    (sum((X ** i for i in range(11)), Polynomial.zero(VARS)), 10),
    (_mixed_f46(), 3),
    ((X + Y) ** 2 + X * Y + Fraction(1, 3), 6),
], ids=["dense-univariate", "mixed-f46", "repeated-leading"])
def test_pow_with_colliding_monomials(base, e):
    # the peeled terms C(e, k) t^(e-k) g^k land on shared monomials here
    assert len(base.terms) > 2
    assert base ** e == _repeated_product(base, e)


# --- the validating constructor ---

@pytest.mark.parametrize("mono", [(1, 2), (1, 0, 0, 0), (1, -1, 0)])
def test_constructor_rejects_bad_exponents(mono):
    with pytest.raises(ValueError):
        Polynomial(VARS, {mono: 1})


@pytest.mark.parametrize("other", [
    Polynomial.variable(("x", "y"), "x"),
    Polynomial.variable(VARS, "x", GRADED_FIRST),
], ids=["mixed-vars", "mixed-orders"])
def test_mixed_rings_raise_value_error(other):
    # a check that raises, not an assert, so that it holds under -O
    for op in (X.__add__, X.__sub__, X.__mul__):
        with pytest.raises(ValueError):
            op(other)


# --- results built without re-sorting stay strictly descending ---

def _strictly_descending(f):
    keys = [f.order.key(m) for m, _ in f.terms]
    return all(a > b for a, b in zip(keys, keys[1:]))


@given(polys, orders, monomials, coefficients,
       st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_trusted_results_stay_descending(f, order, mono, c, v):
    fo = f.with_order(order)
    results = [fo, fo.scale_term(mono, c), -fo, fo.monic(), fo * fo,
               fo + fo.scale_term(mono, c),
               fo.substitute({"y": v}), fo.substitute({"x": 1}),
               fo.derivative("z"), homogenize(fo, ("w",) + VARS), fo ** 3]
    if not fo.is_zero():
        results.append(initial_part(fo).init)
    for g in results:
        assert _strictly_descending(g), (g, g.order)
        _fraction_terms(g)
