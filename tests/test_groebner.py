"""Buchberger, its certificates, and the tangent cone construction.

Two independent oracles guard the pipeline: every computed basis is
certified by reducing all S-polynomials to zero, and graded dimensions of
homogeneous quotients are recomputed by exact Gaussian elimination on the
degree slices, with no Groebner machinery involved.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from germcone import groebner
from germcone.families import family_linear_union
from germcone.groebner import (
    GermEmptyError, GroebnerBasis, ResourceLimitExceeded, _interreduce,
    buchberger, homogenize, spoly, tangent_cone)
from germcone.hilbert import hilbert_function, hilbert_series, leading_ideal
from germcone.parser import parse_ideal
from germcone.polyring import (GRADED_FIRST, GREVLEX, Polynomial, divide,
                               fresh_name, m_deg)

V3 = ("x", "y", "z")
X = Polynomial.variable(V3, "x")
Y = Polynomial.variable(V3, "y")
Z = Polynomial.variable(V3, "z")

WORKED = """\
vars x, y, z;
x*(x - z^3)*(x - 2*z^2);
y*(y - z^3)*(y - 2*z^2);
(x + y)*(x + y - z^3);
"""

TEST_IDEALS = [
    [X * Y - Z ** 2, Y ** 2 - X * Z],
    [X ** 2 + Y ** 2 + Z ** 2 - 1, X * Y - Z, X - Y + Z ** 3],
    [X * Y - 1, Y ** 2 - 1],
    parse_ideal(WORKED).generators,
]


def assert_spolys_reduce(gb):
    for f, g in combinations_with_replacement(gb.basis, 2):
        if f is g:
            continue
        _, r = divide(spoly(f, g, gb.order), gb.basis, gb.order)
        assert r.is_zero(), f"S({f}, {g}) left remainder {r}"


def assert_generators_contained(gens, gb):
    for g in gens:
        _, r = divide(g, gb.basis, gb.order)
        assert r.is_zero()


# --- exact linear-algebra oracle for graded dimensions ---

def _monomials(nvars, t):
    out = []
    for bars in combinations_with_replacement(range(nvars), t):
        m = [0] * nvars
        for i in bars:
            m[i] += 1
        out.append(tuple(m))
    return out


def _rank(rows):
    rank = 0
    rows = [list(r) for r in rows if any(r)]
    cols = len(rows[0]) if rows else 0
    lead = 0
    for col in range(cols):
        piv = next((i for i in range(lead, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = Fraction(1) / rows[lead][col]
        rows[lead] = [v * inv for v in rows[lead]]
        for i in range(len(rows)):
            if i != lead and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[lead])]
        lead += 1
        rank += 1
        if lead == len(rows):
            break
    return rank


def graded_quotient_dim(gens, t):
    """dim of degree-t slice of ring/(gens) for homogeneous gens, by RREF."""
    nvars = len(gens[0].vars)
    basis = _monomials(nvars, t)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        shift = t - g.degree()
        if shift < 0:
            continue
        for m in _monomials(nvars, shift):
            row = [Fraction(0)] * len(basis)
            for mono, c in g.terms:
                row[index[tuple(a + b for a, b in zip(m, mono))]] = c
            rows.append(row)
    return len(basis) - (_rank(rows) if rows else 0)


# --- buchberger ---

@pytest.mark.parametrize("gens", TEST_IDEALS)
def test_spoly_certificate(gens):
    gb = buchberger(gens, GREVLEX)
    assert_spolys_reduce(gb)
    assert_generators_contained(gens, gb)


def test_lex_worked_example():
    # the reduced basis is the same under grevlex
    gb = buchberger([X * Y - 1, Y ** 2 - 1], GREVLEX)
    assert set(_interreduce(gb.basis, GREVLEX)) == {Y ** 2 - 1, X - Y}


def test_basis_is_monic_and_autoreduced():
    basis = _interreduce(buchberger(TEST_IDEALS[0], GREVLEX).basis, GREVLEX)
    lead = [g.leading_monomial() for g in basis]
    for g in basis:
        assert g.leading_coeff() == 1
        for mono, _ in g.terms:
            others = [lm for lm in lead if lm != g.leading_monomial()]
            assert not any(all(a <= b for a, b in zip(lm, mono))
                           for lm in others)


def test_reduced_basis_is_fixed_point():
    def reduced(gens):
        return _interreduce(buchberger(gens, GREVLEX).basis, GREVLEX)

    basis = reduced(TEST_IDEALS[0])
    assert set(reduced(basis)) == set(basis)


def test_principal_ideal():
    f = 2 * X ** 2 - Y ** 3
    gb = buchberger([f], GREVLEX)
    assert gb.basis == [f.monic()]


def test_unit_ideal_detection():
    gb = buchberger([X, X + 1], GREVLEX)
    assert Polynomial.constant(V3, 1) in gb.basis


@pytest.mark.parametrize("gens", [[], [X, Polynomial.zero(V3)]],
                         ids=["empty", "zero-generator"])
def test_malformed_buchberger_input_raises_value_error(gens):
    with pytest.raises(ValueError):
        buchberger(gens, GREVLEX)


def test_budget_exhausts():
    with pytest.raises(ResourceLimitExceeded):
        buchberger(parse_ideal(WORKED).generators, GREVLEX, budget=2)


def _worked_cone_run():
    gens = parse_ideal(WORKED).generators
    ext = (fresh_name(gens[0].vars),) + gens[0].vars
    return [homogenize(g, ext) for g in gens], GRADED_FIRST


PINNED_WORK = [
    (lambda: (parse_ideal(WORKED).generators, GREVLEX), (17, 7)),
    (_worked_cone_run, (27, 15)),
    (lambda: (family_linear_union(4, 3, 3, 2), GREVLEX), (22, 8)),
]


@pytest.mark.parametrize("make, work", PINNED_WORK,
                         ids=["worked", "worked-cone", "union-4332"])
def test_pair_order_pins_the_work(make, work):
    # the pair queue may get faster but must not reorder: the same pairs
    # are reduced, so the count, the basis and the budget cut-off stay put
    gens, order = make()
    gb = buchberger(gens, order)
    assert (gb.reductions, len(_interreduce(gb.basis, order))) == work
    with pytest.raises(ResourceLimitExceeded):
        buchberger(gens, order, budget=work[0] - 1)


def test_divide_hook_counts_every_reduction(monkeypatch):
    # the benchmark wraps groebner.divide and reports progress in its calls:
    # one per S-pair reduction in buchberger, and one per cone generator
    # in the single interreduce sweep of tangent_cone
    calls, inside = [], []
    divide_, interreduce_ = groebner.divide, groebner._interreduce

    def counted_divide(*args):
        calls.append(1)
        return divide_(*args)

    def counted_interreduce(*args):
        before = len(calls)
        out = interreduce_(*args)
        inside.append(len(calls) - before)
        return out

    monkeypatch.setattr(groebner, "divide", counted_divide)
    monkeypatch.setattr(groebner, "_interreduce", counted_interreduce)
    gb = buchberger(*_worked_cone_run())
    assert inside == []
    assert len(calls) == gb.reductions == 27
    del calls[:]
    cone = tangent_cone(parse_ideal(WORKED).generators)
    assert inside == [len(cone.generators)] == [5]
    assert len(calls) == 27 + 5


def test_divide_returns_the_remainder_at_index_1():
    # the benchmark's divide hook reads the remainder as out[1]
    out = groebner.divide(X ** 2 * Y + X * Y ** 2, [X * Y - 1], GREVLEX)
    assert len(out) == 2 and out[0] is None and out[1] == X + Y


def sympy_reduced_grevlex(gens):
    """sympy's reduced grevlex basis of gens, as a set of monic Polynomials."""
    vars = gens[0].vars
    syms = sp.symbols(vars)

    def to_sympy(p):
        return sum(sp.Rational(c.numerator, c.denominator)
                   * sp.prod([s ** e for s, e in zip(syms, m)])
                   for m, c in p.terms)

    def from_sympy(e):
        poly = sp.Poly(e, *syms)
        d = {m: Fraction(c.p, c.q) for m, c in zip(poly.monoms(), poly.coeffs())}
        return Polynomial(vars, d).monic()

    ref = sp.groebner([to_sympy(g) for g in gens], *syms, order="grevlex")
    return {from_sympy(e) for e in ref.exprs}


def test_agrees_with_sympy():
    for gens in TEST_IDEALS[:3]:
        mine = set(_interreduce(buchberger(gens, GREVLEX).basis, GREVLEX))
        assert mine == sympy_reduced_grevlex(gens)


# --- spoly ---

def test_spoly_cancels_leading_terms():
    f, g = X * Y - Z ** 2, Y ** 2 - X * Z
    s = spoly(f, g, GREVLEX)
    assert s == X ** 2 * Z - Y * Z ** 2
    lcm_deg = 3
    assert all(m_deg(m) <= lcm_deg for m, _ in s.terms)


# --- homogenize ---

def test_homogenize_lifts_to_top_degree():
    ext = ("w",) + V3
    h = homogenize(X ** 2 - Y ** 3, ext)
    assert h.is_homogeneous()
    assert h.degree() == 3
    assert h.substitute({"w": 1}) == X ** 2 - Y ** 3


# --- tangent cone ---

def test_cone_of_cusp():
    cone = tangent_cone([X ** 2 - Y ** 3])
    assert cone.generators == [X ** 2]
    assert cone.vars == V3


def test_cone_of_worked_example():
    cone = tangent_cone(parse_ideal(WORKED).generators)
    assert [str(g) for g in cone.generators] == [
        "x^2 + 2*x*y + y^2", "y^3", "x*y^2", "y^2*z^4", "x*y*z^4"]


def test_cone_needs_second_pass():
    """Initial forms of a standard basis need not be auto-reduced."""
    cone = tangent_cone([X * Y, X - Z ** 2])
    assert [str(g) for g in cone.generators] == ["x", "y*z^2"]


def test_cone_generators_homogeneous_and_reduced():
    # d and mu are read off these leading monomials with no further run,
    # so the cone must already be the reduced grevlex basis
    for gens in (TEST_IDEALS[0], TEST_IDEALS[3],
                 family_linear_union(4, 3, 3, 2)):
        cone = tangent_cone(gens)
        assert all(g.is_homogeneous() for g in cone.generators)
        gb = GroebnerBasis(GREVLEX, list(cone.generators))
        assert_spolys_reduce(gb)
        again = buchberger(cone.generators, GREVLEX).basis
        assert _interreduce(again, GREVLEX) == cone.generators


@pytest.mark.parametrize("gens", [parse_ideal(WORKED).generators,
                                  family_linear_union(4, 3, 3, 2)],
                         ids=["worked", "union-4332"])
def test_cone_is_one_groebner_run(gens, monkeypatch):
    calls = []
    real = groebner.buchberger

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    tangent_cone(gens)
    assert len(calls) == 1


@st.composite
def germ_ideals(draw, at_origin=True):
    """1-3 generators in 2 or 3 variables, mostly non-homogeneous.

    With at_origin they vanish at 0; without it they may have constant terms.
    """
    vars = V3[:draw(st.integers(2, 3))]
    monomial = st.tuples(*(st.integers(0, 3) for _ in vars))
    if at_origin:
        monomial = monomial.filter(any)
    coeff = st.fractions(min_value=-4, max_value=4,
                         max_denominator=3).filter(lambda q: q != 0)
    terms = st.dictionaries(monomial, coeff, min_size=1, max_size=4)
    return [Polynomial(vars, d) for d in
            draw(st.lists(terms, min_size=1, max_size=3))]


@settings(max_examples=150, deadline=None)
@given(germ_ideals(at_origin=False))
def test_one_interreduce_sweep_gives_the_reduced_basis(gens):
    # buchberger returns the basis as built; one sweep of _interreduce must
    # turn it into the unique reduced basis that sympy computes
    try:
        gb = buchberger(gens, GREVLEX, budget=60)
    except ResourceLimitExceeded:
        assume(False)
    assert set(_interreduce(gb.basis, GREVLEX)) == sympy_reduced_grevlex(gens)


@settings(max_examples=150, deadline=None)
@given(germ_ideals())
def test_initial_forms_need_no_second_run(gens):
    # the standard-basis fact tangent_cone rests on: its interreduced
    # initial forms are already the reduced grevlex basis of the cone
    try:
        cone = tangent_cone(gens, budget=40)
    except ResourceLimitExceeded:
        assume(False)
    again = buchberger(cone.generators, GREVLEX).basis
    assert _interreduce(again, GREVLEX) == cone.generators


@st.composite
def germ_hypersurfaces(draw):
    """One polynomial with no constant term in 2-4 variables."""
    vars = ("x", "y", "z", "t")[:draw(st.integers(2, 4))]
    monomial = st.tuples(*(st.integers(0, 3) for _ in vars)).filter(any)
    coeff = st.fractions(min_value=-4, max_value=4,
                         max_denominator=3).filter(lambda q: q != 0)
    return Polynomial(vars, draw(st.dictionaries(monomial, coeff, min_size=1,
                                                 max_size=5)))


@settings(max_examples=150, deadline=None)
@given(germ_hypersurfaces())
def test_principal_cone_matches_buchberger_route(f):
    # (f) = (f, x f), but only the second takes the Buchberger route
    x = Polynomial.variable(f.vars, "x")
    assert tangent_cone([f]).generators == tangent_cone([f, x * f]).generators


def test_principal_cone_runs_no_buchberger(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a principal ideal reached buchberger")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    cone = tangent_cone([Polynomial.zero(V3), X ** 2 - Y ** 3 + X * Z])
    assert [str(g) for g in cone.generators] == ["x^2 + x*z"]


def test_cone_idempotent():
    for gens in ([X * Y, X - Z ** 2], parse_ideal(WORKED).generators):
        once = tangent_cone(gens)
        twice = tangent_cone(once.generators)
        assert twice.generators == once.generators


def test_cone_graded_dims_match_linear_algebra():
    """Hilbert numerator vs plain RREF on the cone's degree slices."""
    for gens in ([X * Y, X - Z ** 2], parse_ideal(WORKED).generators):
        cone = tangent_cone(gens)
        gb = buchberger(cone.generators, GREVLEX)
        data = hilbert_series(leading_ideal(gb.basis), 3)
        for t in range(8):
            assert hilbert_function(data.numerator, 3, t) == \
                graded_quotient_dim(cone.generators, t)


def test_germ_off_origin_rejected():
    with pytest.raises(GermEmptyError):
        tangent_cone([X + 1])
    with pytest.raises(GermEmptyError):
        tangent_cone([X, X + 1])


def test_zero_ideal_rejected():
    with pytest.raises(ValueError):
        tangent_cone([Polynomial.zero(V3)])


@pytest.mark.parametrize("gens", [
    [], [X, Polynomial.variable(("x", "y"), "y")],
], ids=["empty", "mixed-vars"])
def test_malformed_generator_lists_raise_value_error(gens):
    with pytest.raises(ValueError):
        tangent_cone(gens)


def test_zero_generators_dropped():
    cone = tangent_cone([Polynomial.zero(V3), X ** 2])
    assert cone.generators == [X ** 2]


def test_cone_budget():
    with pytest.raises(ResourceLimitExceeded):
        tangent_cone(parse_ideal(WORKED).generators, budget=5)
