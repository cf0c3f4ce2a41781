"""Initial parts and the rescaling that exhibits them as limits."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import conic_blowup, evaluate, terms_dict, zero

from germcone.groebner import initial_part
from germcone.polyring import Polynomial

VARS = ("x", "y", "z")

coeff = st.fractions(min_value=-8, max_value=8,
                     max_denominator=6).filter(lambda q: q != 0)
mono = st.tuples(*(st.integers(0, 4) for _ in VARS))
nonzero = st.builds(
    lambda d: Polynomial(VARS, d),
    st.dictionaries(mono, coeff, min_size=1, max_size=5))


def test_initial_part_example():
    x = Polynomial.variable(VARS, "x")
    z = Polynomial.variable(VARS, "z")
    f = x ** 2 - x ** 3 + z ** 5
    part = initial_part(f)
    assert part.mu == 2
    assert part.init == x ** 2


def test_initial_part_of_homogeneous_is_identity():
    x = Polynomial.variable(VARS, "x")
    y = Polynomial.variable(VARS, "y")
    f = x * y - y ** 2
    assert initial_part(f).init == f


def test_initial_part_rejects_zero():
    with pytest.raises(ValueError):
        initial_part(zero(VARS))


@settings(max_examples=500)
@given(nonzero, nonzero)
def test_initial_part_multiplicative(f, g):
    fg = initial_part(f * g)
    lhs, rhs = initial_part(f), initial_part(g)
    assert fg.mu == lhs.mu + rhs.mu
    assert fg.init == lhs.init * rhs.init


@given(nonzero)
def test_blowup_at_one_is_identity(f):
    assert conic_blowup(f, 1) == f


@given(nonzero, st.sampled_from([Fraction(1, 2), Fraction(1, 3),
                                 Fraction(2, 5), Fraction(-1, 2)]))
def test_blowup_is_substitution_scaling(f, eps):
    """g(p) == f(eps p) / eps^mu at rational points, the defining identity."""
    g = conic_blowup(f, eps)
    mu = f.min_degree()
    for p in [{"x": Fraction(1), "y": Fraction(-1, 2), "z": Fraction(2)},
              {"x": Fraction(0), "y": Fraction(1, 3), "z": Fraction(-1)}]:
        scaled = {v: eps * c for v, c in p.items()}
        assert evaluate(g, p) == evaluate(f, scaled) / eps ** mu


@given(nonzero)
def test_blowup_fixes_initial_part(f):
    g = conic_blowup(f, Fraction(1, 7))
    assert initial_part(g).init == initial_part(f).init
    assert g.min_degree() == f.min_degree()


def test_blowup_damps_higher_terms_exactly():
    x = Polynomial.variable(VARS, "x")
    z = Polynomial.variable(VARS, "z")
    f = x ** 2 + 3 * z ** 4
    g = conic_blowup(f, Fraction(1, 10))
    assert terms_dict(g) == {(2, 0, 0): Fraction(1),
                              (0, 0, 4): Fraction(3, 100)}


def test_blowup_rejects_zero_eps():
    x = Polynomial.variable(VARS, "x")
    with pytest.raises(ValueError):
        conic_blowup(x, 0)
