"""The built-in germ families and their advertised pipeline invariants."""

from fractions import Fraction

import pytest
import sympy as sp

from germcone.families import (
    family_f, family_g, family_linear_union, transform_embed,
    transform_product)
from germcone.groebner import tangent_cone
from germcone.hilbert import germ_multiplicity
from germcone.localforms import initial_part
from germcone.polyring import Polynomial
from germcone.singular import singular_dimension


def pipeline(gens):
    n = len(gens[0].vars)
    d, mu = germ_multiplicity(gens)
    cone = tangent_cone(gens)
    s = singular_dimension(cone, n, d)
    return d, mu, s, cone


# --- quartic-cone family ---

def test_g_shape():
    g = family_g(2)
    assert g.vars == ("x", "y", "z")
    assert g.degree() == 8
    assert g.min_degree() == 4


@pytest.mark.parametrize("l,cone_str,s", [
    (2, "x^4 + 2*x^2*y^2 + 2*y^4", 1),
    (3, "x^4 + 2*x^2*y^2 + y^4", 2),
    (4, "x^4 + 2*x^2*y^2 + y^4", 2),
])
def test_g_pipeline(l, cone_str, s):
    d, mu, got_s, cone = pipeline([family_g(l)])
    assert (d, mu, got_s) == (2, 4, s)
    assert [str(c) for c in cone.generators] == [cone_str]


def test_g_initial_part_l2_has_extra_term():
    """At l = 2 the strip product reaches degree 4 and shifts the cone."""
    part = initial_part(family_g(2))
    x = Polynomial.variable(("x", "y", "z"), "x")
    y = Polynomial.variable(("x", "y", "z"), "y")
    assert part.mu == 4
    assert part.init == (x ** 2 + y ** 2) ** 2 + y ** 4


def test_g_initial_part_l3_is_squared_circle():
    part = initial_part(family_g(3))
    x = Polynomial.variable(("x", "y", "z"), "x")
    y = Polynomial.variable(("x", "y", "z"), "y")
    assert part.init == (x ** 2 + y ** 2) ** 2


@pytest.mark.parametrize("l", [2, 3, 4])
def test_g_initial_part_matches_sympy_oracle(l):
    """Expand g(l) from its formula in sympy and keep the lowest-degree terms;
    this must equal germcone's initial part and the cone criterion 2 pins."""
    x, y, z = syms = sp.symbols("x y z")
    strip = sp.Mul(*(y - sp.Rational(2 * i - 2 * l + 1, 2 * l) * z ** 2
                     for i in range(2 * l)))
    g = sp.Poly((x ** 2 + y ** 2 - z ** 4) ** 2 + strip, *syms)
    low = min(sum(m) for m in g.monoms())
    oracle = sp.Poly.from_dict(
        {m: c for m, c in g.terms() if sum(m) == low}, *syms)
    ours = sp.Poly.from_dict(
        {m: sp.Rational(c.numerator, c.denominator)
         for m, c in initial_part(family_g(l)).init.terms}, *syms)
    pinned = sp.Poly((x ** 2 + y ** 2) ** 2 + (y ** 4 if 2 * l == 4 else 0),
                     *syms)
    assert low == 4
    assert oracle == ours == pinned


def test_g_rejects_small_l():
    with pytest.raises(ValueError):
        family_g(1)


# --- root-fan family ---

def test_f_shape():
    f = family_f(5, 3)
    assert f.vars == ("x", "y", "z", "t1", "t2")
    assert f.degree() == 6
    assert f.min_degree() == 2


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("l", [2, 3])
def test_f_pipeline(n, l):
    d, mu, s, cone = pipeline([family_f(n, l)])
    assert (d, mu, s) == (n - 1, 2, n - 1)
    assert [str(c) for c in cone.generators] == ["z^2"]


def test_f_vanishes_on_the_root_lines():
    f = family_f(3, 2)
    for r in range(4):
        point = {"x": Fraction(r) * 7, "y": Fraction(7), "z": Fraction(0)}
        assert f.evaluate(point) == 0


def test_f_rejects_bad_parameters():
    with pytest.raises(ValueError):
        family_f(2, 2)
    with pytest.raises(ValueError):
        family_f(3, 1)


# --- transformations ---

@pytest.mark.parametrize("transform", [transform_product, transform_embed])
def test_transforms_reject_no_generators(transform):
    with pytest.raises(ValueError):
        transform([])


def test_product_transform_bookkeeping():
    gens = transform_product([family_f(3, 2)])
    assert gens[0].vars == ("x", "y", "z", "w")
    d, mu, s, _ = pipeline(gens)
    assert (d, mu, s) == (3, 2, 3)


def test_embed_transform_bookkeeping():
    gens = transform_embed([family_f(3, 2)])
    assert len(gens) == 2
    d, mu, s, cone = pipeline(gens)
    assert (d, mu, s) == (2, 2, 2)
    assert sorted(str(c) for c in cone.generators) == ["w", "z^2"]


def test_transforms_commute_on_invariants():
    base = [family_f(3, 2)]
    pe = pipeline(transform_product(transform_embed(base)))[:3]
    ep = pipeline(transform_embed(transform_product(base)))[:3]
    assert pe == ep == (3, 2, 3)


# --- plane-union family ---

@pytest.mark.parametrize("n,d,k,l,ngens,deg", [
    (3, 2, 2, 2, 4, 3),
    (3, 2, 2, 4, 16, 5),
    (4, 3, 3, 2, 9, 3),
])
def test_union_pipeline(n, d, k, l, ngens, deg):
    gens = family_linear_union(n, d, k, l)
    assert len(gens) == ngens
    assert all(g.degree() == deg for g in gens)
    assert all(g.is_homogeneous() for g in gens)
    got_d, mu = germ_multiplicity(gens)
    assert (got_d, mu) == (d, 1)


def test_union_rejects_bad_parameters():
    with pytest.raises(ValueError, match="1 <= d"):
        family_linear_union(3, 3, 2, 2)
    with pytest.raises(ValueError, match="n - k < d"):
        family_linear_union(4, 2, 2, 2)
    with pytest.raises(ValueError, match="d <= k"):
        family_linear_union(4, 3, 2, 2)


def restrict_to_line(g, p, q):
    """g composed with the line t -> p + t(q - p), as a polynomial in t."""
    tvars = ("t",)
    t = Polynomial.variable(tvars, "t")
    coords = [Polynomial.constant(tvars, a) + (b - a) * t
              for a, b in zip(p, q)]
    total = Polynomial.zero(tvars)
    for mono, c in g.terms:
        term = Polynomial.constant(tvars, c)
        for coord, e in zip(coords, mono):
            term = term * coord ** e
        total = total + term
    return total


def test_union_line_meets_three_pieces():
    """A line through one point of each small plane hits the union in
    exactly l + 1 = 3 points: those two plus one crossing of the big plane.
    """
    gens = family_linear_union(3, 2, 2, 2)
    p = (Fraction(1, 9), Fraction(1, 3), Fraction(1))
    q = (Fraction(1, 16), Fraction(1, 4), Fraction(1))
    for g in gens:
        assert g.evaluate(dict(zip(g.vars, p))) == 0
        assert g.evaluate(dict(zip(g.vars, q))) == 0

    ts = sp.symbols("t")
    restricted = []
    for g in gens:
        r = restrict_to_line(g, p, q)
        assert r.degree() == 3
        restricted.append(sum(
            sp.Rational(c.numerator, c.denominator) * ts ** m[0]
            for m, c in r.terms))
    common = sp.gcd_list(restricted)
    roots = sp.roots(sp.Poly(common, ts))
    assert sum(roots.values()) == 3
    assert all(mult == 1 for mult in roots.values())
    assert sp.Integer(0) in roots and sp.Integer(1) in roots
