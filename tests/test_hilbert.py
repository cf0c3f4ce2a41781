"""Hilbert series of monomial ideals against a brute-force monomial count.

The oracle never touches the series code: it enumerates all monomials of
each degree and strikes the ones a generator divides.
"""

import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from oracles import hilbert_function

from germcone.hilbert import germ_multiplicity, hilbert_series, leading_ideal
from germcone.groebner import buchberger, tangent_cone
from germcone.parser import parse_ideal
from germcone.polyring import GREVLEX, Polynomial, m_divides


def monomials_of_degree(nvars, t):
    for bars in combinations_with_replacement(range(nvars), t):
        m = [0] * nvars
        for i in bars:
            m[i] += 1
        yield tuple(m)


def standard_monomial_count(gens, nvars, t):
    return sum(1 for m in monomials_of_degree(nvars, t)
               if not any(m_divides(g, m) for g in gens))


def random_monomial_ideal(rng):
    nvars = rng.randint(1, 3)
    gens = [tuple(rng.randint(0, 4) for _ in range(nvars))
            for _ in range(rng.randint(1, 5))]
    return [g for g in gens if sum(g) > 0] or [(0,) * nvars], nvars


def test_against_brute_force_200_ideals():
    rng = random.Random(20260818)
    for _ in range(200):
        gens, nvars = random_monomial_ideal(rng)
        data = hilbert_series(gens, nvars)
        for t in range(11):
            expected = standard_monomial_count(gens, nvars, t)
            assert hilbert_function(data.numerator, nvars, t) == expected, \
                (gens, nvars, t)


def seeded_series():
    for seed in (7, 99):
        rng = random.Random(seed)
        for _ in range(60):
            gens, nvars = random_monomial_ideal(rng)
            yield gens, nvars, hilbert_series(gens, nvars)


def finite_difference(values, k):
    return sum((-1) ** (k - j) * comb(k, j) * values[j] for j in range(k + 1))


def test_hilbert_polynomial_matches_function_eventually():
    # from the numerator's top degree on, the count is a polynomial of
    # degree below d: its d-th finite difference vanishes (for d = 0 the
    # count itself does)
    for gens, nvars, data in seeded_series():
        d = data.dim_affine
        if d < 0:
            continue
        top = data.numerator[-1][0]
        counts = [standard_monomial_count(gens, nvars, t)
                  for t in range(top, top + d + 4)]
        for s in range(4):
            assert finite_difference(counts[s:], d) == 0, (gens, nvars, s)


def test_dimension_is_polynomial_degree_plus_one():
    # that polynomial has degree exactly d - 1 and leading coefficient
    # mu / (d - 1)!, so its (d - 1)-th finite difference is mu; for d = 0 the
    # counts add up to mu, and d < 0 only for the unit ideal
    for gens, nvars, data in seeded_series():
        d, mu = data.dim_affine, data.degree
        if d < 0:
            assert (mu, standard_monomial_count(gens, nvars, 0)) == (0, 0)
            continue
        assert mu > 0, (gens, nvars)
        top = data.numerator[-1][0]
        if d == 0:
            counts = [standard_monomial_count(gens, nvars, t)
                      for t in range(top + 1)]
            assert sum(counts) == mu, (gens, nvars)
            continue
        counts = [standard_monomial_count(gens, nvars, t)
                  for t in range(top, top + d)]
        assert finite_difference(counts, d - 1) == mu, (gens, nvars)


# --- pinned small cases ---

def test_full_ring():
    data = hilbert_series([], 3)
    assert data.dim_affine == 3
    assert data.degree == 1
    assert hilbert_function(data.numerator, 3, 4) == 15


@pytest.mark.parametrize("gens, n", [([], 0), ([(1, 0), (0, 1, 2)], 2)],
                         ids=["no-variables", "wrong-exponent-length"])
def test_malformed_input_raises_value_error(gens, n):
    with pytest.raises(ValueError):
        hilbert_series(gens, n)


def test_unit_ideal():
    data = hilbert_series([(0, 0)], 2)
    assert data.dim_affine == -1
    for t in range(5):
        assert hilbert_function(data.numerator, 2, t) == 0


def test_double_point_on_a_line():
    data = hilbert_series([(2,)], 1)
    assert (data.dim_affine, data.degree) == (0, 2)


def test_double_line_in_the_plane():
    data = hilbert_series([(2, 0)], 2)
    assert (data.dim_affine, data.degree) == (1, 2)


def test_double_plane_in_space():
    data = hilbert_series([(0, 0, 2)], 3)
    assert (data.dim_affine, data.degree) == (2, 2)


def test_fat_point():
    data = hilbert_series([(2, 0), (1, 1), (0, 2)], 2)
    assert (data.dim_affine, data.degree) == (0, 3)


def test_pivot_powers_keep_the_recursion_shallow():
    # x^499*y^500, x^500*y^499 split at x^499 and y^499, not at x and y
    data = hilbert_series([(499, 500), (500, 499)], 2)
    assert (data.dim_affine, data.degree) == (1, 998)


def test_two_lines_with_multiplicity():
    # (x, y*z^2): a double structure on one axis plus a reduced one
    data = hilbert_series([(1, 0, 0), (0, 1, 2)], 3)
    assert (data.dim_affine, data.degree) == (1, 3)


# --- leading ideals ---

def test_leading_ideal_is_antichain():
    cone = tangent_cone(parse_ideal(
        "vars x, y, z;\n"
        "x*(x - z^3)*(x - 2*z^2);\n"
        "y*(y - z^3)*(y - 2*z^2);\n"
        "(x + y)*(x + y - z^3);\n").generators)
    monos = leading_ideal(buchberger(cone.generators, GREVLEX).basis)
    for a in monos:
        for b in monos:
            if a != b:
                assert not m_divides(a, b)


# --- germ multiplicity end to end ---

def test_cusp_multiplicity():
    V = ("x", "y")
    x = Polynomial.variable(V, "x")
    y = Polynomial.variable(V, "y")
    assert germ_multiplicity([x ** 2 - y ** 3]) == (1, 2)


def test_worked_example_multiplicity():
    gens = parse_ideal(
        "vars x, y, z;\n"
        "x*(x - z^3)*(x - 2*z^2);\n"
        "y*(y - z^3)*(y - 2*z^2);\n"
        "(x + y)*(x + y - z^3);\n").generators
    assert germ_multiplicity(gens) == (1, 3)


def test_smooth_point():
    V = ("x", "y", "z")
    x = Polynomial.variable(V, "x")
    assert germ_multiplicity([x]) == (2, 1)
