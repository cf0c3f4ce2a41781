"""Jacobian criterion on tangent cones: minors, emptiness, dimension."""

import pytest

from germcone.groebner import ResourceLimitExceeded, TangentConeIdeal, tangent_cone
from germcone.parser import parse_ideal
from germcone.polyring import Polynomial
from germcone.singular import MINOR_CAP, jacobian_minors, singular_dimension

V3 = ("x", "y", "z")
X = Polynomial.variable(V3, "x")
Y = Polynomial.variable(V3, "y")
Z = Polynomial.variable(V3, "z")


def cone_of(gens):
    return tangent_cone(gens)


def test_minors_of_single_generator():
    minors = jacobian_minors([X * Y - Z ** 2], 1)
    assert set(minors) == {Y, X, -2 * Z}


def test_minors_two_by_two():
    minors = jacobian_minors([X ** 2, Y ** 2], 2)
    # rows (2x, 0, 0) and (0, 2y, 0): one nonzero 2x2 minor
    assert minors == [4 * X * Y]


def test_minors_dedup_keeps_first_seen_order():
    # rows (y, x, 0) and (y, x, 1): y and x repeat in the second row
    assert jacobian_minors([X * Y, X * Y + Z], 1) == [Y, X, 1]


def test_minor_size_validation():
    with pytest.raises(ValueError):
        jacobian_minors([X], 2)
    with pytest.raises(ValueError):
        jacobian_minors([X, Y], 0)


def test_minor_cap():
    n = 24
    vars = tuple(f"x{i}" for i in range(n))
    gens = [Polynomial.variable(vars, v) for v in vars]
    c = 12
    from math import comb
    assert comb(n, c) ** 2 > MINOR_CAP
    with pytest.raises(ResourceLimitExceeded):
        jacobian_minors(gens, c)


# --- dimension of the singular locus ---

def test_double_plane_is_singular_everywhere():
    cone = TangentConeIdeal(vars=V3, generators=[Z ** 2])
    data = singular_dimension(cone, 3, 2)
    assert data.s == 2
    assert not data.empty


def test_smooth_line_in_plane():
    V = ("x", "y")
    x = Polynomial.variable(V, "x")
    cone = TangentConeIdeal(vars=V, generators=[x])
    data = singular_dimension(cone, 2, 1)
    assert data.empty
    assert data.s == -1


def test_smooth_quadric_cone_vertex():
    # x^2 + y^2 - z^2: singular exactly at the vertex
    cone = TangentConeIdeal(vars=V3, generators=[X ** 2 + Y ** 2 - Z ** 2])
    data = singular_dimension(cone, 3, 2)
    assert data.s == 0
    assert not data.empty


def test_worked_example_singular_dimension():
    gens = parse_ideal(
        "vars x, y, z;\n"
        "x*(x - z^3)*(x - 2*z^2);\n"
        "y*(y - z^3)*(y - 2*z^2);\n"
        "(x + y)*(x + y - z^3);\n").generators
    cone = cone_of(gens)
    data = singular_dimension(cone, 3, 1)
    assert data.s == 1


def test_variable_permutation_invariance():
    def permuted(p, perm):
        d = {tuple(m[i] for i in perm): c for m, c in p.terms}
        return Polynomial(p.vars, d, p.order)

    base = [X ** 2 + Y ** 2 - Z ** 2]
    for perm in [(1, 2, 0), (2, 1, 0), (0, 2, 1)]:
        gens = [permuted(g, perm) for g in base]
        cone = TangentConeIdeal(vars=V3, generators=gens)
        assert singular_dimension(cone, 3, 2).s == 0


def test_union_of_two_planes():
    # z*(z - x): singular along the plane intersection, a line... but the
    # Jacobian vanishes on {2z = x} intersected with the cone: the line z=0=x
    cone = cone_of([Z * (Z - X)])
    data = singular_dimension(cone, 3, 2)
    assert data.s == 1
