"""Jacobian criterion on tangent cones: minors, emptiness, dimension."""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from germcone import singular
from germcone.cli import main
from germcone.families import (family_g, family_linear_union, transform_embed,
                               transform_product)
from germcone.groebner import (GREVLEX, ResourceLimitExceeded, TangentConeIdeal,
                               buchberger, tangent_cone)
from germcone.hilbert import hilbert_function, hilbert_series, leading_ideal
from germcone.parser import IdealFile, format_ideal, parse_ideal
from germcone.polyring import Polynomial
from germcone.singular import MINOR_CAP, P, jacobian_minors, singular_dimension

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


def test_minors_of_no_generators_is_a_value_error():
    with pytest.raises(ValueError):
        jacobian_minors([], 1)


def test_minor_cap():
    n = 24
    vars = tuple(f"x{i}" for i in range(n))
    gens = [Polynomial.variable(vars, v) for v in vars]
    c = 12
    assert comb(n, c) ** 2 > MINOR_CAP
    with pytest.raises(ResourceLimitExceeded):
        jacobian_minors(gens, c)


# --- dimension of the singular locus ---

def test_double_plane_is_singular_everywhere():
    cone = TangentConeIdeal(vars=V3, generators=[Z ** 2])
    assert singular_dimension(cone, 3, 2) == 2


def test_smooth_line_in_plane():
    V = ("x", "y")
    x = Polynomial.variable(V, "x")
    cone = TangentConeIdeal(vars=V, generators=[x])
    assert singular_dimension(cone, 2, 1) == -1


def test_smooth_quadric_cone_vertex():
    # x^2 + y^2 - z^2: singular exactly at the vertex
    cone = TangentConeIdeal(vars=V3, generators=[X ** 2 + Y ** 2 - Z ** 2])
    assert singular_dimension(cone, 3, 2) == 0


def test_empty_cone_is_a_value_error():
    with pytest.raises(ValueError):
        singular_dimension(TangentConeIdeal(vars=V3, generators=[]), 3, 3)


def test_worked_example_singular_dimension():
    gens = parse_ideal(
        "vars x, y, z;\n"
        "x*(x - z^3)*(x - 2*z^2);\n"
        "y*(y - z^3)*(y - 2*z^2);\n"
        "(x + y)*(x + y - z^3);\n").generators
    cone = cone_of(gens)
    assert singular_dimension(cone, 3, 1) == 1


def test_variable_permutation_invariance():
    def permuted(p, perm):
        d = {tuple(m[i] for i in perm): c for m, c in p.terms}
        return Polynomial(p.vars, d, p.order)

    base = [X ** 2 + Y ** 2 - Z ** 2]
    for perm in [(1, 2, 0), (2, 1, 0), (0, 2, 1)]:
        gens = [permuted(g, perm) for g in base]
        cone = TangentConeIdeal(vars=V3, generators=gens)
        assert singular_dimension(cone, 3, 2) == 0


def test_union_of_two_planes():
    # z*(z - x): singular along the plane intersection, a line... but the
    # Jacobian vanishes on {2z = x} intersected with the cone: the line z=0=x
    cone = cone_of([Z * (Z - X)])
    assert singular_dimension(cone, 3, 2) == 1


# --- the m-primary certificate ahead of the exact path ---

def _counting_buchberger(monkeypatch):
    calls = []
    real = singular.buchberger

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(singular, "buchberger", counted)
    return calls


def _cone_n_d(gens):
    cone = tangent_cone(gens)
    n = len(gens[0].vars)
    return cone, n, hilbert_series(leading_ideal(cone.generators), n).dim_affine


@pytest.mark.parametrize("text, n, d", [
    ("vars x, y, z;\n(x + y + z + 1)^30 - 1;\n", 3, 2),
    ("vars x, y, z, w;\nx;\ny;\n", 4, 2),
], ids=["power30", "two-hyperplanes"])
def test_linear_cone_is_empty_after_no_reduction(text, n, d, monkeypatch):
    # a linear cone's minors are constants: the singular run's basis holds 1
    # before any S-pair is reduced, and its Hilbert series gives s = -1
    runs = []
    real = singular.buchberger

    def recorded(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(singular, "buchberger", recorded)
    cone, n_, d_ = _cone_n_d(parse_ideal(text).generators)
    assert (n_, d_) == (n, d)
    assert singular_dimension(cone, n, d) == -1
    (gb,) = runs
    assert gb.reductions == 0
    assert Polynomial.constant(cone.vars, 1) in gb.basis


# An optional fifth entry is a transform applied to the union's generators;
# the embedded unions carry a linear generator, whose leading variable
# leaves standard only the degree-D monomials free of it.
@pytest.mark.parametrize("args", [(3, 2, 2, 2), (4, 3, 3, 1), (4, 3, 3, 2),
                                  (5, 3, 3, 1), (4, 3, 3, 2, transform_embed),
                                  (5, 3, 3, 1, transform_embed)])
def test_certificate_agrees_with_exact_path(args, monkeypatch):
    gens = family_linear_union(*args[:4])
    for transform in args[4:]:
        gens = transform(gens)
    cone, n, d = _cone_n_d(gens)
    calls = _counting_buchberger(monkeypatch)
    fast = singular_dimension(cone, n, d)
    assert not calls                    # the certificate settled it
    monkeypatch.setattr(singular, "_m_primary", lambda *_: False)
    exact = singular_dimension(cone, n, d)
    assert calls
    assert fast == exact == 0


@pytest.mark.parametrize("gens", [
    parse_ideal("vars x, y, z;\n"
                "x*(x - z^3)*(x - 2*z^2);\n"
                "y*(y - z^3)*(y - 2*z^2);\n"
                "(x + y)*(x + y - z^3);\n").generators,
    [family_g(2)],
], ids=["worked", "g2"])
def test_non_filling_germs_still_run_buchberger(gens, monkeypatch):
    cone, n, d = _cone_n_d(gens)
    calls = _counting_buchberger(monkeypatch)
    assert singular_dimension(cone, n, d) >= 1
    assert calls


@pytest.mark.parametrize("den, fires", [(3, True), (P, False)])
def test_denominator_divisible_by_p_falls_back(den, fires, monkeypatch):
    f = X ** 2 + Y ** 2 - Fraction(1, den) * Z ** 2
    cone = TangentConeIdeal(vars=V3, generators=[f])
    calls = _counting_buchberger(monkeypatch)
    assert singular_dimension(cone, 3, 2) == 0
    assert bool(calls) is not fires


@pytest.mark.parametrize("c, fires", [(1, True), (2, False), (3, False)])
def test_generator_vanishing_mod_p_is_left_out(c, fires, monkeypatch):
    # P x^2 has no leading monomial mod P, so it is no reducer; the rows
    # stay congruent to the draws, and (x^2, y^2, z^2, x y) is m-primary.
    gens = [P * X ** 2, Y ** 2, Z ** 2, X * Y]
    assert singular._m_primary(gens, 3, c) is fires
    calls = _counting_buchberger(monkeypatch)
    cone = TangentConeIdeal(vars=V3, generators=gens)
    assert singular_dimension(cone, 3, 3 - c) == 0
    assert bool(calls) is not fires


def _forbid(monkeypatch, name):
    def trap(*_):
        raise AssertionError(f"singular.{name} was called")

    monkeypatch.setattr(singular, name, trap)


def _analyze_without_exact_path(ideal, out, monkeypatch):
    """The exit code and (d, mu, s) of analyze, with no Q minor or basis."""
    for name in ("buchberger", "jacobian_minors"):
        _forbid(monkeypatch, name)
    code = main(["analyze", str(ideal), "-o", str(out)])
    report = json.loads(out.read_text())
    return code, tuple(report[k] for k in ("dimension_d", "multiplicity_mu",
                                           "singular_dimension_s"))


def test_union_5332_analyze_takes_the_certificate(tmp_path, monkeypatch):
    ideal, out = tmp_path / "u.ideal", tmp_path / "u.json"
    assert main(["family", "union", "--n", "5", "--d", "3", "--k", "3",
                 "--l", "2", "-o", str(ideal)]) == 0
    code, dms = _analyze_without_exact_path(ideal, out, monkeypatch)
    assert code in (0, 4)
    assert dms == (3, 1, 0)


def test_union_6342_analyze_takes_the_certificate(tmp_path, monkeypatch):
    # 38 cone generators and c = 3 make C(38, 3) * C(6, 3) = 168720 minors,
    # past MINOR_CAP; the certificate builds no minor and does not read it.
    ideal, out = tmp_path / "u.ideal", tmp_path / "u.json"
    assert main(["family", "union", "--n", "6", "--d", "3", "--k", "4",
                 "--l", "2", "-o", str(ideal)]) == 0
    assert _analyze_without_exact_path(ideal, out, monkeypatch) == \
        (4, (3, 1, 0))


def test_union_5332_table_has_the_cone_hilbert_function_columns():
    # The columns are the standard monomials of degree D: HF_cone(D) of
    # them, not the C(D + n - 1, n - 1) of all degree-D monomials.
    cone, n, d = _cone_n_d(family_linear_union(5, 3, 3, 2))
    reduced = [singular._reduce(g) for g in cone.generators]
    draw = singular._det(singular._draw(random.Random(0), reduced, n, n - d))
    D = min(map(sum, draw))
    table, width = singular._normal_forms(reduced, n, D)
    numerator = hilbert_series(leading_ideal(cone.generators), n).numerator
    assert (D, len(table), width) == (4, comb(8, 4), 25)
    assert width == hilbert_function(numerator, n, D)


def _squares(k, n):
    """x0^2, ..., x(k-1)^2 in n variables: a cone with d = n - k, c = k."""
    vars = tuple(f"x{i}" for i in range(n))
    gens = [Polynomial.variable(vars, v) ** 2 for v in vars[:k]]
    return TangentConeIdeal(vars=vars, generators=gens)


def test_certificate_skips_large_minors(monkeypatch):
    # c = 8: a draw would be a dense 8 x 8 cofactor expansion
    _forbid(monkeypatch, "_lincomb")
    assert singular_dimension(_squares(8, 9), 9, 1) == 1     # the x8 axis


def test_certificate_skips_inputs_over_minor_cap(monkeypatch):
    # C(24, 12) minors of size 12: refused as before the certificate
    _forbid(monkeypatch, "_lincomb")
    with pytest.raises(ResourceLimitExceeded):
        singular_dimension(_squares(12, 24), 24, 12)


def test_certificate_declines_when_no_degree_can_fill(monkeypatch):
    # One quartic and its 3 cubic minors span at most 4 forms, while the
    # lowest degree they reach, 3, holds C(5, 2) = 10 monomials.
    f = X ** 4 + Y ** 4 + Z ** 4
    cone = TangentConeIdeal(vars=V3, generators=[f])
    for name in ("_reduce", "_insert"):
        _forbid(monkeypatch, name)
    assert singular._m_primary([f], 3, 1) is False
    s = singular_dimension(cone, 3, 2)
    monkeypatch.setattr(singular, "_m_primary", lambda *_: False)
    assert s == singular_dimension(cone, 3, 2) == 0


def test_embedded_union_5332_analyze_takes_the_certificate(tmp_path,
                                                           monkeypatch):
    # The linear generator's leading variable is in no standard monomial,
    # so the draws fill the columns alone; without the certificate 8159 Q
    # minors and a Buchberger run follow.
    gens = transform_embed(family_linear_union(5, 3, 3, 2))
    ideal, out = tmp_path / "e.ideal", tmp_path / "e.json"
    ideal.write_text(format_ideal(IdealFile(vars=gens[0].vars,
                                            generators=gens)))
    code, dms = _analyze_without_exact_path(ideal, out, monkeypatch)
    assert code in (0, 4)
    assert dms == (3, 1, 0)


def test_certificate_declines_a_table_wider_than_the_cap(monkeypatch):
    # (x0, x1, x2)^3 in 8 variables: d = 5, c = 3, and the minors start in
    # degree 6, whose C(13, 7) = 1716 monomials make a table of up to
    # 1716^2 > 10^6 residues.  The count gate alone would pass.
    n, k, e = 8, 3, 3
    vars = tuple(f"x{i}" for i in range(n))
    xs = [Polynomial.variable(vars, v) for v in vars[:k]]
    gens = []
    for picks in combinations_with_replacement(range(k), e):
        g = xs[picks[0]]
        for i in picks[1:]:
            g = g * xs[i]
        gens.append(g)
    low = k * (e - 1)
    assert comb(low + n - 1, n - 1) ** 2 > 10 ** 6
    assert len(gens) + singular._minor_count(gens, n, k) >= comb(e + n - 1,
                                                                n - 1)
    cone = TangentConeIdeal(vars=vars, generators=gens)
    for name in ("_reduce", "_lincomb", "_insert"):
        _forbid(monkeypatch, name)
    assert singular._m_primary(gens, n, k) is False
    s = singular_dimension(cone, n, n - k)
    monkeypatch.setattr(singular, "_m_primary", lambda *_: False)
    assert s == singular_dimension(cone, n, n - k) == 5


# --- the certificate's draws against the Jacobian product they stand for ---

def _ref_draw(rng, gens, n, c):
    """A J B as built before the draws became directional derivatives: the
    Jacobian mod P, c x n combinations of its columns by A, then c x c
    combinations of those by B."""
    cols = list(zip(*[[singular._reduce(g.derivative(v)) for v in g.vars]
                      for g in gens]))
    A = [[rng.randrange(P) for _ in gens] for _ in range(c)]
    Bt = [[rng.randrange(P) for _ in range(n)] for _ in range(c)]
    AJ = [[singular._lincomb(zip(a, col)) for col in cols] for a in A]
    return [[singular._lincomb(zip(b, row)) for b in Bt] for row in AJ]


WORKED = ("vars x, y, z;\n"
          "x*(x - z^3)*(x - 2*z^2);\n"
          "y*(y - z^3)*(y - 2*z^2);\n"
          "(x + y)*(x + y - z^3);\n")


@pytest.mark.parametrize("gens", [
    parse_ideal(WORKED).generators,
    family_linear_union(5, 3, 3, 2),
    transform_embed(parse_ideal(WORKED).generators),
], ids=["worked", "union5332", "embed-worked"])
def test_draws_equal_the_jacobian_product(gens):
    cone, n, d = _cone_n_d(gens)
    gens = list(cone.generators)
    c = n - d
    reduced = [singular._reduce(g) for g in gens]
    new, ref = random.Random(0), random.Random(0)
    for _ in range(4):
        got = singular._draw(new, reduced, n, c)
        want = _ref_draw(ref, gens, n, c)
        assert [[dict(f) for f in row] for row in got] == \
            [[dict(f) for f in row] for row in want]
    assert new.random() == ref.random()       # the same seeded sequence


# --- soundness: a fired certificate always means s = 0 ---

@st.composite
def small_homogeneous_cones(draw):
    """Generators of a small homogeneous ideal, possibly embedded or made a
    cylinder, in at most 5 variables."""
    n = draw(st.integers(2, 4))
    vars = tuple(f"x{i}" for i in range(n))
    gens = []
    for _ in range(draw(st.integers(1, n + 1))):
        deg = draw(st.integers(1, 3))
        monos = [tuple(picks.count(i) for i in range(n))
                 for picks in combinations_with_replacement(range(n), deg)]
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1,
                               max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                               min_size=len(chosen), max_size=len(chosen)))
        gens.append(Polynomial(vars, dict(zip(chosen, coeffs))))
    transform = draw(st.sampled_from([None, transform_embed,
                                      transform_product]))
    return transform(gens) if transform else gens


@settings(max_examples=150, deadline=None)
@given(small_homogeneous_cones())
def test_fired_certificate_means_s_zero(gens):
    cone, n, d = _cone_n_d(gens)
    if not singular._m_primary(list(cone.generators), n, n - d):
        return
    with mock.patch.object(singular, "_m_primary", lambda *_: False):
        assert singular_dimension(cone, n, d) == 0


V2 = ("x0", "x1")
X0, X1 = (Polynomial.variable(V2, v) for v in V2)


@settings(max_examples=150, deadline=None)
@given(small_homogeneous_cones())
# Each cuts a line in the plane, and at c = 2 its singular ideal has s = 1;
# normal forms that drop the generators' tails, or negate them, fire here.
@example([X0 - X1, X0 * X1 - X1 ** 2])
@example([X0 * X1 + X1 ** 2, -X0 - X1])
def test_certificate_is_sound_on_non_bases(gens):
    # The raw generators, not a cone basis: the normal forms then reduce by
    # whichever generator the mod-P leading monomial picks.
    n = len(gens[0].vars)
    for c in range(1, min(len(gens), n, 3) + 1):
        if singular._m_primary(gens, n, c):
            gb = buchberger(gens + jacobian_minors(gens, c), GREVLEX)
            assert hilbert_series(leading_ideal(gb.basis), n).dim_affine == 0
