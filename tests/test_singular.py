"""Jacobian criterion on tangent cones: minors, emptiness, dimension."""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import hilbert_function, reference_m_primary

from germcone import singular
from germcone.cli import main
from germcone.families import (family_g, family_linear_union, transform_embed,
                               transform_product)
from germcone.groebner import (GREVLEX, ResourceLimitExceeded, TangentConeIdeal,
                               buchberger, tangent_cone)
from germcone.hilbert import hilbert_series, leading_ideal
from germcone.parser import IdealFile, format_ideal, parse_ideal
from germcone.polyring import Packing, Polynomial
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
    # every generator of a linear cone is stripped, and a linear space is
    # smooth: s = -1 with no Groebner run
    cone, n_, d_ = _cone_n_d(parse_ideal(text).generators)
    assert (n_, d_) == (n, d)
    _forbid(monkeypatch, "buchberger")
    assert singular_dimension(cone, n, d) == -1


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
    packing = Packing(cone.generators[0].vars, GREVLEX)
    reduced = [singular._reduce(g, packing.pack) for g in cone.generators]
    steps = singular._steps(reduced, packing)
    draw = singular._det(singular._draw(random.Random(0), reduced, n, n - d,
                                        steps))
    D = min(map(sum, map(packing.unpack, draw)))
    table, width = singular._normal_forms(
        reduced, packing, D, singular._slot(reduced, n, n - d, D))
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
    # x_i x_(i+12) for i < 12 uses all 24 variables, so nothing is stripped:
    # d = 12, and C(24, 12) minors of size 12 are refused as before the
    # certificate
    n, c = 24, 12
    vars = tuple(f"x{i}" for i in range(n))
    xs = [Polynomial.variable(vars, v) for v in vars]
    gens = [xs[i] * xs[i + c] for i in range(c)]
    assert singular._minor_count(gens, n, c) == comb(n, c) == 2704156
    _forbid(monkeypatch, "_lincomb")
    with pytest.raises(ResourceLimitExceeded):
        singular_dimension(TangentConeIdeal(vars=vars, generators=gens), n,
                           n - c)


def test_squares_in_free_variables_need_one_minor(monkeypatch):
    # x0^2, ..., x11^2 in 24 variables: the 12 free variables are stripped,
    # and the one 12 x 12 minor of the rest leaves the origin of C^12
    calls = []
    real = singular.jacobian_minors

    def recorded(gens, c):
        calls.append((len(gens[0].vars), c))
        return real(gens, c)

    monkeypatch.setattr(singular, "jacobian_minors", recorded)
    assert singular_dimension(_squares(12, 24), 24, 12) == 12
    assert calls == [(12, 12)]


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
    # The linear generator is stripped, and the certificate fires on the
    # union itself; without the strip and the certificate 8159 Q minors and
    # a Buchberger run would follow.
    gens = transform_embed(family_linear_union(5, 3, 3, 2))
    ideal, out = tmp_path / "e.ideal", tmp_path / "e.json"
    ideal.write_text(format_ideal(IdealFile(vars=gens[0].vars,
                                            generators=gens)))
    code, dms = _analyze_without_exact_path(ideal, out, monkeypatch)
    assert code in (0, 4)
    assert dms == (3, 1, 0)


def _cubes(n, k):
    """(x0, ..., x(k-1))^3 in n variables: d = n - k, c = k."""
    vars = tuple(f"x{i}" for i in range(n))
    xs = [Polynomial.variable(vars, v) for v in vars[:k]]
    gens = []
    for picks in combinations_with_replacement(range(k), 3):
        g = xs[picks[0]]
        for i in picks[1:]:
            g = g * xs[i]
        gens.append(g)
    return TangentConeIdeal(vars=vars, generators=gens)


def test_certificate_declines_a_table_wider_than_the_cap(monkeypatch):
    # x0^3, x1^3, x2^3, x0 x3 x4, x1 x5 x6, x2 x7 x3 use all 8 variables, so
    # nothing is stripped: d = 5, c = 3, and the minors start in degree 6,
    # whose C(13, 7) = 1716 monomials make a table of up to 1716^2 > 10^6
    # residues.  The count gate alone would pass.
    n, k, e = 8, 3, 3
    vars = tuple(f"x{i}" for i in range(n))
    monos = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 3, 4), (1, 5, 6), (2, 7, 3)]
    gens = [Polynomial(vars, {tuple(m.count(i) for i in range(n)): 1})
            for m in monos]
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
    # on x0 = x1 = x2 = 0 the only minor left is x3^2 x4 x5 x6 x7, so Sing
    # is a union of hyperplanes of C^5
    assert s == singular_dimension(cone, n, n - k) == 4


def test_cubes_in_free_variables_fire_the_certificate(monkeypatch):
    # (x0, x1, x2)^3 in 8 variables: the 5 free variables are stripped, and
    # the certificate fires on the 3 others, where the table is narrow
    calls = []
    real = singular._m_primary

    def recorded(gens, n, c):
        calls.append((n, c, real(gens, n, c)))
        return calls[-1][-1]

    monkeypatch.setattr(singular, "_m_primary", recorded)
    _forbid(monkeypatch, "buchberger")
    assert singular_dimension(_cubes(8, 3), 8, 5) == 5
    assert calls == [(3, 3, True)]


# --- the certificate's draws against the Jacobian product they stand for ---

def _ref_draw(rng, gens, n, c):
    """A J B as built before the draws became directional derivatives: the
    Jacobian mod P on exponent tuples, c x n combinations of its columns by
    A, then c x c combinations of those by B."""
    A = [[rng.randrange(P) for _ in gens] for _ in range(c)]
    Bt = [[rng.randrange(P) for _ in range(n)] for _ in range(c)]
    return _jacobian_product(A, Bt, gens, tuple)


def _jacobian_product(A, Bt, gens, key):
    """A J B from the Jacobian of gens mod P, its monomials keyed by key."""
    cols = list(zip(*[[singular._reduce(g.derivative(v), key)
                       for v in g.vars] for g in gens]))
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
    packing = Packing(gens[0].vars, GREVLEX)
    reduced = [singular._reduce(g, packing.pack) for g in gens]
    steps = singular._steps(reduced, packing)
    new, ref = random.Random(0), random.Random(0)
    for _ in range(4):
        got = singular._draw(new, reduced, n, c, steps)
        want = _ref_draw(ref, gens, n, c)
        assert [[{packing.unpack(m): v for m, v in f.items()} for f in row]
                for row in got] == [[dict(f) for f in row] for row in want]
    assert new.random() == ref.random()       # the same seeded sequence


@pytest.mark.parametrize("gens", [
    parse_ideal(WORKED).generators,
    family_linear_union(5, 3, 3, 2),
    transform_embed(parse_ideal(WORKED).generators),
    family_linear_union(4, 3, 3, 2),
    family_linear_union(5, 2, 4, 1),
], ids=["worked", "union5332", "embed-worked", "union4332", "union5241"])
def test_sweep_rows_are_determinants_with_a_unit_first_row(gens):
    # A round draws rows 2..c of A and then B; the row of generator i is the
    # normal form of the degree-D part of det(A' J B), A' = [e_i; a_2; ...;
    # a_c], here multiplied out whole from the Jacobian.  c = 2, 2, 3, 1 and
    # 3; the worked cones' rows are 0 (their degree-D minors lie in the cone
    # ideal, so the certificate declines there), the unions' are not.
    cone, n, d = _cone_n_d(gens)
    gens = list(cone.generators)
    c = n - d
    packing = Packing(gens[0].vars, GREVLEX)
    reduced = [singular._reduce(g, packing.pack) for g in gens]
    steps = singular._steps(reduced, packing)
    rng = random.Random(0)
    draw = singular._det(singular._draw(rng, reduced, n, c, steps))
    D = packing.degree(min(draw))
    slot = singular._slot(reduced, n, c, D)
    table, width = singular._normal_forms(reduced, packing, D, slot)
    for _ in range(2):
        ref = random.Random()
        ref.setstate(rng.getstate())
        rows = singular._sweep(rng, reduced, n, c, steps, D,
                               packing.deg_shift, table)
        A = [[ref.randrange(P) for _ in gens] for _ in range(c - 1)]
        Bt = [[ref.randrange(P) for _ in range(n)] for _ in range(c)]
        assert len(rows) == len(gens)
        for i, row in enumerate(rows):
            unit = [int(k == i) for k in range(len(gens))]
            det = singular._det(_jacobian_product([unit] + A, Bt, gens,
                                                  packing.pack))
            want = sum(v * table[m] for m, v in det.items()
                       if packing.degree(m) == D)
            assert singular._residues(row, slot, width) == \
                singular._residues(want, slot, width)
        assert rng.random() == ref.random()


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


def _compose(g, images):
    """g with each variable replaced by its image, a linear form."""
    out = Polynomial(g.vars, {})
    for m, c in g.terms:
        term = Polynomial.constant(g.vars, c)
        for image, e in zip(images, m):
            if e:
                term = term * image ** e
        out = out + term
    return out


@st.composite
def transformed_cones(draw):
    """A small cone's generators after one E or P transform, and the kind.

    The new coordinate t may then be mixed with the old ones by a unit
    triangular change: x_i -> x_i + a_i t, which hides P's free direction
    (kind "P-hidden") and makes E's other generators hold t, or
    t -> t + sum a_i x_i, which makes E's linear generator no coordinate.
    """
    gens = draw(small_homogeneous_cones())
    kind = draw(st.sampled_from(["E", "P"]))
    gens = (transform_embed if kind == "E" else transform_product)(gens)
    xs = [Polynomial.variable(gens[0].vars, v) for v in gens[0].vars]
    *old, t = xs
    a = draw(st.lists(st.integers(-2, 2), min_size=len(old),
                      max_size=len(old)))
    mix = draw(st.sampled_from(["none", "t into old", "old into t"]))
    if mix == "t into old":
        images = [x + ai * t for x, ai in zip(old, a)] + [t]
        kind += "-hidden" if kind == "P" and any(a) else ""
    elif mix == "old into t":
        images = old + [sum((ai * x for ai, x in zip(a, old)), t)]
    else:
        return gens, kind
    return [_compose(g, images) for g in gens], kind


@settings(max_examples=100, deadline=None)
@given(transformed_cones())
def test_strip_never_changes_s(case):
    # An E transform leaves a linear element in the reduced cone basis, and a
    # P transform a free variable unless the change hides it; either way s
    # must equal the value computed on the whole input.  The raw generators
    # are homogeneous, so they generate the cone too, though not as a
    # reduced basis: there a linear generator may share its leading variable.
    gens, kind = case
    cone, n, d = _cone_n_d(gens)
    strips, strip = [], singular._strip

    def recorded(gens):
        strips.append(strip(gens))
        return strips[-1]

    for basis in (cone, TangentConeIdeal(vars=cone.vars, generators=gens)):
        with mock.patch.object(singular, "_strip", recorded):
            s = singular_dimension(basis, n, d)
        with mock.patch.object(singular, "_strip", lambda gens: (gens, 0, 0)):
            try:
                whole = singular_dimension(basis, n, d)
            except ResourceLimitExceeded:
                continue
        assert s == whole
    (_, r, k) = strips[0]                       # the cone basis's
    if kind == "E":
        assert r >= 1
    elif kind == "P":
        assert k >= 1


V2 = ("x0", "x1")
X0, X1 = (Polynomial.variable(V2, v) for v in V2)


def _ranked_rows(gens, n, c, m_primary=None):
    """The decision of _m_primary, or of m_primary, and every row it ranks."""
    rows, insert = [], singular._insert

    def recorded(pivots, row):
        rows.append(list(row))
        return insert(pivots, row)

    with mock.patch.object(singular, "_insert", recorded):
        return (m_primary or singular._m_primary)(gens, n, c), rows


@settings(max_examples=150, deadline=None)
@given(small_homogeneous_cones())
# Each cuts a line in the plane, and at c = 2 its singular ideal has s = 1;
# normal forms that drop the generators' tails, or negate them, fire here.
@example([X0 - X1, X0 * X1 - X1 ** 2])
@example([X0 * X1 + X1 ** 2, -X0 - X1])
def test_certificate_is_sound_on_non_bases(gens):
    # The raw generators, not a cone basis: the normal forms then reduce by
    # whichever generator the mod-P leading monomial picks.  The draws after
    # the first multiply out only degrees up to D; whole determinants must
    # give the same rows and the same decision.
    n = len(gens[0].vars)
    for c in range(1, min(len(gens), n, 3) + 1):
        fired, rows = _ranked_rows(gens, n, c)
        whole = singular._det
        with mock.patch.object(singular, "_det",
                               lambda rows, top=None: whole(rows)):
            assert _ranked_rows(gens, n, c) == (fired, rows)
        if fired:
            gb = buchberger(gens + jacobian_minors(gens, c), GREVLEX)
            assert hilbert_series(leading_ideal(gb.basis), n).dim_affine == 0


@settings(max_examples=150, deadline=None)
@given(small_homogeneous_cones())
@example([X0 - X1, X0 * X1 - X1 ** 2])
def test_packed_certificate_matches_the_tuple_reference(gens):
    # Packing renames the monomials only: on the raw generators and on the
    # cone basis, every c takes the decision and ranks the rows of the
    # arithmetic on exponent tuples.
    cone, n, _ = _cone_n_d(gens)
    for basis in (gens, list(cone.generators)):
        for c in range(1, min(len(basis), n, 3) + 1):
            assert _ranked_rows(basis, n, c) == \
                _ranked_rows(basis, n, c, reference_m_primary)


@pytest.mark.parametrize("e, fires", [(2 ** 28, True), (2 ** 29, False)])
def test_certificate_declines_degrees_past_the_packing(e, fires, monkeypatch):
    # c = 2 and a sparse x^e: a whole 2 x 2 determinant reaches degree
    # 2 (e - 1), so at e = 2^29 the guard declines, since 2 e exceeds
    # Packing.max_degree = 2^30 - 1, before any generator is packed.  The
    # quadrics fill degree 2 by themselves, so at e = 2^28 it fires.
    gens = [X ** 2, Y ** 2, Z ** 2, Polynomial(V3, {(e, 0, 0): 1})]
    assert (2 * e > Packing(V3, GREVLEX).max_degree) is not fires
    if not fires:
        _forbid(monkeypatch, "_reduce")
    assert singular._m_primary(gens, 3, 2) is fires
    monkeypatch.undo()
    calls = _counting_buchberger(monkeypatch)
    cone = TangentConeIdeal(vars=V3, generators=gens)
    assert singular_dimension(cone, 3, 1) == 0
    assert bool(calls) is not fires
