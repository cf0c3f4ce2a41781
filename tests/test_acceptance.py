"""Acceptance suite: eight end-to-end criteria, one logged line each.

Criterion 2 checks the true tangent cone of each member of the quartic-cone
family g(l).  The strip product prod_{i<2l} (y - c_i z^2) has lowest-degree
term y^(2l), so at l = 2 it adds y^4 to the squared circle and the cone is
(x^2 + y^2)^2 + y^4 = x^4 + 2x^2y^2 + 2y^4; for l >= 3 that term has degree
at least 6 and the cone is (x^2 + y^2)^2.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import pi

import numpy as np

from conftest import record_acceptance
from oracles import (hilbert_function, packed_divide, reference_divide,
                     spoly, terms_dict, zero)
from reference_division import ref_divide

from germcone.bounds import UNBOUNDED, betti_sum_bound, classify, op_bound
from germcone.crofton import crofton_matrix
from germcone.families import (
    family_f, family_g, family_linear_union, transform_embed,
    transform_product)
from germcone.groebner import buchberger, initial_part, tangent_cone
from germcone.hilbert import germ_multiplicity, hilbert_series
from germcone.numtopo import SectionSpec, count_components
from germcone.parser import parse_ideal
from germcone.polyring import GREVLEX, Polynomial, m_divides
from germcone.report import build_report
from germcone.singular import singular_dimension

WORKED = """\
vars x, y, z;
x*(x - z^3)*(x - 2*z^2);
y*(y - z^3)*(y - 2*z^2);
(x + y)*(x + y - z^3);
"""


def finish(num, label, failures, t0):
    elapsed = time.perf_counter() - t0
    status = "FAIL" if failures else "PASS"
    detail = "" if not failures else "  [" + "; ".join(failures) + "]"
    record_acceptance(
        f"criterion {num} ({label}): {status} ({elapsed:.2f}s){detail}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    failures = []
    report = build_report(parse_ideal(WORKED))
    if report["multiplicity_mu"] != 3:
        failures.append(f"mu = {report['multiplicity_mu']}, want 3")
    if report["density_bound"] != 3:
        failures.append(f"density_bound = {report['density_bound']}, want 3")
    if report["op_baseline_density"] != 561:
        failures.append(
            f"op_baseline_density = {report['op_baseline_density']}, want 561")
    if time.perf_counter() - t0 >= 10:
        failures.append("runtime >= 10 s")
    finish(1, "worked example", failures, t0)


def test_criterion_2_hypersurface_cones():
    t0 = time.perf_counter()
    failures = []
    V2 = ("x", "y")
    x2 = Polynomial.variable(V2, "x")
    y2 = Polynomial.variable(V2, "y")

    def timed(label, fn):
        start = time.perf_counter()
        fn()
        if time.perf_counter() - start >= 5:
            failures.append(f"{label}: over 5 s")

    def cusp():
        cone = tangent_cone([x2 ** 2 - y2 ** 3])
        if cone.generators != [x2 ** 2]:
            failures.append("cusp cone is not [x^2]")
        if germ_multiplicity([x2 ** 2 - y2 ** 3])[1] != 2:
            failures.append("cusp mu != 2")
    timed("cusp", cusp)

    for n in (3, 4):
        for l in (2, 3):
            def f_case(n=n, l=l):
                f = family_f(n, l)
                z = Polynomial.variable(f.vars, "z")
                cone = tangent_cone([f])
                if cone.generators != [z ** 2]:
                    failures.append(f"f(n={n},l={l}) cone is not [z^2]")
                d, mu = germ_multiplicity([f])
                s = singular_dimension(cone, n, d)
                if mu != 2:
                    failures.append(f"f(n={n},l={l}) mu = {mu}, want 2")
                if s != n - 1:
                    failures.append(f"f(n={n},l={l}) s = {s}, want {n - 1}")
            timed(f"f(n={n},l={l})", f_case)

    V3 = ("x", "y", "z")
    x3 = Polynomial.variable(V3, "x")
    y3 = Polynomial.variable(V3, "y")
    squared_circle = (x3 ** 2 + y3 ** 2) ** 2
    for l in (2, 3, 4):
        def g_case(l=l):
            g = family_g(l)
            # The strip product's lowest term is y^(2l): degree 4 only at l = 2.
            want = squared_circle + y3 ** 4 if 2 * l == 4 else squared_circle
            cone = tangent_cone([g])
            if cone.generators != [want]:
                failures.append(
                    f"g(l={l}) initial part is {cone.generators[0]}, "
                    f"not {want}")
            if germ_multiplicity([g])[1] != 4:
                failures.append(f"g(l={l}) mu != 4")
        timed(f"g(l={l})", g_case)

    finish(2, "hypersurface cones", failures, t0)


def test_criterion_3_case_logic():
    t0 = time.perf_counter()
    failures = []
    for l in (2, 3, 5):
        f = family_f(3, l)
        d, mu = germ_multiplicity([f])
        s = singular_dimension(tangent_cone([f]), 3, d)
        got = classify(3, d, s, 2, True, source="hypersurface-auto")
        if got.case != "unbounded":
            failures.append(f"f(3,{l}) k=2 case {got.case}, want unbounded")
        if 2 < 3 - s:
            failures.append(f"f(3,{l}) k=2 not in the k >= n - s regime")

    d, mu = germ_multiplicity(parse_ideal(WORKED).generators)
    got = classify(3, d, 1, 2, "unknown")
    if got.case != "zero_dim":
        failures.append(f"worked example k=2 case {got.case}, want zero_dim")
    if betti_sum_bound(mu, 2, got.case) != 3:
        failures.append("worked example bound != 3")

    for k in range(2, 9):
        if betti_sum_bound(1, k, "bounded") != 1:
            failures.append(f"mu=1 bounded k={k} != 1")
        if betti_sum_bound(1, k, "zero_dim") != 1:
            failures.append(f"mu=1 zero_dim k={k} != 1")
    finish(3, "theorem case logic", failures, t0)


def test_criterion_4_crofton_matrix():
    t0 = time.perf_counter()
    failures = []
    m = np.array(crofton_matrix(4).entries)
    for i in range(4):
        if m[i, i] != 1.0:
            failures.append(f"diagonal entry {i + 1} is {m[i, i]}")
        for j in range(i):
            if m[i, j] != 0.0:
                failures.append(f"below-diagonal ({i + 1},{j + 1}) nonzero")
    if m.min() < -1e-12:
        failures.append(f"entry below -1e-12: {m.min()}")
    if abs(m[0, 1] - (pi / 2 - 1)) > 1e-10:
        failures.append(f"M[1,2] = {m[0, 1]}, want pi/2 - 1")
    finish(4, "crofton matrix", failures, t0)


def test_criterion_5_transformations():
    t0 = time.perf_counter()
    failures = []
    base = [family_f(3, 2)]

    def run(gens):
        n = len(gens[0].vars)
        d, mu = germ_multiplicity(gens)
        s = singular_dimension(tangent_cone(gens), n, d)
        return n, mu, s

    n, mu, s = run(transform_product(base))
    if (n, mu, s) != (4, 2, 3):
        failures.append(f"product transform gave n={n} mu={mu} s={s}, "
                        "want (4, 2, 3)")
    n, mu, s = run(transform_embed(base))
    if (n, mu, s) != (4, 2, 2):
        failures.append(f"embed transform gave n={n} mu={mu} s={s}, "
                        "want (4, 2, 2)")
    finish(5, "transformation bookkeeping", failures, t0)


SECTION_CASES = [
    # family, l, pinned var/value, box, base depth, required count
    ("g", 2, ("z", Fraction(1, 4)),
     (Fraction(-1, 8), Fraction(1, 8), Fraction(-1, 8), Fraction(1, 8)), 8, 2),
    ("g", 3, ("z", Fraction(1, 4)),
     (Fraction(-1, 8), Fraction(1, 8), Fraction(-1, 8), Fraction(1, 8)), 13, 4),
    ("g", 4, ("z", Fraction(1, 2)),
     (Fraction(-5, 16), Fraction(5, 16), Fraction(-5, 16), Fraction(5, 16)),
     15, 6),
    ("f", 2, ("y", Fraction(1, 10)),
     (Fraction(0), Fraction(2, 5), Fraction(-1, 10), Fraction(1, 10)), 6, 2),
    ("f", 3, ("y", Fraction(1, 10)),
     (Fraction(0), Fraction(3, 5), Fraction(-1, 10), Fraction(1, 10)), 9, 3),
    ("f", 4, ("y", Fraction(1, 10)),
     (Fraction(0), Fraction(4, 5), Fraction(-1, 10), Fraction(1, 10)), 11, 4),
]


def test_criterion_6_section_counts():
    t0 = time.perf_counter()
    failures = []
    for kind, l, (var, value), box, depth, need in SECTION_CASES:
        start = time.perf_counter()
        f = family_g(l) if kind == "g" else family_f(3, l)
        width = box[1] - box[0]
        counts = []
        for extra in range(3):
            spec = SectionSpec(f=f, fixed_assignments={var: value}, box=box,
                               resolution=width / 2 ** (depth + extra))
            counts.append(count_components(spec).count)
        label = f"{kind}(l={l})"
        if any(c < need for c in counts):
            failures.append(f"{label} counts {counts}, need >= {need}")
        if len(set(counts)) != 1:
            failures.append(f"{label} unstable across refinements: {counts}")
        if time.perf_counter() - start >= 60:
            failures.append(f"{label} over 60 s")
    finish(6, "section component counts", failures, t0)


def rand_poly(rng, vars, max_terms=5, max_exp=4, zero_ok=True):
    n = len(vars)
    terms = {}
    for _ in range(rng.randint(0 if zero_ok else 1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(n))
        num = rng.randint(-9, 9) or 1
        terms[mono] = Fraction(num, rng.randint(1, 7))
    return Polynomial(vars, terms)


def nonzero_rand_poly(rng, vars, **kw):
    while True:
        p = rand_poly(rng, vars, zero_ok=False, **kw)
        if not p.is_zero():
            return p


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    failures = []
    V = ("x", "y", "z")
    rng = random.Random(0xC0FFEE)

    bad = 0
    for _ in range(1000):
        f, g, h = (rand_poly(rng, V) for _ in range(3))
        ok = (f + g == g + f
              and (f + g) + h == f + (g + h)
              and f * g == g * f
              and (f * g) * h == f * (g * h)
              and f * (g + h) == f * g + f * h
              and f - f == zero(V)
              and f * Polynomial.constant(V, 1) == f)
        bad += not ok
    if bad:
        failures.append(f"ring axioms failed {bad}/1000")

    bad = 0
    for _ in range(500):
        f = rand_poly(rng, V)
        divisors = [nonzero_rand_poly(rng, V)
                    for _ in range(rng.randint(1, 3))]
        _, r = packed_divide(f, divisors, GREVLEX)
        qs, ref_r = ref_divide(f, divisors, GREVLEX)
        total = r
        for q, d in zip(qs, divisors):
            total = total + Polynomial(V, q) * d
        lead = [d.with_order(GREVLEX).leading_monomial() for d in divisors]
        ok = terms_dict(r) == ref_r and total == f and not any(
            m_divides(lm, mono) for mono, _ in r.terms for lm in lead)
        bad += not ok
    if bad:
        failures.append(f"division postcondition failed {bad}/500")

    acceptance_ideals = [
        parse_ideal(WORKED).generators,
        [family_f(3, 2)], [family_f(4, 3)], [family_g(2)], [family_g(3)],
        transform_product([family_f(3, 2)]),
        transform_embed([family_f(3, 2)]),
        family_linear_union(3, 2, 2, 2),
    ]
    for gens in acceptance_ideals:
        for basis_gens in (gens, tangent_cone(gens).generators):
            gb = buchberger(basis_gens, GREVLEX)
            for a, b in combinations(gb.basis, 2):
                r = reference_divide(spoly(a, b, GREVLEX), gb.basis, GREVLEX)
                if not r.is_zero():
                    failures.append(f"S-polynomial residue in {basis_gens}")

    bad = 0
    for _ in range(200):
        nvars = rng.randint(1, 3)
        monos = [tuple(rng.randint(0, 4) for _ in range(nvars))
                 for _ in range(rng.randint(1, 5))]
        monos = [m for m in monos if sum(m) > 0] or [(0,) * nvars]
        data = hilbert_series(monos, nvars)
        for t in range(11):
            brute = 0
            for m in _monomials(nvars, t):
                if not any(m_divides(g, m) for g in monos):
                    brute += 1
            if hilbert_function(data.numerator, nvars, t) != brute:
                bad += 1
                break
    if bad:
        failures.append(f"hilbert brute-force mismatch on {bad}/200 ideals")

    bad = 0
    for _ in range(500):
        f = nonzero_rand_poly(rng, V)
        g = nonzero_rand_poly(rng, V)
        lhs = initial_part(f * g)
        ok = (lhs.init == initial_part(f).init * initial_part(g).init
              and lhs.mu == f.min_degree() + g.min_degree())
        bad += not ok
    if bad:
        failures.append(f"initial-part multiplicativity failed {bad}/500")

    finish(7, "property suites", failures, t0)


def _monomials(nvars, t):
    from itertools import combinations_with_replacement
    for bars in combinations_with_replacement(range(nvars), t):
        m = [0] * nvars
        for i in bars:
            m[i] += 1
        yield tuple(m)


def test_criterion_8_bound_formula():
    t0 = time.perf_counter()
    failures = []
    for mu in range(1, 11):
        for k in range(1, 9):
            got = betti_sum_bound(mu, k, "bounded")
            want = mu * (2 * mu - 1) ** (k - 1)
            if got != want:
                failures.append(f"mu={mu} k={k}: {got} != {want}")
    if betti_sum_bound(2, 3, "unbounded") is not UNBOUNDED:
        failures.append("unbounded case lost its marker")
    if op_bound([6, 6, 4], 3, 1) != 561:
        failures.append("degree baseline mismatch")
    finish(8, "bound formula consistency", failures, t0)
