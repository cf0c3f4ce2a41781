"""Test-only helpers over the package's data.

No command reads these, so they live with the tests rather than in `src/`:
exact evaluation, term dicts and the zero of a Polynomial, the conic
rescaling, and a Hilbert function, plus three views of product code that
the tests check: one ball volume from crofton's recurrence, a one-cell
enclosure from numtopo's _Encloser, and a SectionSpec's free variables.
The Groebner core's reference is here too: S-polynomials and Buchberger's
algorithm on exponent tuples and Fractions, and polyring.divide wrapped to
take and return Polynomials.  So is the m-primary certificate's: its
arithmetic mod P on exponent tuples.
"""

import heapq
import operator
import random
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from math import comb, inf, lcm

import numpy as np

from reference_division import ref_divide

from germcone import singular
from germcone.crofton import _ball_volumes
from germcone.groebner import (GREVLEX, PAIR_BUDGET, GroebnerBasis,
                               ResourceLimitExceeded)
from germcone.numtopo import _Encloser
from germcone.polyring import (Packing, Polynomial, _numerators, divide,
                               m_deg, m_divides, m_lcm, m_mul)
from germcone.singular import CERT_MAX_C, P, _minor_count, _too_wide


def zero(vars):
    """The zero polynomial in vars."""
    return Polynomial(vars, {})


def terms_dict(f):
    """f's terms as {exponent tuple: Fraction}."""
    return dict(f.terms)


def evaluate(f, point):
    """Exact value of f at a rational point given as {name: value}."""
    total = Fraction(0)
    vals = [Fraction(point[v]) for v in f.vars]
    for m, c in f.terms:
        for i, e in enumerate(m):
            if e:
                c = c * vals[i] ** e
        total += c
    return total


def conic_blowup(f, eps):
    """Rescale f(eps * x) / eps^mu, exact in eps.

    At eps = 1 this is f itself; as eps shrinks the terms above the initial
    degree are damped by eps^(deg - mu), so the initial form is the limit.
    """
    if f.is_zero():
        raise ValueError("conic blowup of 0 is undefined")
    eps = Fraction(eps)
    if eps == 0:
        raise ValueError("rescaling by 0 is undefined")
    mu = f.min_degree()
    terms = [(m, c * eps ** (m_deg(m) - mu)) for m, c in f.terms]
    return Polynomial._trusted(f.vars, terms, f.order, ordered=True)


def ball_volume(k):
    """Volume of the k-dimensional unit ball, from crofton's recurrence."""
    if k < 0:
        raise ValueError(f"ball dimension k={k} below 0")
    return next(islice(_ball_volumes(), k, None))


def hilbert_function(numerator, n, t):
    """Dimension of the degree-t piece of the quotient, from a HilbertData
    numerator."""
    return sum(c * comb(t - i + n - 1, n - 1) for i, c in numerator if i <= t)


def interval_eval(f, cell):
    """numtopo's enclosure of f over a rectangle ((x0, x1), (y0, y1))."""
    (x0, x1), (y0, y1) = cell
    wx = float(x1) - float(x0)
    wy = float(y1) - float(y0)
    if not (wx >= 0 and wy >= 0):
        raise ValueError(f"reversed cell {cell}")
    cx = np.array([float(x0) + 0.5 * wx])
    cy = np.array([float(y0) + 0.5 * wy])
    lo, hi, _, _ = _Encloser(f)(cx, cy, wx, wy)
    return float(lo[0]), float(hi[0])


def free_vars(spec):
    """The variables a SectionSpec leaves free."""
    return tuple(v for v in spec.f.vars if v not in spec.fixed_assignments)


# --- the Groebner core on exponent tuples and Fractions ---

def m_div(a, b):
    """Quotient a/b of exponent tuples, caller guarantees divisibility."""
    return tuple(map(operator.sub, a, b))


def packed_divide(f, divisors, order):
    """polyring.divide on Polynomials, as the pair (None, r) for the exact
    remainder r: f and the divisors are packed in order, and r is unpacked
    over the scale divide returns and f's common denominator."""
    packing = Packing(f.vars, order)
    rows = [packing.row(d) for d in divisors]
    den = lcm(*(c.denominator for _, c in f.terms))
    pairs = [(packing.pack(m), c.numerator * (den // c.denominator))
             for m, c in f.terms]
    scale, r = divide(pairs, rows, packing)
    return None, Polynomial._trusted(
        f.vars, [(packing.unpack(m), Fraction(c, scale * den)) for m, c in r],
        order, ordered=True)


def reference_divide(f, divisors, order):
    """The remainder of f by divisors, term by term on Fractions."""
    _, r = ref_divide(f, divisors, order)
    return Polynomial._trusted(f.vars, r.items(), order)


def spoly(f, g, order):
    """S-polynomial, cancelling the leading terms of f and g.

    With F, G the integer numerators of f, g and a, b their leading ones,
    S = (b x^(u/lm_f) F - a x^(u/lm_g) G) / (a b) for u the lcm of the
    leading monomials: one Fraction per term.
    """
    (lm_f, a), *tail_f = _numerators(f)[1]
    (lm_g, b), *tail_g = _numerators(g)[1]
    u = m_lcm(lm_f, lm_g)
    out = {}
    for shift, scale, tail in ((m_div(u, lm_f), b, tail_f),
                               (m_div(u, lm_g), -a, tail_g)):
        for m, c in tail:
            m = m_mul(shift, m)
            out[m] = out.get(m, 0) + scale * c
    ab = a * b
    return Polynomial._trusted(f.vars, [(m, Fraction(c, ab))
                                        for m, c in out.items() if c], order)


def _chain_skip(i, j, lcm_ij, basis, pending):
    # Buchberger's second criterion: some h divides the lcm and both
    # cross pairs were already handled.
    for h in range(len(basis)):
        if h == i or h == j:
            continue
        if not m_divides(basis[h].leading_monomial(), lcm_ij):
            continue
        if (min(i, h), max(i, h)) in pending:
            continue
        if (min(j, h), max(j, h)) in pending:
            continue
        return True
    return False


def _charge(reductions, budget):
    if reductions > budget:
        raise ResourceLimitExceeded(
            f"groebner: reduction budget {budget} exhausted")


def reference_buchberger(gens, order, budget=PAIR_BUDGET):
    """groebner.buchberger's algorithm on Polynomials: the same pre-pass,
    pair order, criteria and budget charge, with every S-polynomial and
    remainder built as a Polynomial of Fractions."""
    ranked = sorted(dict.fromkeys(g.with_order(order).monic() for g in gens),
                    key=lambda g: order.key(g.leading_monomial()))
    basis, reductions = ranked[:1], 0
    for g in ranked[1:]:
        reductions += 1
        _charge(reductions, budget)
        r = reference_divide(g, basis, order)
        if not r.is_zero():
            basis.append(r.monic())
    heap, pending = [], set()

    def add_pairs(j):
        lm_j = basis[j].leading_monomial()
        for i in range(j):
            lm_i = basis[i].leading_monomial()
            u = m_lcm(lm_i, lm_j)
            if u == m_mul(lm_i, lm_j):
                continue
            heapq.heappush(heap, (order.key(u), i, j, u))
            pending.add((i, j))

    for j in range(len(basis)):
        add_pairs(j)

    while heap:
        _, i, j, u = heapq.heappop(heap)
        pending.remove((i, j))
        if _chain_skip(i, j, u, basis, pending):
            continue
        reductions += 1
        _charge(reductions, budget)
        r = reference_divide(spoly(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            basis.append(r.monic())
            add_pairs(len(basis) - 1)

    return GroebnerBasis(order, basis, reductions)


# --- the m-primary certificate on exponent tuples ---

class _TupleModP(dict):
    """A polynomial mod P as {exponent tuple: nonzero residue}."""

    def is_zero(self):
        return not self

    def __neg__(self):
        return _TupleModP({m: P - v for m, v in self.items()})

    def __add__(self, other):
        return _tuple_lincomb([(1, self), (1, other)])

    def __mul__(self, other):
        return _tuple_mul(self, other, inf)


def _tuple_det(rows, top=None):
    """Cofactor determinant, every product kept to degrees at most top."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        sub = _tuple_det([r[:j] + r[j + 1:] for r in rows[1:]], top)
        term = entry * sub if top is None else _tuple_mul(entry, sub, top)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return rows[0][0] if total is None else total


def _tuple_mul(f, g, top):
    """f * g mod P, only its terms of degree at most top."""
    by_degree = {}
    for m, v in g.items():
        by_degree.setdefault(m_deg(m), []).append((m, v))
    by_degree = sorted(by_degree.items())
    out = {}
    for m1, v1 in f.items():
        room = top - m_deg(m1)
        for d2, terms in by_degree:
            if d2 > room:
                break
            for m2, v2 in terms:
                m = m_mul(m1, m2)
                out[m] = (out.get(m, 0) + v1 * v2) % P
    return _TupleModP({m: v for m, v in out.items() if v})


def _tuple_lincomb(pairs):
    """sum(a * f for a, f in pairs) mod P."""
    out = {}
    for a, f in pairs:
        for m, v in f.items():
            out[m] = (out.get(m, 0) + a * v) % P
    return _TupleModP({m: v for m, v in out.items() if v})


def _tuple_reduce(f):
    """f mod P, or None when P divides a coefficient's denominator."""
    out = _TupleModP()
    for m, q in f.terms:
        if q.denominator % P == 0:
            return None
        v = q.numerator * pow(q.denominator, -1, P) % P
        if v:
            out[m] = v
    return out


def _tuple_directional(f, b):
    """The derivative of f mod P along the vector b."""
    out = {}
    for m, v in f.items():
        for j, e in enumerate(m):
            if e:
                dm = m[:j] + (e - 1,) + m[j + 1:]
                out[dm] = (out.get(dm, 0) + b[j] * e * v) % P
    return _TupleModP({m: v for m, v in out.items() if v})


def _tuple_draw(rng, reduced, n, c):
    """The next seeded c x c matrix A J B, drawn as singular._draw draws it."""
    A = [[rng.randrange(P) for _ in reduced] for _ in range(c)]
    Bt = [[rng.randrange(P) for _ in range(n)] for _ in range(c)]
    combos = [_tuple_lincomb(zip(a, reduced)) for a in A]
    return [[_tuple_directional(h, b) for b in Bt] for h in combos]


def _tuple_sweep(rng, reduced, n, c, D, table, width):
    """The rows of one round, drawn as singular._sweep draws it: for each
    generator g, the degree-D part of sum_l (-1)^l (d_{b_l} g) C_l, each
    product multiplied out, put in normal form through the table."""
    A = [[rng.randrange(P) for _ in reduced] for _ in range(c - 1)]
    Bt = [[rng.randrange(P) for _ in range(n)] for _ in range(c)]
    combos = [_tuple_lincomb(zip(a, reduced)) for a in A]
    rest = [[_tuple_directional(h, b) for b in Bt] for h in combos]
    cofactors = [_tuple_det([r[:l] + r[l + 1:] for r in rest], D) if rest
                 else _TupleModP({(0,) * n: 1}) for l in range(c)]
    return [_tuple_row(_tuple_lincomb(
        [((-1) ** l, _tuple_mul(_tuple_directional(g, b), C, D))
         for l, (b, C) in enumerate(zip(Bt, cofactors))]), table, width)
        for g in reduced]


def _tuple_row(f, table, width):
    """The normal form of f's terms in the table, a dense row mod P."""
    row = [0] * width
    for m, v in f.items():
        for j, a in table.get(m, {}).items():
            row[j] += v * a
    return [r % P for r in row]


def _tuple_normal_forms(reduced, n, D):
    """The normal form mod P of every degree-D monomial, over the standard
    ones, walking the monomials in ascending grevlex order."""
    tails = []
    for g in filter(None, reduced):
        lm = max(g, key=GREVLEX.key)
        inv = pow(g[lm], -1, P)
        tails.append((lm, [(t, -v * inv % P) for t, v in g.items() if t != lm]))
    monomials = (tuple(picks.count(i) for i in range(n))
                 for picks in combinations_with_replacement(range(n), D))
    table, width = {}, 0
    for m in sorted(monomials, key=GREVLEX.key):
        for lm, tail in tails:
            if m_divides(lm, m):
                b, nf = m_div(m, lm), {}
                for t, a in tail:
                    for j, v in table[m_mul(b, t)].items():
                        nf[j] = nf.get(j, 0) + a * v
                table[m] = {j: r for j, v in nf.items() if (r := v % P)}
                break
        else:
            table[m], width = {width: 1}, width + 1
    return table, width


def reference_m_primary(gens, n, c):
    """singular._m_primary with its arithmetic on exponent tuples: the same
    gates, seeded first draw and rounds, truncated products and rank loop,
    each row ranked by singular._insert.  A round's rows multiply each
    generator's derivatives by the cofactors, where _sweep sums shared
    normal-form rows."""
    if not 1 <= c <= min(len(gens), n, CERT_MAX_C):
        return False
    if not all(g.is_homogeneous() and g.min_degree() >= 1 for g in gens):
        return False
    degs = sorted(g.degree() for g in gens)
    if degs[c - 1] == 1:
        return False
    low = sum(e - 1 for e in degs[:c])
    if len(gens) + _minor_count(gens, n, c) < comb(min(degs[0], low) + n - 1,
                                                  n - 1):
        return False
    if _too_wide(low, n):
        return False
    if c * degs[-1] > Packing(gens[0].vars, GREVLEX).max_degree:
        return False
    reduced = [_tuple_reduce(g) for g in gens]
    if any(g is None for g in reduced):
        return False
    rng = random.Random(0)
    entries = _tuple_draw(rng, reduced, n, c)
    draw = _tuple_det(entries, low) or _tuple_det(entries)
    if not draw:
        return False
    D = min(map(m_deg, draw))
    if _too_wide(D, n):
        return False
    table, width = _tuple_normal_forms(reduced, n, D)
    pivots = {}
    if width and not singular._insert(pivots, _tuple_row(draw, table, width)):
        return False
    while len(pivots) < width:
        rank = len(pivots)
        for row in _tuple_sweep(rng, reduced, n, c, D, table, width):
            if singular._insert(pivots, row) and len(pivots) == width:
                return True
        if len(pivots) == rank:
            return False
    return True
