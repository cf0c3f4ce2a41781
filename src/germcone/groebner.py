"""Buchberger's algorithm, initial forms and the homogenization route to
tangent cones."""

import heapq
from dataclasses import dataclass
from itertools import takewhile
from math import gcd

from .polyring import (GRADED_FIRST, GREVLEX, Packing, Polynomial, divide,
                       fresh_name, m_deg, m_divides, m_lcm, primitive)

PAIR_BUDGET = 10 ** 6
CELL_BUDGET = 10 ** 7    # numtopo's; here so that the CLI need not import it


class ResourceLimitExceeded(Exception):
    """A configured work budget was exhausted; results are not truncated silently."""


class GermEmptyError(Exception):
    """The ideal contains a unit, so the germ misses the origin."""


@dataclass
class GroebnerBasis:
    """A Groebner basis as buchberger built it: monic, not reduced."""
    order: object
    basis: list
    reductions: int = 0


@dataclass
class TangentConeIdeal:
    vars: tuple
    generators: list


@dataclass(frozen=True)
class InitialForm:
    mu: int
    init: Polynomial


def initial_part(f):
    """Lowest-degree homogeneous part of f and its order of vanishing."""
    if f.is_zero():
        raise ValueError("initial part of 0 is undefined")
    mu = f.min_degree()
    terms = [(m, c) for m, c in f.terms if m_deg(m) == mu]
    return InitialForm(mu, Polynomial._trusted(f.vars, terms, f.order,
                                               ordered=True))


def _fits(row, packing):
    """row, refused past the degree the packed fields can hold."""
    d = packing.degree(row[0])
    if d > packing.max_degree:
        raise ResourceLimitExceeded(
            f"groebner: degree {d} is past the packed limit "
            f"{packing.max_degree}")
    return row


def _terms(row):
    """A row as the (E, c) pairs divide takes."""
    lm, lc, tail = row
    return [(lm, lc), *tail]


def _spoly(f, g, u):
    """The S-polynomial of rows f and g with leading lcm u, as {E: c}.

    With a, b their leading coefficients and h = gcd(a, b), it is
    (b/h) x^(u/lm_f) f - (a/h) x^(u/lm_g) g, less the leading terms, which
    cancel.
    """
    lm_f, a, tail_f = f
    lm_g, b, tail_g = g
    h = gcd(a, b)
    a, b = a // h, b // h
    shift = u - lm_f
    out = {shift + m: b * c for m, c in tail_f}
    get = out.get
    shift = u - lm_g
    for m, c in tail_g:
        m += shift
        out[m] = get(m, 0) - a * c
    return out


def _chain_skip(i, j, u, lms, pending, guard):
    # Buchberger's second criterion: some h divides the lcm and both
    # cross pairs were already handled.
    for h in range(len(lms)):
        if h == i or h == j:
            continue
        if (u - lms[h]) & guard:
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


def buchberger(gens, order, budget=PAIR_BUDGET):
    """A Groebner basis as built, not reduced: the generators the pre-pass
    keeps, then the S-pair remainders.

    The pre-pass takes the distinct generators in ascending leading
    monomial, keeps the first and replaces each later one by its remainder
    modulo those kept before it, dropping zeros.  It keeps the ideal, drops
    dependent generators and leaves distinct leading monomials, before any
    pair is made.  Each divide, in the pre-pass or of an S-pair, is one
    reduction charged to budget.

    The run packs each generator once into a row (polyring.Packing), and
    the pre-pass, the pairs and both criteria, the S-polynomials and every
    divide work on rows: packed monomials, primitive int coefficients.  A
    monic Polynomial is built for each row the basis keeps, at the end.  A
    generator or new element past the packed degree limit raises
    ResourceLimitExceeded, so no field can overflow.
    """
    if not gens:
        raise ValueError("empty generator list")
    if any(g.is_zero() for g in gens):
        raise ValueError("a generator is 0; drop it before the run")
    packing = Packing(gens[0].vars, order)
    key = packing.key
    # equal rows are equal monic polynomials; dict keys dedup them and keep
    # first-seen order, which the stable sort keeps among equal leading
    # monomials
    ranked = sorted(dict.fromkeys(_fits(packing.row(g), packing)
                                  for g in gens),
                    key=lambda row: key(row[0]))
    basis, reductions = ranked[:1], 0
    for row in ranked[1:]:
        reductions += 1
        _charge(reductions, budget)
        _, r = divide(_terms(row), basis, packing)
        if not r.is_zero():
            basis.append(primitive(r))
    # Pairs are taken from a heap in (lcm order, i, j) order, each key
    # computed once; the pending set serves _chain_skip's membership test.
    # lms holds the packed leading monomials, exps their exponent tuples.
    heap, pending = [], set()
    lms, exps = [], []
    pack, guard = packing.pack, packing.guard

    def add_pairs(j):
        lm_j = basis[j][0]
        exp_j = packing.unpack(lm_j)
        lms.append(lm_j)
        exps.append(exp_j)
        for i in range(j):
            u = pack(m_lcm(exps[i], exp_j))
            # Buchberger's first criterion: coprime leading monomials make an
            # S-polynomial that reduces to 0, so the pair is handled at once.
            if u == lms[i] + lm_j:
                continue
            heapq.heappush(heap, (key(u), i, j, u))
            pending.add((i, j))

    for j in range(len(basis)):
        add_pairs(j)

    while heap:
        _, i, j, u = heapq.heappop(heap)
        pending.remove((i, j))
        if _chain_skip(i, j, u, lms, pending, guard):
            continue
        reductions += 1
        _charge(reductions, budget)
        _, r = divide(_spoly(basis[i], basis[j], u), basis, packing)
        if not r.is_zero():
            basis.append(_fits(primitive(r), packing))
            add_pairs(len(basis) - 1)

    return GroebnerBasis(order, [packing.monic(row) for row in basis],
                         reductions)


def _minimalize(basis, order):
    ranked = sorted(basis, key=lambda g: order.key(g.leading_monomial()))
    kept = []
    for g in ranked:
        lm = g.leading_monomial()
        if not any(m_divides(h.leading_monomial(), lm) for h in kept):
            kept.append(g)
    return kept


def _interreduce(basis, order):
    """The reduced basis of a Groebner basis, in ascending leading monomials.

    One sweep over the minimal basis suffices: no step changes a leading
    monomial, so an element reduced against the others stays reduced
    (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, 2.7, Thm 5).
    """
    basis = _minimalize(basis, order)
    if not basis:
        return basis
    packing = Packing(basis[0].vars, order)
    rows = [_fits(packing.row(g), packing) for g in basis]
    for i in range(len(rows)):
        _, r = divide(_terms(rows[i]), rows[:i] + rows[i + 1:], packing)
        assert not r.is_zero(), "minimal basis element reduced away"
        rows[i] = primitive(r)
    return [packing.monic(row) for row in rows]


def homogenize(f, ext_vars):
    """Lift f to ext_vars (homogenizing variable first) at its total degree."""
    d = f.degree()
    terms = [((d - m_deg(m),) + m, c) for m, c in f.terms]
    return Polynomial._trusted(tuple(ext_vars), terms, GRADED_FIRST)


def tangent_cone(gens, budget=PAIR_BUDGET):
    """Generators of the initial ideal of (gens), as a reduced grevlex basis.

    Each generator is homogenized by a fresh variable w placed first in a
    graded order that ranks it above the others.  That order homogenizes a
    local degree order, so the initial forms of the dehomogenized minimal
    basis are already a grevlex Groebner basis of the cone (Lazard,
    EUROCAL 1983; Mora, EUROCAM 1982): interreducing them gives the
    reduced basis with no second Buchberger run.  A principal ideal's cone
    is generated by the initial form of its generator, which is what that
    run returns for one generator.
    """
    if not gens:
        raise ValueError("empty generator list")
    vars = gens[0].vars
    if any(g.vars != vars for g in gens):
        raise ValueError("mixed variable tuples")
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("every generator is 0; the zero ideal cuts nothing")
    for g in gens:
        if g.min_degree() == 0:
            raise GermEmptyError(
                "a generator has a nonzero constant term; the germ misses 0")
    if len(gens) == 1:
        init = initial_part(gens[0].with_order(GREVLEX)).init
        return TangentConeIdeal(vars=vars, generators=[init.monic()])

    ext = (fresh_name(vars),) + vars
    gb = buchberger([homogenize(g, ext) for g in gens], GRADED_FIRST, budget)
    inits = [_cone_form(g, vars) for g in _minimalize(gb.basis, GRADED_FIRST)]
    return TangentConeIdeal(vars=vars, generators=_interreduce(inits, GREVLEX))


def _cone_form(g, vars):
    """The initial form of g(1, x), for g homogeneous, as every element of
    tangent_cone's run is.  Its terms of lowest degree in x have the top w
    exponent, and GRADED_FIRST puts them first, in grevlex order on x.  It
    is not constant, since every generator vanishes at 0.
    """
    top = g.terms[0][0][0]
    run = takewhile(lambda t: t[0][0] == top, g.terms)
    return Polynomial._trusted(vars, [(m[1:], c) for m, c in run], GREVLEX,
                               ordered=True)
