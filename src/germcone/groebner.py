"""Buchberger's algorithm, initial forms and the homogenization route to
tangent cones."""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile

from .polyring import (GRADED_FIRST, GREVLEX, Polynomial, _numerators, divide,
                       fresh_name, m_deg, m_div, m_divides, m_lcm, m_mul)

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


def buchberger(gens, order, budget=PAIR_BUDGET):
    """A Groebner basis as built, not reduced: the generators the pre-pass
    keeps, then the S-pair remainders.

    The pre-pass takes the distinct generators in ascending leading
    monomial, keeps the first and replaces each later one by its remainder
    modulo those kept before it, dropping zeros and making the rest monic.
    It keeps the ideal, drops dependent generators and leaves distinct
    leading monomials, before any pair is made.  Each divide, in the
    pre-pass or of an S-pair, is one reduction charged to budget.
    """
    if not gens:
        raise ValueError("empty generator list")
    if any(g.is_zero() for g in gens):
        raise ValueError("a generator is 0; drop it before the run")
    # dict keys dedup by hash and keep first-seen order, which the stable
    # sort keeps among equal leading monomials
    ranked = sorted(dict.fromkeys(g.with_order(order).monic() for g in gens),
                    key=lambda g: order.key(g.leading_monomial()))
    basis, reductions = ranked[:1], 0
    for g in ranked[1:]:
        reductions += 1
        _charge(reductions, budget)
        _, r = divide(g, basis, order)
        if not r.is_zero():
            basis.append(r.monic())
    # Pairs are taken from a heap in (lcm order, i, j) order, each key
    # computed once; the pending set serves _chain_skip's membership test.
    heap, pending = [], set()

    def add_pairs(j):
        lm_j = basis[j].leading_monomial()
        for i in range(j):
            lm_i = basis[i].leading_monomial()
            u = m_lcm(lm_i, lm_j)
            # Buchberger's first criterion: coprime leading monomials make an
            # S-polynomial that reduces to 0, so the pair is handled at once.
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
        _, r = divide(spoly(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            basis.append(r.monic())
            add_pairs(len(basis) - 1)

    return GroebnerBasis(order, basis, reductions)


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
    for i in range(len(basis)):
        _, r = divide(basis[i], basis[:i] + basis[i + 1:], order)
        assert not r.is_zero(), "minimal basis element reduced away"
        basis[i] = r.monic()
    return basis


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
