"""Initial forms and the conic rescaling that exhibits them as limits."""

from dataclasses import dataclass
from fractions import Fraction

from .polyring import Polynomial, m_deg


@dataclass(frozen=True)
class InitialForm:
    mu: int
    init: Polynomial


def initial_part(f):
    """Lowest-degree homogeneous part of f and its order of vanishing."""
    assert not f.is_zero(), "initial part of 0 is undefined"
    mu = f.min_degree()
    terms = [(m, c) for m, c in f.terms if m_deg(m) == mu]
    return InitialForm(mu, Polynomial._trusted(f.vars, terms, f.order,
                                               ordered=True))


def conic_blowup(f, eps):
    """Rescale f(eps * x) / eps^mu, exact in eps.

    At eps = 1 this is f itself; as eps shrinks the terms above the initial
    degree are damped by eps^(deg - mu), so the initial form is the limit.
    """
    assert not f.is_zero()
    eps = Fraction(eps)
    assert eps != 0, "rescaling by 0 is undefined"
    mu = f.min_degree()
    terms = [(m, c * eps ** (m_deg(m) - mu)) for m, c in f.terms]
    return Polynomial._trusted(f.vars, terms, f.order, ordered=True)
