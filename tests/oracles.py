"""Test-only helpers over the package's data.

No command reads these, so they live with the tests rather than in `src/`:
exact evaluation, term dicts and the zero of a Polynomial, the conic
rescaling, and a Hilbert function, plus three views of product code that
the tests check: one ball volume from crofton's recurrence, a one-cell
enclosure from numtopo's _Encloser, and a SectionSpec's free variables.
"""

from fractions import Fraction
from itertools import islice
from math import comb

import numpy as np

from germcone.crofton import _ball_volumes
from germcone.numtopo import _Encloser
from germcone.polyring import Polynomial, m_deg


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
    lo, hi = _Encloser(f)(cx, cy, wx, wy)
    return float(lo[0]), float(hi[0])


def free_vars(spec):
    """The variables a SectionSpec leaves free."""
    return tuple(v for v in spec.f.vars if v not in spec.fixed_assignments)
