"""Hilbert series of monomial ideals: cone dimension and multiplicity."""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .groebner import PAIR_BUDGET, tangent_cone
from .polyring import m_deg, m_divides


@dataclass
class HilbertData:
    numerator: tuple          # h(t) with series h(t)/(1-t)^n, int coefficients
    dim_affine: int           # Krull dimension, -1 for the zero quotient
    degree: int               # degree of the top-dimensional part
    hilbert_polynomial: tuple  # Fraction coefficients, ascending powers


def leading_ideal(basis):
    """Minimal monomial generators of the leading-term ideal of a basis."""
    return _minimal([g.leading_monomial() for g in basis])


def _minimal(monos):
    ranked = sorted(set(monos), key=lambda m: (m_deg(m), m))
    kept = []
    for m in ranked:
        if not any(m_divides(p, m) for p in kept):
            kept.append(m)
    return kept


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _shift(a, k):
    return [0] * k + list(a)


def _numerator(gens, n, cache):
    """Numerator of the Hilbert series of R/(gens) over (1-t)^n."""
    gens = tuple(sorted(gens))
    hit = cache.get(gens)
    if hit is not None:
        return hit
    if not gens:
        result = [1]
    elif any(m_deg(m) == 0 for m in gens):
        # a unit among the generators kills the quotient
        result = [0]
    else:
        supports = [tuple(i for i, e in enumerate(m) if e) for m in gens]
        coprime = all(not set(supports[i]) & set(supports[j])
                      for i in range(len(gens)) for j in range(i + 1, len(gens)))
        if coprime:
            result = [1]
            for m in gens:
                factor = [1] + [0] * (m_deg(m) - 1) + [-1]
                result = _poly_mul(result, factor)
        else:
            counts = [sum(1 for m in gens if m[j] > 0) for j in range(n)]
            j = max(range(n), key=lambda v: counts[v])
            pivot = tuple(1 if v == j else 0 for v in range(n))
            plus = _minimal([pivot] + [m for m in gens if m[j] == 0])
            colon = _minimal([m[:j] + (m[j] - 1,) + m[j + 1:] if m[j] else m
                              for m in gens])
            result = _poly_add(_numerator(plus, n, cache),
                               _shift(_numerator(colon, n, cache), 1))
    while len(result) > 1 and result[-1] == 0:
        result.pop()
    cache[gens] = result
    return result


def _binom_coeffs(i, d):
    """Integer coefficients of (d-1)! * C(T - i + d - 1, d - 1) in T."""
    poly = [1]
    for r in range(1, d):
        # multiply by (T - i + r)
        shifted = [0] + poly
        scaled = [(r - i) * c for c in poly] + [0]
        poly = [a + b for a, b in zip(shifted, scaled)]
    return poly


def hilbert_series(monomial_gens, n):
    """Exact Hilbert data of R/(monomial ideal) in n variables."""
    gens = _minimal([tuple(m) for m in monomial_gens])
    if n < 1 or any(len(m) != n for m in gens):
        raise ValueError(f"need n >= 1 and n exponents per monomial, n = {n}")
    h = _numerator(gens, n, {})

    if all(c == 0 for c in h):
        # unit ideal, zero quotient
        return HilbertData(tuple(h), -1, 0, ())

    reduced = list(h)
    cancelled = 0
    while sum(reduced) == 0:
        # exact synthetic division by (1 - t)
        q = []
        acc = 0
        for c in reduced[:-1]:
            acc += c
            q.append(acc)
        reduced = q if q else [0]
        cancelled += 1
    d = n - cancelled
    degree = sum(reduced)
    assert degree > 0, (h, reduced)

    if d == 0:
        hp = ()
    else:
        coeffs = [0] * d
        for i, c in enumerate(reduced):
            if c == 0:
                continue
            for p, b in enumerate(_binom_coeffs(i, d)):
                coeffs[p] += c * b
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        fact = factorial(d - 1)
        hp = tuple(Fraction(v, fact) for v in coeffs)
    return HilbertData(tuple(h), d, degree, hp)


def hilbert_function(numerator, n, t):
    """Dimension of the degree-t piece of the quotient, from the numerator."""
    return sum(c * comb(t - i + n - 1, n - 1)
               for i, c in enumerate(numerator) if i <= t)


def germ_multiplicity(gens, budget=PAIR_BUDGET):
    """Cone dimension d and multiplicity mu of the germ defined by gens."""
    cone = tangent_cone(gens, budget)
    data = hilbert_series(leading_ideal(cone.generators), len(cone.vars))
    return data.dim_affine, data.degree
