"""Hilbert series of monomial ideals: cone dimension and multiplicity."""

from dataclasses import dataclass
from math import comb

from .groebner import PAIR_BUDGET, tangent_cone
from .polyring import m_deg, m_divides


@dataclass
class HilbertData:
    numerator: tuple          # h(t) as ascending (degree, coeff) pairs
    dim_affine: int           # Krull dimension, -1 for the zero quotient
    degree: int               # degree of the top-dimensional part


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


def _add_shifted(a, b, e, sign):
    """a + sign * t^e * b, on sparse polynomials {degree: nonzero int}."""
    out = dict(a)
    for i, c in b.items():
        v = out.get(i + e, 0) + sign * c
        if v:
            out[i + e] = v
        else:
            out.pop(i + e, None)
    return out


def _numerator(gens, n, cache):
    """Numerator of the Hilbert series of R/(gens) over (1-t)^n.

    Splits at a power x_j^e of the most frequent variable, e its least
    positive exponent: H(R/I) = H(R/(I + x_j^e)) + t^e H(R/(I : x_j^e))
    (Bayer and Stillman, J. Symbolic Comput. 14, 1992).
    """
    gens = tuple(sorted(gens))
    hit = cache.get(gens)
    if hit is not None:
        return hit
    if any(m_deg(m) == 0 for m in gens):
        # a unit among the generators kills the quotient
        result = {}
    else:
        counts = [sum(1 for m in gens if m[j]) for j in range(n)]
        j = max(range(n), key=lambda v: counts[v])
        if counts[j] <= 1:
            # pairwise coprime: the numerator is the product of (1 - t^deg m)
            result = {0: 1}
            for m in gens:
                result = _add_shifted(result, result, m_deg(m), -1)
        else:
            e = min(m[j] for m in gens if m[j])
            pivot = tuple(e if v == j else 0 for v in range(n))
            plus = _minimal([pivot] + [m for m in gens if not m[j]])
            colon = _minimal([m[:j] + (m[j] - e,) + m[j + 1:] if m[j] else m
                              for m in gens])
            result = _add_shifted(_numerator(plus, n, cache),
                                  _numerator(colon, n, cache), e, 1)
    cache[gens] = result
    return result


def hilbert_series(monomial_gens, n):
    """Exact Hilbert data of R/(monomial ideal) in n variables.

    With h = (1-t)^c g and g(1) != 0, the first nonzero Taylor coefficient
    of h at t = 1 is sum a_i C(i, c) = (-1)^c g(1): the dimension is n - c
    and the multiplicity g(1).
    """
    gens = _minimal([tuple(m) for m in monomial_gens])
    if n < 1 or any(len(m) != n for m in gens):
        raise ValueError(f"need n >= 1 and n exponents per monomial, n = {n}")
    h = _numerator(gens, n, {})
    numerator = tuple(sorted(h.items()))
    if not h:
        return HilbertData(numerator, -1, 0)
    c = 0
    while not (taylor := sum(a * comb(i, c) for i, a in numerator)):
        c += 1
    return HilbertData(numerator, n - c, (-1) ** c * taylor)


def germ_multiplicity(gens, budget=PAIR_BUDGET):
    """Cone dimension d and multiplicity mu of the germ defined by gens."""
    cone = tangent_cone(gens, budget)
    data = hilbert_series(leading_ideal(cone.generators), len(cone.vars))
    return data.dim_affine, data.degree
