"""Jacobian-criterion singular locus of the tangent cone and its dimension."""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .groebner import GREVLEX, PAIR_BUDGET, ResourceLimitExceeded, buchberger
from .hilbert import hilbert_series, leading_ideal
from .polyring import Polynomial

MINOR_CAP = 10 ** 5


@dataclass
class SingularLocusData:
    sing_ideal_gens: list
    s: int                 # affine dimension over the closure, -1 when empty
    empty: bool


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = Polynomial.zero(rows[0][0].vars, rows[0][0].order)
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        rest = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = entry * _det(rest)
        if j % 2:
            term = -term
        total = total + term
    return total


def jacobian_minors(gens, c):
    """All c x c minors of the Jacobian of gens, zero minors dropped."""
    assert gens
    vars = gens[0].vars
    n = len(vars)
    if not 1 <= c <= min(len(gens), n):
        raise ValueError(f"minor size {c} out of range for "
                         f"{len(gens)} generators in {n} variables")
    if comb(len(gens), c) * comb(n, c) > MINOR_CAP:
        raise ResourceLimitExceeded(
            f"singular: {comb(len(gens), c) * comb(n, c)} minors exceed cap {MINOR_CAP}")
    jac = [[g.derivative(v) for v in vars] for g in gens]
    dets = (_det([[jac[i][j] for j in cols] for i in rows])
            for rows in combinations(range(len(gens)), c)
            for cols in combinations(range(n), c))
    # dict keys dedup by hash and keep first-seen order
    return list(dict.fromkeys(det for det in dets if not det.is_zero()))


def singular_dimension(cone, n, d, budget=PAIR_BUDGET):
    """Dimension of Sing of the cone scheme, via expected codimension n - d."""
    gens = list(cone.generators)
    assert gens
    c = n - d
    minors = jacobian_minors(gens, c)
    sing_gens = gens + minors
    if any(m.is_constant() for m in minors):
        return SingularLocusData(sing_gens, -1, True)
    gb = buchberger(sing_gens, GREVLEX, budget)
    if gb.is_unit_ideal():
        return SingularLocusData(sing_gens, -1, True)
    data = hilbert_series(leading_ideal(gb.basis), n)
    return SingularLocusData(sing_gens, data.dim_affine, False)
