"""Jacobian-criterion singular locus of the tangent cone and its dimension."""

import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .groebner import GREVLEX, PAIR_BUDGET, ResourceLimitExceeded, buchberger
from .hilbert import hilbert_series, leading_ideal
from .polyring import m_deg, m_mul

MINOR_CAP = 10 ** 5
P = 2 ** 31 - 1     # the certificate's prime, fixed so that runs repeat
CERT_MAX_C = 3      # a dense c x c cofactor expansion costs c! products


@dataclass
class SingularLocusData:
    s: int                 # affine dimension over the closure, -1 when empty
    empty: bool


def _det(rows):
    """Cofactor determinant of a square matrix of Polynomial or _ModP entries."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        rest = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = entry * _det(rest)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return rows[0][0] if total is None else total


def _minor_count(gens, n, c):
    return comb(len(gens), c) * comb(n, c)


def jacobian_minors(gens, c):
    """All c x c minors of the Jacobian of gens, zero minors dropped."""
    assert gens
    vars = gens[0].vars
    n = len(vars)
    if not 1 <= c <= min(len(gens), n):
        raise ValueError(f"minor size {c} out of range for "
                         f"{len(gens)} generators in {n} variables")
    if _minor_count(gens, n, c) > MINOR_CAP:
        raise ResourceLimitExceeded(
            f"singular: {_minor_count(gens, n, c)} minors exceed cap {MINOR_CAP}")
    jac = [[g.derivative(v) for v in vars] for g in gens]
    dets = (_det([[jac[i][j] for j in cols] for i in rows])
            for rows in combinations(range(len(gens)), c)
            for cols in combinations(range(n), c))
    # dict keys dedup by hash and keep first-seen order
    return list(dict.fromkeys(det for det in dets if not det.is_zero()))


# --- the m-primary certificate, in arithmetic mod P ---

class _ModP(dict):
    """A polynomial mod P as {monomial: nonzero residue}, enough for _det."""

    def is_zero(self):
        return not self

    def __neg__(self):
        return _ModP({m: P - v for m, v in self.items()})

    def __add__(self, other):
        return _lincomb([(1, self), (1, other)])

    def __mul__(self, other):
        out = {}
        for m1, v1 in self.items():
            for m2, v2 in other.items():
                m = m_mul(m1, m2)
                out[m] = (out.get(m, 0) + v1 * v2) % P
        return _ModP({m: v for m, v in out.items() if v})


def _lincomb(pairs):
    """sum(a * f for a, f in pairs) mod P."""
    out = {}
    for a, f in pairs:
        for m, v in f.items():
            out[m] = (out.get(m, 0) + a * v) % P
    return _ModP({m: v for m, v in out.items() if v})


def _reduce(f):
    """f mod P, or None when P divides a coefficient's denominator."""
    out = _ModP()
    for m, q in f.terms:
        if q.denominator % P == 0:
            return None
        v = q.numerator * pow(q.denominator, -1, P) % P
        if v:
            out[m] = v
    return out


def _insert(pivots, row):
    """Reduce row against pivots {lead monomial: monic row}; keep it if nonzero."""
    row = dict(row)
    while row:
        lead = max(row)
        pivot = pivots.get(lead)
        if pivot is None:
            inv = pow(row[lead], -1, P)
            pivots[lead] = {m: v * inv % P for m, v in row.items()}
            return True
        a = row[lead]
        for m, v in pivot.items():
            r = (row.get(m, 0) - a * v) % P
            if r:
                row[m] = r
            else:
                row.pop(m, None)
    return False


def _m_primary(gens, n, c):
    """True when some degree D >= 1 of (gens, c x c Jacobian minors) is full.

    The ranks are taken mod P over the generators and the homogeneous
    components of seeded Cauchy-Binet combinations det(A J B), drawn until
    one adds no rank.  False means only that this test did not settle the
    question.  It declines inputs over MINOR_CAP, which jacobian_minors
    refuses, c > CERT_MAX_C, where the combinations are dense and their
    cofactor expansion costs more than the sparse minors, and inputs with
    too few generators and minors to fill any degree.
    """
    if not 1 <= c <= min(len(gens), n, CERT_MAX_C):
        return False
    if _minor_count(gens, n, c) > MINOR_CAP:
        return False
    if not all(g.is_homogeneous() and g.min_degree() >= 1 for g in gens):
        return False
    degs = sorted(g.degree() for g in gens)
    if degs[c - 1] == 1:                            # a minor may be constant
        return False
    # Degree-D rows come from degree-D generators and the span of the
    # homogeneous degree-D minors, so no degree fills when even the lowest
    # one holds more monomials than there are generators and minors.
    low = min(degs[0], sum(e - 1 for e in degs[:c]))
    if len(gens) + _minor_count(gens, n, c) < comb(low + n - 1, n - 1):
        return False
    reduced = [_reduce(g) for g in gens]
    if any(g is None for g in reduced):
        return False
    cols = list(zip(*[[_reduce(g.derivative(v)) for v in g.vars] for g in gens]))
    pivots = defaultdict(dict)          # degree -> its echelon rows

    def add(f):
        """Adds f's components: (whether the rank grew, whether a degree is full)."""
        parts = defaultdict(dict)
        for m, v in f.items():
            parts[m_deg(m)][m] = v
        grew = False
        for D, part in parts.items():
            if _insert(pivots[D], part):
                grew = True
                if len(pivots[D]) == comb(D + n - 1, n - 1):
                    return True, True
        return grew, False

    for g in reduced:
        if add(g)[1]:
            return True
    rng = random.Random(0)
    while True:     # ends: the rank is finite and a draw that adds none returns
        A = [[rng.randrange(P) for _ in gens] for _ in range(c)]
        Bt = [[rng.randrange(P) for _ in range(n)] for _ in range(c)]
        AJ = [[_lincomb(zip(a, col)) for col in cols] for a in A]
        grew, full = add(_det([[_lincomb(zip(b, row)) for b in Bt] for row in AJ]))
        if full:
            return True
        if not grew:
            return False


def singular_dimension(cone, n, d, budget=PAIR_BUDGET):
    """Dimension of Sing of the cone scheme, via expected codimension n - d.

    The singular ideal I is the cone's generators plus the c x c minors of
    their Jacobian, c = n - d.  Before any minor is built over Q, an
    m-primary certificate may settle s = 0.  It applies when c <= CERT_MAX_C,
    the minors are within MINOR_CAP, the generators are homogeneous of
    degree >= 1, fewer than c are linear (so every minor is homogeneous of
    degree >= 1 and I is not (1)) and every coefficient reduces mod P.
    Each Cauchy-Binet combination det(A J B) is a linear combination of
    minors, so it and, I being homogeneous, each of its homogeneous
    components lie in I.  Reducing p-integral elements of I of degree D
    mod P can only lower their rank, since a nonzero maximal minor mod P is
    nonzero over Q: if they reach rank C(D+n-1, n-1) mod P, then m^D is in
    I over Q, V(I) is the origin and s = 0.  The seeded draws decide only
    whether this path is taken, never the value of s; when it does not
    fire, the exact path below runs unchanged.
    """
    gens = list(cone.generators)
    assert gens
    c = n - d
    if _m_primary(gens, n, c):
        return SingularLocusData(0, False)
    minors = jacobian_minors(gens, c)
    if any(m.is_constant() for m in minors):
        return SingularLocusData(-1, True)
    gb = buchberger(gens + minors, GREVLEX, budget)
    if gb.is_unit_ideal():
        return SingularLocusData(-1, True)
    data = hilbert_series(leading_ideal(gb.basis), n)
    return SingularLocusData(data.dim_affine, False)
