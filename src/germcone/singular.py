"""Jacobian-criterion singular locus of the tangent cone and its dimension."""

import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
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
    if not gens:
        raise ValueError("jacobian_minors needs at least one generator")
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


def _directional(f, b):
    """The derivative of f mod P along the vector b, sum_j b_j df/dx_j."""
    out = {}
    for m, v in f.items():
        for j, e in enumerate(m):
            if e:
                dm = m[:j] + (e - 1,) + m[j + 1:]
                out[dm] = (out.get(dm, 0) + b[j] * e * v) % P
    return _ModP({m: v for m, v in out.items() if v})


def _draw(rng, reduced, n, c):
    """The next seeded c x c matrix A J B, as entries d_{b_l}(sum_i A_ki g_i).

    A is c x len(reduced) and B is n x c, drawn in that order; row k of A
    combines the generators once, and column l of B is a direction to
    differentiate that combination along, which is row k of A J times
    column l of B.
    """
    A = [[rng.randrange(P) for _ in reduced] for _ in range(c)]
    Bt = [[rng.randrange(P) for _ in range(n)] for _ in range(c)]
    combos = [_lincomb(zip(a, reduced)) for a in A]
    return [[_directional(h, b) for b in Bt] for h in combos]


def _too_wide(D, n):
    """Whether degree D's table of N rows of N residues, N = C(D+n-1, n-1),
    would hold more than ten times the MINOR_CAP entries."""
    return comb(D + n - 1, n - 1) ** 2 > 10 * MINOR_CAP


def _monomials(n, D):
    """The exponent vectors of degree D in n variables, in a fixed order."""
    for picks in combinations_with_replacement(range(n), D):
        e = [0] * n
        for i in picks:
            e[i] += 1
        yield tuple(e)


def _insert(pivots, row):
    """Reduce a dense row in one forward sweep; keep it if nonzero.

    pivots maps a lead position to the monic tail of its row from there on.
    """
    for j in range(len(row)):
        a = row[j]
        if not a:
            continue
        pivot = pivots.get(j)
        if pivot is None:
            inv = pow(a, -1, P)
            pivots[j] = [v * inv % P for v in row[j:]]
            return True
        row[j:] = [(r - a * p) % P for r, p in zip(row[j:], pivot)]
    return False


def _m_primary(gens, n, c):
    """True when, mod P, one degree D of the ideal (gens, c x c minors) is full.

    D is the lowest degree of the first seeded Cauchy-Binet combination
    det(A J B).  Degree D's echelon starts from every monomial multiple
    x^a g of degree D of a generator g, then takes the degree-D component
    of each draw until one adds no rank.  Its rows are dense lists over the
    degree-D monomials, each reduced in one forward sweep, and each draw's
    matrix is c combinations of the generators differentiated along c
    directions.  False means only that this test did not settle the
    question.  It declines inputs over MINOR_CAP, which jacobian_minors
    refuses; c > CERT_MAX_C, where the combinations are dense and their
    cofactor expansion costs more than the sparse minors; inputs with few
    generators and minors against the monomials of the lowest degree they
    reach; and a degree D whose dense table would be too wide.
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
    # A cost gate, not a bound on the rank, since multiples add rows too:
    # with fewer generators and minors than the monomials of the lowest
    # degree they reach, a full degree is too unlikely to pay for draws.
    low = sum(e - 1 for e in degs[:c])              # the lowest minor degree
    if len(gens) + _minor_count(gens, n, c) < comb(min(degs[0], low) + n - 1,
                                                  n - 1):
        return False
    if _too_wide(low, n):                           # D >= low is wider still
        return False
    reduced = [_reduce(g) for g in gens]
    if any(g is None for g in reduced):
        return False
    rng = random.Random(0)
    draw = _det(_draw(rng, reduced, n, c))
    if not draw:
        return False
    D = min(map(m_deg, draw))
    if _too_wide(D, n):
        return False
    index = {m: i for i, m in enumerate(_monomials(n, D))}
    pivots = {}

    def grows(f, shift):
        """Inserts x^shift times f's degree-D part: whether the rank grew."""
        row = [0] * len(index)
        for m, v in f.items():
            i = index.get(m_mul(m, shift))
            if i is not None:
                row[i] = v
        return _insert(pivots, row)

    multiples = ((g, a) for g, e in zip(reduced, (g.degree() for g in gens))
                 if e <= D for a in _monomials(n, D - e))
    if any(grows(g, a) and len(pivots) == len(index) for g, a in multiples):
        return True
    zero = (0,) * n
    while grows(draw, zero):        # ends: the rank is at most len(index)
        if len(pivots) == len(index):
            return True
        draw = _det(_draw(rng, reduced, n, c))
    return False


def singular_dimension(cone, n, d, budget=PAIR_BUDGET):
    """Dimension of Sing of the cone scheme, via expected codimension n - d.

    The singular ideal I is the cone's generators plus the c x c minors of
    their Jacobian, c = n - d.  Before any minor is built over Q, an
    m-primary certificate may settle s = 0.  It applies when c <= CERT_MAX_C,
    the minors are within MINOR_CAP, the generators are homogeneous of
    degree >= 1, fewer than c are linear (so every minor is homogeneous of
    degree >= 1 and I is not (1)) and every coefficient reduces mod P.
    It works in one degree D, the lowest of the first seeded Cauchy-Binet
    combination det(A J B), and declines when that degree has too many
    monomials for a dense table.  Its rows are the monomial multiples
    x^a g of degree D of the generators, which lie in I, and the degree-D
    components of seeded draws: each det(A J B) is a linear combination of
    minors, its matrix entries being the derivatives of c combinations of
    the generators along c directions, so it and, I being homogeneous, each
    of its homogeneous components lie in I.  Each row is reduced mod P in
    one forward sweep over the degree-D monomials.  Reducing p-integral
    elements of I of degree D mod P can only lower their rank, since a
    nonzero maximal minor mod P is nonzero over Q: if they reach rank
    C(D+n-1, n-1) mod P, then m^D is in I over Q, V(I) is the origin and
    s = 0.  The seeded draws decide only whether this path is taken, never
    the value of s; when it does not fire, the exact path below runs
    unchanged.
    """
    gens = list(cone.generators)
    if not gens:
        raise ValueError("singular_dimension needs at least one cone generator")
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
