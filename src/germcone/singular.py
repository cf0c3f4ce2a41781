"""Jacobian-criterion singular locus of the tangent cone and its dimension."""

import random
from itertools import combinations, combinations_with_replacement
from math import comb

from .groebner import GREVLEX, PAIR_BUDGET, ResourceLimitExceeded, buchberger
from .hilbert import hilbert_series, leading_ideal
from .polyring import m_deg, m_div, m_divides, m_mul

MINOR_CAP = 10 ** 5
P = 2 ** 31 - 1     # the certificate's prime, fixed so that runs repeat
CERT_MAX_C = 3      # a dense c x c cofactor expansion costs c! products


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
    """Whether degree D's normal-form table of N rows of at most N residues,
    N = C(D+n-1, n-1), could hold more than 10^6 entries."""
    return comb(D + n - 1, n - 1) ** 2 > 10 ** 6


def _monomials(n, D):
    """The exponent vectors of degree D in n variables, in a fixed order."""
    for picks in combinations_with_replacement(range(n), D):
        e = [0] * n
        for i in picks:
            e[i] += 1
        yield tuple(e)


def _normal_forms(reduced, n, D):
    """The normal form mod P of every degree-D monomial, over the standard ones.

    Walks the degree-D monomials in ascending grevlex order.  One that no
    leading monomial divides is standard and its own normal form, with the
    next column.  Any other is x^b lm(g), whose normal form is
    -sum (t / lc g) NF(x^b t) over the tail terms t of g; each x^b t is
    smaller, so already in the table.  lm and lc are those of the residues
    mod P, and a generator that vanishes mod P is left out.  Returns the
    table, {monomial: {column: residue}}, and the number of columns.
    """
    tails = []
    for g in filter(None, reduced):
        lm = max(g, key=GREVLEX.key)
        inv = pow(g[lm], -1, P)
        tails.append((lm, [(t, -v * inv % P) for t, v in g.items() if t != lm]))
    table, width = {}, 0
    for m in sorted(_monomials(n, D), key=GREVLEX.key):
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
    det(A J B): its matrix entries are the derivatives of c combinations of
    the generators along c directions, so it is a combination of minors and,
    the ideal being homogeneous, so is each of its homogeneous components.
    The degree-D monomials get normal forms modulo the generators over the
    standard ones (_normal_forms), and the degree-D part of each draw, put
    in normal form, is one dense row over the standard monomials.  Draws are
    ranked until one adds no rank; the test fires when the rank equals the
    number of standard monomials.

    It is sound whether or not gens is a Groebner basis.  Lift every mod-P
    step to Z_(P): each x - NF(x), x not standard, is an element of the
    ideal with a pivot at x, and each row is its draw minus multiples of the
    generators.  Together they make an N x N matrix mod P, N = C(D+n-1, n-1),
    that is block-triangular: the identity on the non-standard columns, and
    the ranked rows on the standard ones.  A rank mod P never exceeds the
    rank over Q, so a full rank proves m^D in the ideal over Q.  This holds
    whichever generator the mod-P leading monomial picks.  The ideal is
    homogeneous and not (1), so V is the origin and s = 0.  The draws
    decide only whether this path is taken, never the value of s; False
    means only that this test did not settle the question.

    It declines c > CERT_MAX_C, where the combinations are dense and their
    cofactor expansion costs more than the sparse minors; generators that
    are not all homogeneous of degree >= 1, or c of them linear, when a
    minor may be constant; inputs with few generators and minors against
    the monomials of the lowest degree they reach; a coefficient whose
    denominator P divides; and a degree D whose table would be too wide.
    """
    if not 1 <= c <= min(len(gens), n, CERT_MAX_C):
        return False
    if not all(g.is_homogeneous() and g.min_degree() >= 1 for g in gens):
        return False
    degs = sorted(g.degree() for g in gens)
    if degs[c - 1] == 1:                            # a minor may be constant
        return False
    # A cost gate, not a bound on the rank: with fewer generators and minors
    # than the monomials of the lowest degree they reach, a full degree is
    # too unlikely to pay for a draw.
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
    table, width = _normal_forms(reduced, n, D)
    pivots = {}
    while True:
        row = [0] * width
        for m, v in draw.items():
            for j, a in table.get(m, {}).items():
                row[j] += v * a
        if not _insert(pivots, [r % P for r in row]) or len(pivots) == width:
            return len(pivots) == width     # the rank is at most width
        draw = _det(_draw(rng, reduced, n, c))


def singular_dimension(cone, n, d, budget=PAIR_BUDGET):
    """Dimension s of Sing of the cone scheme, -1 when it is empty.

    The singular ideal is the cone's generators plus the c x c minors of
    their Jacobian, c = n - d, the expected codimension.  Before any minor
    is built over Q, the m-primary certificate (_m_primary) may settle
    s = 0; when it does not fire, the exact path runs unchanged.  A linear
    cone's minors are constants, so that run's basis holds 1 after no
    reduction, its generators and 1 having pairwise coprime leading
    monomials: s = -1.
    """
    gens = list(cone.generators)
    if not gens:
        raise ValueError("singular_dimension needs at least one cone generator")
    c = n - d
    if _m_primary(gens, n, c):
        return 0
    gb = buchberger(gens + jacobian_minors(gens, c), GREVLEX, budget)
    return hilbert_series(leading_ideal(gb.basis), n).dim_affine  # -1 for (1)
