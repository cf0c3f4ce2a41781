"""Jacobian-criterion singular locus of the tangent cone and its dimension."""

import random
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, inf

from .groebner import GREVLEX, PAIR_BUDGET, ResourceLimitExceeded, buchberger
from .hilbert import hilbert_series, leading_ideal
from .polyring import Packing

MINOR_CAP = 10 ** 5
P = 2 ** 31 - 1     # the certificate's prime, fixed so that runs repeat
# The certificate's first draw is a dense c x c expansion, and each round's c
# cofactors are dense (c-1) x (c-1) ones: c! products either way, which the
# round shares among all its rows.  No input has needed c = 4 yet.
CERT_MAX_C = 3


def _det(rows, top=None):
    """Cofactor determinant of a square matrix of Polynomial or _ModP entries.

    With top, of _ModP entries, every product keeps only its terms below the
    packed monomial top (_mul); (D + 1) << deg_shift keeps those of degree
    at most D.  No term has negative degree, so the determinant's terms of
    degree at most D are exact, its 1 x 1 case aside.  Packing renames the
    monomials and nothing else: a product's monomial is the sum of the ints
    as it was the sum of the exponent tuples, so every residue is the one
    the tuples give.
    """
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        rest = [r[:j] + r[j + 1:] for r in rows[1:]]
        sub = _det(rest, top)
        term = entry * sub if top is None else _mul(entry, sub, top)
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


# --- the m-primary certificate, in arithmetic mod P on packed monomials ---

class _ModP(dict):
    """A polynomial mod P as {packed monomial: nonzero residue}, enough for
    _det; the packing is the grevlex Packing of the certificate's vars."""

    def is_zero(self):
        return not self

    def __neg__(self):
        return _ModP({m: P - v for m, v in self.items()})

    def __add__(self, other):
        return _lincomb([(1, self), (1, other)])

    def __mul__(self, other):
        return _mul(self, other, inf)


def _mod(sums):
    """The _ModP of {monomial: int}, its zero residues dropped."""
    return _ModP({m: r for m, v in sums.items() if (r := v % P)})


def _mul(f, g, top):
    """f * g mod P, only its terms below the packed monomial top.

    The degree field sits above every exponent field, so m1 + m2 < top
    keeps exactly the products of degree below top's; g's terms ascend, so
    the first m2 >= top - m1 ends the scan for m1.
    """
    terms = sorted(g.items())
    out = {}
    get = out.get
    for m1, v1 in f.items():
        room = top - m1
        for m2, v2 in terms:
            if m2 >= room:
                break
            m = m1 + m2
            out[m] = get(m, 0) + v1 * v2
    return _mod(out)


def _lincomb(pairs):
    """sum(a * f for a, f in pairs) mod P."""
    out = {}
    get = out.get
    for a, f in pairs:
        for m, v in f.items():
            out[m] = get(m, 0) + a * v
    return _mod(out)


def _reduce(f, pack):
    """f mod P, its monomials packed by pack, or None when P divides a
    coefficient's denominator."""
    out = _ModP()
    for m, q in f.terms:
        if q.denominator % P == 0:
            return None
        v = q.numerator * pow(q.denominator, -1, P) % P
        if v:
            out[pack(m)] = v
    return out


def _steps(reduced, packing):
    """Each monomial m of the reduced generators -> [(j, e_j, m / x_j)]
    over its nonzero exponents e_j.

    Every combination a draw differentiates is made of these monomials, so
    each list is built once per certificate and read by every draw.
    """
    steps, units = {}, _units(packing)
    for g in reduced:
        for m in g:
            if m not in steps:
                steps[m] = [(j, e, m - units[j])
                            for j, e in enumerate(packing.unpack(m)) if e]
    return steps


def _directional(f, b, steps):
    """The derivative of f mod P along the vector b, sum_j b_j df/dx_j."""
    out = {}
    get = out.get
    for m, v in f.items():
        for j, e, dm in steps[m]:
            out[dm] = get(dm, 0) + b[j] * e * v
    return _mod(out)


def _draw(rng, reduced, n, c, steps):
    """The next seeded c x c matrix A J B, as entries d_{b_l}(sum_i A_ki g_i).

    A is c x len(reduced) and B is n x c, drawn in that order; row k of A
    combines the generators once, and column l of B is a direction to
    differentiate that combination along, which is row k of A J times
    column l of B.
    """
    A = [[rng.randrange(P) for _ in reduced] for _ in range(c)]
    Bt = [[rng.randrange(P) for _ in range(n)] for _ in range(c)]
    return _product(A, Bt, reduced, steps)


def _product(A, Bt, reduced, steps):
    """The matrix A J B mod P, from the rows of A and the columns of B."""
    combos = [_lincomb(zip(a, reduced)) for a in A]
    return [[_directional(h, b, steps) for b in Bt] for h in combos]


def _sweep(rng, reduced, n, c, steps, D, shift, nf):
    """The packed rows (_packed) of one round, one per generator, in order.

    Draws rows 2..c of A, then B, and builds the cofactors C_l once: the
    (c-1) x (c-1) minors of those rows of A J B without column l, truncated
    at degree D (C = 1 when c = 1).  The row of g is the normal form of the
    degree-D part of sum_l (-1)^l (d_{b_l} g) C_l, which is det(A' J B),
    A' = [e_g; a_2; ...; a_c], expanded along its first row.

    nf maps each degree-D monomial to its normal form, packed.  The normal
    form is linear, so the row of mu times C_l's part of degree D - deg mu
    is summed once for each monomial mu of a derivative and each l; the row
    of a generator monomial m sums those over m's derivatives, and the row
    of g is sum g_m row(m).  A column of it sums at most len(g) * n * c * N
    products of four residues, N the degree-D monomials, before it is
    reduced mod P.
    """
    A = [[rng.randrange(P) for _ in reduced] for _ in range(c - 1)]
    Bt = [[rng.randrange(P) for _ in range(n)] for _ in range(c)]
    rest, top = _product(A, Bt, reduced, steps), (D + 1) << shift
    parts = []                                  # each C_l's terms by degree
    for l in range(c):
        minor = [r[:l] + r[l + 1:] for r in rest]
        part = {}
        for m, v in (_det(minor, top) if minor else {0: 1}).items():
            part.setdefault(m >> shift, []).append((m, v))
        parts.append(part)
    shared = {(mu, l): sum(v * nf[mu + m] for m, v in
                           part.get(D - (mu >> shift), ()))
              for mu in {dm for d in steps.values() for _, _, dm in d}
              for l, part in enumerate(parts)}
    rows = {m: sum((-1) ** l * e * b[j] % P * shared[dm, l]
                   for j, e, dm in d for l, b in enumerate(Bt))
            for m, d in steps.items()}
    return [sum(v * rows[m] for m, v in g.items()) for g in reduced]


def _too_wide(D, n):
    """Whether degree D's normal-form table of N rows of at most N residues,
    N = C(D+n-1, n-1), could hold more than 10^6 entries."""
    return comb(D + n - 1, n - 1) ** 2 > 10 ** 6


def _units(packing):
    """The packed variables x_0, ..., x_(n-1)."""
    return [(1 << s) + (1 << packing.deg_shift) for s in packing.shifts]


def _normal_forms(reduced, packing, D, slot):
    """The normal form mod P of every degree-D monomial, over the standard ones.

    Walks the degree-D monomials in ascending grevlex order.  One that no
    leading monomial divides is standard and its own normal form, with the
    next column.  Any other is x^b lm(g), whose normal form is
    -sum (t / lc g) NF(x^b t) over the tail terms t of g; each x^b t is
    smaller, so already in the table.  lm and lc are those of the residues
    mod P, and a generator that vanishes mod P is left out.  Returns the
    table, {packed monomial: row packed slot bytes a column (_packed)}, and
    the number of columns.
    """
    key, guard, units = packing.key, packing.guard, _units(packing)
    tails = []
    for g in filter(None, reduced):
        lm = max(g, key=key)
        inv = pow(g[lm], -1, P)
        tails.append((lm, [(t, -v * inv % P) for t, v in g.items() if t != lm]))
    monomials = (sum(map(units.__getitem__, picks)) for picks in
                 combinations_with_replacement(range(len(units)), D))
    table, width = {}, 0
    for m in sorted(monomials, key=key):
        for lm, tail in tails:
            b = m - lm
            if not b & guard:                   # lm divides m, m = x^b lm
                nf = sum(a * table[b + t] for t, a in tail)
                table[m] = _packed(_residues(nf, slot, width), slot)
                break
        else:
            table[m], width = 1 << 8 * slot * width, width + 1
    return table, width


def _slot(reduced, n, c, D):
    """The bytes a column of a packed row needs.

    The largest sum a column takes is a row of _sweep's: at most
    max len(g) * n * c * N products of four residues, N the degree-D
    monomials.  _normal_forms sums fewer products of two.
    """
    most = max(map(len, reduced)) * n * c * comb(D + n - 1, n - 1)
    return (most * P ** 4).bit_length() // 8 + 1


def _packed(residues, slot):
    """A dense row packed into one int, column j in bytes j*slot.. of it.

    Sums and scalar multiples of packed rows act on every column at once,
    so long as no column's sum reaches 2^(8 slot).
    """
    return int.from_bytes(b"".join(v.to_bytes(slot, "little")
                                   for v in residues), "little")


def _residues(x, slot, width):
    """The first width columns of the packed row x, reduced mod P."""
    data = x.to_bytes(slot * width, "little")
    return [int.from_bytes(data[i:i + slot], "little") % P
            for i in range(0, len(data), slot)]


def _insert(pivots, row):
    """Reduce a dense row of residues in one forward pass; keep it if nonzero.

    pivots maps a lead position j to the monic tail of its row from j on,
    packed (_packed) with column j in the lowest slot.  The row is packed
    the same way and loses its lowest slot at each step, so that slot is
    always the next column; a step adds less than P^2 to a column, so a slot
    never fills.
    """
    width = len(row)
    slot = (width * P * P).bit_length() // 8 + 1
    bits = 8 * slot
    low = (1 << bits) - 1
    x = _packed(row, slot)
    for j in range(width):
        a = (x & low) % P
        if a:
            pivot = pivots.get(j)
            if pivot is None:
                inv = pow(a, -1, P)
                pivots[j] = _packed([v * inv % P for v in
                                     _residues(x, slot, width - j)], slot)
                return True
            x += (P - a) * pivot
        x >>= bits
    return False


def _m_primary(gens, n, c):
    """True when, mod P, one degree D of the ideal (gens, c x c minors) is full.

    D is the lowest degree of the first seeded Cauchy-Binet combination
    det(A J B): its matrix entries are the derivatives of c combinations of
    the generators along c directions, so it is a combination of minors and,
    the ideal being homogeneous, so is each of its homogeneous components.
    The degree-D monomials get normal forms modulo the generators over the
    standard ones (_normal_forms), and the degree-D part of the draw, put
    in normal form, is one dense row over the standard monomials.  The first
    draw's products keep only their terms of degree at most low, the lowest
    degree of a minor, where its lowest degree D generically lies; only
    when nothing is left is it multiplied out in full.

    Then rounds (_sweep) sweep every generator g through one draw.
    det(A J B) is linear in A's first row: with rows 2..c of A and all of B
    drawn anew, the Laplace expansion along that row makes det(A' J B),
    A' = [e_g; a_2; ...; a_c], the sum over l of (-1)^l (d_{b_l} g) C_l,
    with the same c cofactors C_l for every g.  By Cauchy-Binet,
    det(A' J B) = sum over c-sets S, T of det A'_S det J_ST det B_T, a
    constant combination of c x c minors, as a draw is; so each generator's
    row is the normal form of the degree-D part of an element of the ideal.
    Rounds run until one adds no rank, and the test fires when the rank
    equals the number of standard monomials.  A round costs the c cofactors,
    (c-1)! truncated products each, and one sum over a cofactor's terms for
    each monomial of a derivative and each l; every row is then a sum of
    those shared rows, and on the unions nearly every row adds a rank where
    a draw added one.  The cofactors keep only their terms of degree at
    most D, and a row reads only terms of degree D, so every row and every
    decision is that of the whole determinants.

    Dense rows are packed into one int each (_packed), so a sum of rows is
    one int operation per term; a column is reduced mod P only when a row
    is ranked (_insert).

    The arithmetic runs on the grevlex Packing of the generators' monomials:
    a product is an int add, a degree E >> deg_shift, a divisibility test
    the guard mask and the grevlex order Packing.key.  Packing renames each
    monomial and keeps every sum, comparison and divisibility of the
    exponent tuples, so the residues, the rows and the decisions are those
    of the tuples, and the argument below is unchanged.

    It is sound whether or not gens is a Groebner basis.  Lift every mod-P
    step to Z_(P): each x - NF(x), x not standard, is an element of the
    ideal with a pivot at x, and each row is the degree-D part of its
    determinant, det(A J B) or det(A' J B), which the truncated products
    leave exact and which is in the ideal, the ideal being homogeneous,
    minus multiples of the generators.  Together
    they make an N x N matrix mod P, N = C(D+n-1, n-1), that is
    block-triangular: the identity on the non-standard columns, and the
    ranked rows on the standard ones.  A rank mod P never exceeds the
    rank over Q, so a full rank proves m^D in the ideal over Q.  This holds
    whichever generator the mod-P leading monomial picks.  The ideal is
    homogeneous and not (1), so V is the origin and s = 0.  The draws
    decide only whether this path is taken, never the value of s; False
    means only that this test did not settle the question.

    It declines c > CERT_MAX_C, where the combinations are dense and their
    cofactor expansion costs more than the sparse minors; generators that
    are not all homogeneous of degree >= 1, or c of them linear, when a
    minor may be constant; inputs with few generators and minors against
    the monomials of the lowest degree they reach; c times the largest
    generator degree above Packing.max_degree, where a whole determinant's
    exponents could carry from one packed field into the next; a
    coefficient whose denominator P divides; and a degree D whose table
    would be too wide.
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
    packing = Packing(gens[0].vars, GREVLEX)
    if c * degs[-1] > packing.max_degree:           # every field stays clear
        return False
    reduced = [_reduce(g, packing.pack) for g in gens]
    if any(g is None for g in reduced):
        return False
    steps = _steps(reduced, packing)
    shift = packing.deg_shift
    rng = random.Random(0)
    entries = _draw(rng, reduced, n, c, steps)
    draw = _det(entries, (low + 1) << shift) or _det(entries)
    if not draw:
        return False
    D = packing.degree(min(draw))
    if _too_wide(D, n):
        return False
    slot = _slot(reduced, n, c, D)
    table, width = _normal_forms(reduced, packing, D, slot)
    pivots = {}
    if width and not _insert(pivots, _residues(
            sum(v * table.get(m, 0) for m, v in draw.items()), slot, width)):
        return False
    while len(pivots) < width:
        rank = len(pivots)
        for row in _sweep(rng, reduced, n, c, steps, D, shift, table):
            if _insert(pivots, _residues(row, slot, width)) \
                    and len(pivots) == width:
                return True
        if len(pivots) == rank:
            return False                    # the round added no rank
    return True


def _strip(gens):
    """gens without its linear generators and free variables: (rest, r, k).

    A linear generator is dropped when its leading variable occurs in no
    other generator, as every linear element of a reduced basis does; r
    counts them.  Then every variable that occurs in none of the rest is
    free: k counts them, and the rest is projected onto the others.
    """
    supports = [{i for m, _ in g.terms for i, e in enumerate(m) if e}
                for g in gens]
    users = Counter(i for support in supports for i in support)
    rest = [(g, support) for g, support in zip(gens, supports)
            if g.degree() != 1 or users[g.leading_monomial().index(1)] > 1]
    used = set().union(*(support for _, support in rest))
    vars = gens[0].vars
    free = {v: 0 for i, v in enumerate(vars) if i not in used}
    r = len(gens) - len(rest)
    rest = [g.substitute(free) if free else g for g, _ in rest]
    return rest, r, len(free) - r


def singular_dimension(cone, n, d, budget=PAIR_BUDGET):
    """Dimension s of Sing of the cone scheme, -1 when it is empty.

    The singular ideal is the cone's generators plus the c x c minors of
    their Jacobian, c = n - d, the expected codimension.  First _strip
    drops r linear generators and k free variables, leaving n' = n - r - k
    variables, d' = d - k and c' = c - r; then s = s' + k, and an empty
    locus, s' = -1, stays -1.  Before any minor is built over Q, the
    m-primary certificate (_m_primary) may settle s' = 0; when it does not
    fire, the exact path runs unchanged.

    This holds for any generating set, not only a reduced basis.  Order the
    columns as the remaining variables, then the dropped generators' leading
    variables, and the rows as the remaining generators, then the dropped
    ones.  No remaining generator holds a dropped leading variable, so the
    Jacobian is block-triangular, [[J', 0], [*, L]]; * and L are constants,
    and L is diagonal with a nonzero diagonal, since each dropped leading
    variable occurs in its own generator only.  Column operations over the
    ring keep the ideal of c x c minors (a Fitting ideal: Eisenbud,
    Commutative Algebra, 20.2); they clear * and scale L to I_r, so
    I_c(J) = I_c'(J').  Solving each linear generator for its leading
    variable is an isomorphism onto the ring of the other variables, which
    J' and the remaining generators do not touch.  A free variable's column
    is zero, so the singular scheme is that of the rest times C^k, the
    cylinder Sing(W x C^k) = Sing(W) x C^k.  With no generator left the
    cone is a linear space, smooth: s = -1, with no Groebner run.
    """
    gens = list(cone.generators)
    if not gens:
        raise ValueError("singular_dimension needs at least one cone generator")
    gens, r, k = _strip(gens)
    if not gens:
        return -1
    n, c = n - r - k, n - d - r
    if _m_primary(gens, n, c):
        return k
    gb = buchberger(gens + jacobian_minors(gens, c), GREVLEX, budget)
    s = hilbert_series(leading_ideal(gb.basis), n).dim_affine  # -1 for (1)
    return s if s < 0 else s + k
