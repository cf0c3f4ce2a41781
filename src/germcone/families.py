"""Counter-example family generators and the ambient-extension transforms."""

from fractions import Fraction
from itertools import product

from .polyring import GREVLEX, Polynomial, fresh_name


def family_g(l):
    """Quartic-cone family in (x, y, z): squared circle plus a strip product.

    g = (x^2 + y^2 - z^4)^2 + prod_{i<2l} (y - c_i z^2).  The strip product's
    lowest-degree term is y^(2l), so the initial part is (x^2 + y^2)^2 + y^4
    at l = 2 and (x^2 + y^2)^2 for l >= 3; mu = 4 for every l.
    """
    if l < 2:
        raise ValueError("family g needs l >= 2")
    vars = ("x", "y", "z")
    x = Polynomial.variable(vars, "x")
    y = Polynomial.variable(vars, "y")
    z = Polynomial.variable(vars, "z")
    g = (x ** 2 + y ** 2 - z ** 4) ** 2
    prod = Polynomial.constant(vars, 1)
    for i in range(2 * l):
        c = Fraction(2 * i - 2 * l + 1, 2 * l)
        prod = prod * (y - z ** 2 * c)
    return g + prod


def family_f(n, l):
    """Root-fan family: a 2l-fold line product plus z^2 and quartic tails."""
    if n < 3 or l < 2:
        raise ValueError("family f needs n >= 3 and l >= 2")
    vars = ("x", "y", "z") + tuple(f"t{i}" for i in range(1, n - 2))
    x = Polynomial.variable(vars, "x")
    y = Polynomial.variable(vars, "y")
    f = Polynomial.constant(vars, 1)
    for r in range(2 * l):
        f = f * (x - r * y)
    f = f + Polynomial.variable(vars, "z") ** 2
    for i in range(1, n - 2):
        f = f + Polynomial.variable(vars, f"t{i}") ** 4
    return f


def transform_product(gens):
    """Cylinder over the germ: same equations, one more ambient coordinate."""
    assert gens
    vars = gens[0].vars
    ext = vars + (fresh_name(vars),)
    return [g.with_vars(ext) for g in gens]


def transform_embed(gens):
    """Flat embedding: the new coordinate is pinned to 0 by a new generator."""
    assert gens
    vars = gens[0].vars
    name = fresh_name(vars)
    ext = vars + (name,)
    return [g.with_vars(ext) for g in gens] + [Polynomial.variable(ext, name)]


# --- exact linear algebra over Q, for the plane-union construction ---

def _rref(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _null_space(rows):
    """Basis of {a : rows @ a = 0} as Fraction vectors."""
    ncols = len(rows[0])
    rref, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def _moment_rows(params, n):
    return [[Fraction(t) ** j for j in range(n)] for t in params]


def family_linear_union(n, d, k, l):
    """Product ideal of a d-plane with l generic (n-k)-planes, all through 0.

    Planes are spanned by moment-curve vectors at globally distinct integer
    parameters, which makes every small-enough collection independent; the
    pairwise-trivial intersections are still verified by exact rank checks.
    """
    if not (1 <= d <= n - 1 and 1 <= k <= n - 1):
        raise ValueError("need 1 <= d, k <= n-1")
    if not n - k < d:
        raise ValueError("need n - k < d so sections meet the small planes")
    if d > k:
        raise ValueError("need d <= k so the planes can avoid each other")
    if l >= 2 and 2 * (n - k) > n:
        raise ValueError("two (n-k)-planes cannot meet only at 0")

    w = n - k
    spans = [_moment_rows(range(1, d + 1), n)]
    t = d + 1
    for _ in range(l):
        spans.append(_moment_rows(range(t, t + w), n))
        t += w

    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            stacked = spans[i] + spans[j]
            rank = len(_rref(stacked)[1])
            assert rank == len(spans[i]) + len(spans[j]), \
                "plane construction lost genericity"

    vars = tuple(f"x{i}" for i in range(1, n + 1))
    form_sets = []
    for span in spans:
        forms = []
        for a in _null_space(span):
            terms = {tuple(1 if i == j else 0 for i in range(n)): c
                     for j, c in enumerate(a) if c != 0}
            forms.append(Polynomial(vars, terms, GREVLEX))
        form_sets.append(forms)

    gens = []
    for combo in product(*form_sets):
        g = combo[0]
        for factor in combo[1:]:
            g = g * factor
        gens.append(g)
    return gens
