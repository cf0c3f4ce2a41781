"""Connected-component counting for plane sections of a zero set.

A quadtree over the box drops each cell whose interval enclosure excludes
0.  A kept cell on which neither partial derivative can vanish is
certified: it holds no zero or one monotone arc, and its corner signs say
which, so it is dropped or kept as a leaf and never split again.  Every
other kept cell is split down to the target resolution.  The leaves are
glued by edge adjacency.  Counts are heuristic: a too-coarse grid can merge
nearby components or split a pinched one.
"""

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .groebner import CELL_BUDGET, ResourceLimitExceeded

_EPS = 2.220446049250313e-16
_MAX_DEPTH = 24
_KEY_DEPTH = 31     # the deepest level whose keys ix * 2^depth + iy fit int64
_BLOCK = 1 << 12    # cells per enclosure sweep; bounds its temporaries
_AUTO_BASE = 4      # first level that `auto` counts
# the offsets of a cell's four children
_CHILD_X = np.array([[0], [1], [0], [1]])
_CHILD_Y = np.array([[0], [0], [1], [1]])
# whether the sides left, right, bottom and top (rows) of a cell change
# sign, for each bitmask of its positive corners (columns): bit 0 is
# (x0, y0), bit 1 (x1, y0), bit 2 (x0, y1) and bit 3 (x1, y1)
_CROSSES = np.array([[(m >> a ^ m >> b) & 1 for m in range(16)]
                     for a, b in ((0, 2), (1, 3), (0, 1), (2, 3))], dtype=bool)


@dataclass
class SectionSpec:
    f: object                  # Polynomial over the ambient variables
    fixed_assignments: dict    # pins all but exactly 2 of them
    box: tuple                 # (x0, x1, y0, y1) for the two free variables
    resolution: object         # minimal cell width, rational; or "auto"


@dataclass
class ComponentCount:
    count: int
    status: str
    cells_examined: int


def _float(value, what):
    """float(value) for a Fraction value, refused by name past float range."""
    try:
        return float(value)
    except OverflowError:
        shown = Decimal(value.numerator) / value.denominator
        raise ValueError(f"{what} {shown:.3g} is past float range") from None


def _ddx(terms):
    # in float: c * i, and (c * i) * (i - 1) when taken twice
    return [(i - 1, j, c * i) for i, j, c in terms if i > 0]


def _ddy(terms):
    return [(i, j - 1, c * j) for i, j, c in terms if j > 0]


def _absolute(terms):
    return [(i, j, abs(c)) for i, j, c in terms]


def _powers(t, n):
    """Rows 1, t, t^2, ..., t^n, each power one product from the one before."""
    table = np.empty((n + 1, t.size))
    table[0] = 1.0
    if n:
        table[1] = t
    for k in range(2, n + 1):
        np.multiply(table[k - 1], t, out=table[k])
    return table


class _Sums:
    """Polynomials in x and y, each a list of (i, j, float c) terms, summed
    at the same points.

    Each is the sum over the powers of the lower-degree variable of that
    power times a sum over the powers of the other; those inner sums, for
    all the polynomials at once, are one matrix product with the rows of
    the power table that some term uses, so a sweep costs a few numpy calls
    however many terms there are.
    """

    def __init__(self, polys, deg_x, deg_y):
        # the inner sums run over the powers of the higher-degree variable
        self.swap = deg_y > deg_x
        terms = [(k, i, j, c) if self.swap else (k, j, i, c)
                 for k, poly in enumerate(polys) for i, j, c in poly]
        self.outer = sorted({o for _, o, _, _ in terms})
        self.inner = sorted({i for _, _, i, _ in terms})
        outer = {e: n for n, e in enumerate(self.outer)}
        inner = {e: n for n, e in enumerate(self.inner)}
        coeffs = np.zeros((len(polys), len(outer), len(inner)))
        for k, o, i, c in terms:
            coeffs[k, outer[o], inner[i]] = c
        self.coeffs = coeffs.reshape(len(polys) * len(outer), len(inner))
        self.count = len(polys)

    def __call__(self, px, py, count=None):
        """The first count polynomials (all by default) at the points whose
        power tables (from _powers) are px and py, one row each."""
        if self.swap:
            px, py = py, px
        count = self.count if count is None else count
        rows = self.coeffs[:count * len(self.outer)]
        out = (rows @ px[self.inner]).reshape(count, len(self.outer),
                                              px.shape[1])
        out *= py[self.outer]
        return out.sum(axis=1)


class _Encloser:
    """Centred forms for one 2-variable polynomial: a second-order one
    encloses f on a cell, and a third-order one on its gradient certifies
    the cell.

    abs-coefficient sups of the first derivatives are useless here (the
    acceptance curves live where huge monomials cancel), so the gradient is
    evaluated at the center and its variation bounded via second
    derivatives.  The enclosure bounds those by their abs sums B at
    (ax, ay) = (|cx| + wx/2, |cy| + wy/2).  The certificate evaluates them
    at the center too, and bounds their variation by the abs sums T of the
    third derivatives at (ax, ay).

    The polynomial, its derivatives and their abs-coefficient forms are
    summed by _Sums.  For f of total degree D, degrees deg_x and deg_y and
    k terms, a term c * x^i * y^j takes at most D + deg_x + deg_y + 3
    roundings: i - 1 and j - 1 for its powers, at most deg_x + 1 (or
    deg_y + 1) for the inner sum with its products, in whatever order the
    matrix product adds, one for the product with the outer power and at
    most the other degree for the outer sum, one for the coefficient's
    conversion from a Fraction, and a derivative's coefficient one more
    per order.  A derivative's exponents sum to its order less, so this
    count holds for derivatives of every order, the third ones included.
    So each computed sum is within
    gamma(D + deg_x + deg_y + 3) * sum |c| |x|^i |y|^j of the exact one,
    where gamma(n) = n u / (1 - n u) and u = _EPS / 2.
    The errors of v and of wx/2 * f_x and wy/2 * f_y at the center are
    measured against sums that sum |c| ax^i ay^j dominates (expand
    (|cx| + wx/2)^i), so
    slack_scale = max(4k + 16, D + deg_x + deg_y + 3) * _EPS covers them
    twice over, which leaves room for the rounding of ax, ay, of the slack
    sum itself and of v -+ r.  4k + 16 is the larger unless the degrees
    are large for the number of terms.  The B and T sum positive terms,
    so their relative error stays far below the 1e-12 widening of r.

    With hx = wx/2 and hy = wy/2, a cell is certified when |f_x(c)|
    exceeds V_x = hx * G_xx + hy * G_xy and |f_y(c)| exceeds
    V_y = hx * G_xy + hy * G_yy, where
    G_xx = min(B_xx, |f_xx(c)| + hx * T_xxx + hy * T_xxy), and G_xy and
    G_yy likewise.  By the mean value theorem each G bounds its second
    derivative on the cell, so V_x bounds |f_x - f_x(c)| there.  The B
    stay in the minimum because neither bound is always the smaller: on
    x^20 + y^2 - 1/1000 the T alone certify fewer cells than the B.  The
    computed f_x(c) is within gamma(D + deg_x + deg_y + 3) *
    sum |i c| |cx|^(i-1) |cy|^j of the exact one, and since i <= deg_x and
    ax >= wx/2 > 0 that sum is at most deg_x / ax * sum |c| ax^i ay^j:
    slack * deg_x / ax covers it twice over, with no extra sum.  In the
    same way f_xx(c) carries slack * deg_x (deg_x - 1) / ax^2, f_xy(c)
    slack * deg_x deg_y / (ax ay) and f_yy(c) slack * deg_y (deg_y - 1) /
    ay^2, and the h widen by the same 1e-12.

    The enclosure radius r keeps the B, so which cells are dropped does not
    depend on the certificate.  With the G in r, g(4) at z = 1/2 counted
    12 components at its benchmark resolution, where finer ones count 8:
    the tighter r dropped the kept cells that joined a lone uncertified
    cell near the tip of a thin band (|f| about 1e-10 on a cell 1.9e-5
    wide) to the curve.

    On a certified cell f is strictly monotone along every horizontal and
    vertical segment, so its extremes sit at corners.
    The caller pads each cell so that it holds the float corners it
    evaluates.  A corner value is within the same gamma of
    sum |c| |x|^i |y|^j, and a corner of the cell has |x| <= ax and
    |y| <= ay, so its sign counts only where |v| exceeds the cell's slack.
    """

    def __init__(self, f):
        if len(f.vars) != 2:
            raise ValueError(f"need exactly 2 variables, got {f.vars}")
        c = [(i, j, _float(coeff, "section coefficient"))
             for (i, j), coeff in f.terms]
        fx, fy = _ddx(c), _ddy(c)
        fxx, fxy, fyy = _ddx(fx), _ddy(fx), _ddy(fy)
        self.deg_x = max((i for i, _, _ in c), default=0)
        self.deg_y = max((j for _, j, _ in c), default=0)
        # f and its first and second derivatives at a point; then the abs
        # sums at a point (ax, ay): sum |c| x^i y^j with the B, and the T
        self.point = _Sums([c, fx, fy, fxx, fxy, fyy], self.deg_x, self.deg_y)
        self.bound = _Sums([_absolute(c), _absolute(fxx), _absolute(fxy),
                            _absolute(fyy)], self.deg_x, self.deg_y)
        self.third = _Sums([_absolute(_ddx(fxx)), _absolute(_ddy(fxx)),
                            _absolute(_ddy(fxy)), _absolute(_ddy(fyy))],
                           self.deg_x, self.deg_y)
        degree = max((i + j for i, j, _ in c), default=0)
        self.slack_scale = max(4.0 * len(c) + 16.0,
                               degree + self.deg_x + self.deg_y + 3) * _EPS

    def __call__(self, cx, cy, wx, wy):
        """Enclosures (lo, hi) of f on the cells of center (cx, cy) and
        width (wx, wy), which cells are certified, and their rounding
        slack."""
        # an enclosure past float range comes out inf or NaN, and the
        # caller keeps such a cell, so numpy's warnings would only be noise
        with np.errstate(over="ignore", invalid="ignore"):
            ax = np.abs(cx) + 0.5 * wx
            ay = np.abs(cy) + 0.5 * wy
            # the center's powers, then those of (ax, ay)
            px = _powers(np.concatenate([cx, ax]), self.deg_x)
            py = _powers(np.concatenate([cy, ay]), self.deg_y)
            n = cx.size
            v, dx, dy, dxx, dxy, dyy = self.point(px[:, :n], py[:, :n])
            size, bxx, bxy, byy = self.bound(px[:, n:], py[:, n:])
            txxx, txxy, txyy, tyyy = self.third(px[:, n:], py[:, n:])
            dx, dy = np.abs(dx), np.abs(dy)
            # r's bounds on the variation of f_x and f_y, widened as r is
            hx, hy = 0.5 * wx * (1.0 + 1e-12), 0.5 * wy * (1.0 + 1e-12)
            vx = hx * bxx + hy * bxy
            vy = hx * bxy + hy * byy
            slack = self.slack_scale * size
            r = (0.5 * wx * (dx + vx) + 0.5 * wy * (dy + vy)) \
                * (1.0 + 1e-12) + slack
            # G_xx, G_xy and G_yy, each centre value with its slack
            sx, sy = slack / ax, slack / ay
            gxx = np.minimum(bxx, np.abs(dxx) + hx * txxx + hy * txxy
                             + sx * (self.deg_x * (self.deg_x - 1)) / ax)
            gxy = np.minimum(bxy, np.abs(dxy) + hx * txxy + hy * txyy
                             + sx * (self.deg_x * self.deg_y) / ay)
            gyy = np.minimum(byy, np.abs(dyy) + hx * txyy + hy * tyyy
                             + sy * (self.deg_y * (self.deg_y - 1)) / ay)
            # NaN compares false, and an infinite r marks an overflowed cell
            sure = (dx > hx * gxx + hy * gxy + sx * self.deg_x) \
                & (dy > hx * gxy + hy * gyy + sy * self.deg_y) & np.isfinite(r)
            return v - r, v + r, sure, slack

    def corners(self, x, y, slack):
        """Bitmask of the corners where f > 0 on each cell, or -1 where the
        sign of a corner is unknown.  x and y hold the cells' corners
        (x0, y0), (x1, y0), (x0, y1) and (x1, y1), the four of each cell a
        quarter of the array apart, and slack is the cells' from __call__;
        bit k is the k-th corner."""
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.point(_powers(x, self.deg_x), _powers(y, self.deg_y),
                           1).reshape(4, -1)
            known = (np.abs(v) > slack).all(axis=0)
            mask = np.packbits(v > slack, axis=0, bitorder="little")[0]
            return np.where(known, mask, -1)


def _depth_for(width, height, resolution):
    """The least depth d with max(width, height) / 2^d <= resolution."""
    ratio = max(width, height) / resolution
    depth = 0 if ratio <= 1 else (math.ceil(ratio) - 1).bit_length()
    if depth > _KEY_DEPTH:
        raise ValueError("resolution too fine")
    return depth


def _occupied_cells(spec, budget):
    """Count and leaves of the quadtree.

    A fixed resolution fixes the target level.  `auto` counts every level
    from _AUTO_BASE on, over the arc cells so far and that level's
    uncertified kept cells, and stops at the first level that agrees with
    the one before it, when no uncertified kept cell is left, or before a
    refinement would exceed the budget.
    Returns (count, ix, iy, level, arcs, (fx0, fy0, bw, bh), cells
    examined): the uncertified kept cells (ix, iy) at the last level and
    the arc cells, as _component_count takes them.
    """
    f = spec.f.substitute(spec.fixed_assignments)
    if len(f.vars) != 2:
        raise ValueError("need exactly 2 free variables")
    if f.is_zero():
        raise ValueError("zero polynomial has no curve")
    x0, x1, y0, y1 = (Fraction(v) for v in spec.box)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("box needs xmin < xmax and ymin < ymax")
    auto = spec.resolution == "auto"
    if auto:
        depth = _MAX_DEPTH
    else:
        res = Fraction(spec.resolution)
        if res <= 0:
            raise ValueError("resolution must be positive")
        depth = _depth_for(x1 - x0, y1 - y0, res)

    enclose = _Encloser(f)
    fx0, fy0 = float(x0), float(y0)
    bw, bh = _float(x1 - x0, "box width"), _float(y1 - y0, "box height")
    # a float center or corner fx0 + t * wx, t * wx <= bw, is within two
    # roundings, EPS * (|fx0| + bw), of its value; each cell is enclosed
    # with twice that more on each side, so that it holds the exact cell
    # and the float corners
    pad_x = 4 * _EPS * (abs(fx0) + bw)
    pad_y = 4 * _EPS * (abs(fy0) + bh)

    ix = np.zeros(1, dtype=np.int64)
    iy = np.zeros(1, dtype=np.int64)
    found = []      # (ix, iy, level, corners) of the arc cells, per level
    examined = 0
    level = 0
    previous = None
    while True:
        examined += ix.size
        if examined > budget:
            raise ResourceLimitExceeded(
                f"numtopo: examined {examined} cells, budget {budget}")
        wx = bw / 2 ** level
        wy = bh / 2 ** level
        keep = np.empty(ix.size, dtype=bool)
        sure = np.empty(ix.size, dtype=bool)
        slack = np.empty(ix.size)
        # in blocks of _BLOCK cells, which bounds the temporaries
        for start in range(0, ix.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            lo, hi, sure[block], slack[block] = enclose(
                fx0 + (ix[block] + 0.5) * wx, fy0 + (iy[block] + 0.5) * wy,
                wx + pad_x, wy + pad_y)
            # drop a cell only when its enclosure proves a sign: an
            # overflowed enclosure can be NaN, which proves nothing
            keep[block] = ~((lo > 0.0) | (hi < 0.0))
        sure = np.nonzero(sure & keep)[0]
        if sure.size:
            # corners as fx0 + i * wx, so that leaves of any level that
            # share a corner evaluate f at the same float point
            si, sj, slack = ix[sure], iy[sure], slack[sure]
            corners = np.empty(sure.size, dtype=np.int8)
            # four corners per cell, so a quarter block at a time
            for start in range(0, sure.size, _BLOCK // 4):
                block = slice(start, start + _BLOCK // 4)
                i, j = si[block], sj[block]
                corners[block] = enclose.corners(
                    fx0 + np.concatenate([i, i + 1, i, i + 1]) * wx,
                    fy0 + np.concatenate([j, j, j + 1, j + 1]) * wy,
                    slack[block])
            known = corners >= 0
            arc = (corners > 0) & (corners < 15)
            found.append((si[arc], sj[arc], np.full(arc.sum(), level),
                          corners[arc]))
            keep[sure[known]] = False
        ix, iy = ix[keep], iy[keep]
        count = None
        if auto and level >= _AUTO_BASE:
            count = _component_count(ix, iy, level, _arcs(found))
            if count == previous:
                break
            previous = count
        if level == depth or ix.size == 0:
            break
        if auto and examined + 4 * ix.size > budget:
            break
        # the four children of each cell, child by child
        ix = (2 * ix + _CHILD_X).ravel()
        iy = (2 * iy + _CHILD_Y).ravel()
        level += 1
    arcs = _arcs(found)
    if count is None:
        count = _component_count(ix, iy, level, arcs)
    return count, ix, iy, level, arcs, (fx0, fy0, bw, bh), examined


def _arcs(found):
    """The arc cells found so far as four arrays: ix, iy, level, corners."""
    if not found:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, np.zeros(0, dtype=np.int8)
    return tuple(np.concatenate(part) for part in zip(*found))


def _morton(x, y):
    """Z-order codes of the points (x, y), each coordinate below 2^31."""
    v = np.concatenate([x, y]).reshape(2, -1)
    tmp = np.empty_like(v)
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        np.left_shift(v, shift, out=tmp)
        v |= tmp
        v &= mask
    v[1] <<= 1
    v[0] |= v[1]
    return v[0]


def _component_count(ix, iy, depth, arcs):
    """Number of classes of the leaves under the join rule.

    The leaves are the uncertified cells (ix, iy) at depth and the arc
    cells arcs = (ix, iy, level, corners), level <= depth, with corners
    the bitmask of positive corners that _Encloser.corners returns.  Two
    leaves that share an edge segment of positive length are joined, but
    two arc cells only when the smaller one's shared edge changes sign
    between its ends: the arc crosses that edge.

    Each vertical run of uncertified cells is one node, and each arc cell
    one more; nodes are numbered in the order of their first cell's key
    ix * 2^depth + iy, so that neighbours mostly get near numbers.  Runs
    meet runs across the columns as keys.  Every other meeting is found
    from the smaller leaf, by looking up the target cell just past one of
    its sides in the arc cells, each the Z-order range
    [code, code + size^2): an uncertified cell looks past each side that
    no uncertified cell shares, and an arc cell past the first corner of
    each side its arc crosses, keeping only an arc cell no smaller.
    Roots are then hooked across the edges (Shiloach and Vishkin,
    J. Algorithms 3, 1982): in a round, every root that ends an edge to a
    smaller root points at the smallest such root, and pointer jumping
    flattens the forest again.  The rounds end when no edge joins two
    roots.
    """
    ax, ay, level, corners = arcs
    nside = np.int64(1) << depth
    keys = np.sort(ix * nside + iy)
    size = np.int64(1) << (depth - level)
    x0, y0 = ax * size, ay * size
    x1, y1 = x0 + size, y0 + size
    # (i, j + 1) follows (i, j) directly when both are kept; any other
    # step starts a new run
    first = np.ones(keys.size, dtype=bool)
    first[1:] = (keys[1:] - keys[:-1] != 1) | (keys[:-1] % nside == nside - 1)
    start = np.concatenate([keys[first], x0 * nside + y0])
    if not start.size:
        return 0
    rank = np.empty(start.size, dtype=np.int64)
    rank[np.argsort(start)] = np.arange(start.size)
    run = rank[np.cumsum(first) - 1]
    arc = rank[start.size - ax.size:]
    # (i + 1, j); past the last column the query exceeds every key
    cand = keys + nside
    pos = np.minimum(np.searchsorted(keys, cand), keys.size - 1)
    right = keys[pos] == cand
    edges = [(run[right], run[pos[right]])]
    if ax.size:
        left = np.zeros(keys.size, dtype=bool)
        left[pos[right]] = True
        last = np.ones(keys.size, dtype=bool)
        last[:-1] = first[1:]
        kx, ky = keys >> depth, keys & (nside - 1)
        below, above = np.nonzero(first)[0], np.nonzero(last)[0]
        west, east = np.nonzero(~left)[0], np.nonzero(~right)[0]
        # sides in the order left, right, bottom, top
        side = np.nonzero(_CROSSES[:, corners].ravel())[0]
        qx = np.concatenate([kx[below], kx[above], kx[west] - 1, kx[east] + 1,
                             np.concatenate([x0 - 1, x1, x0, x0])[side]])
        qy = np.concatenate([ky[below] - 1, ky[above] + 1, ky[west], ky[east],
                             np.concatenate([y0, y0, y0 - 1, y1])[side]])
        side %= ax.size
        owner = np.concatenate([run[below], run[above], run[west], run[east],
                                arc[side]])
        cap = np.concatenate([np.full(owner.size - side.size, depth),
                              level[side]])
        q = np.nonzero((qx >= 0) & (qx < nside) & (qy >= 0) & (qy < nside))[0]
        code = _morton(np.concatenate([x0, qx[q]]),
                       np.concatenate([y0, qy[q]]))
        by_code = np.argsort(code[:ax.size])
        lows = code[by_code]
        highs = lows + size[by_code] ** 2
        # sorted queries search faster
        code = code[ax.size:]
        order = np.argsort(code)
        q, code = q[order], code[order]
        k = np.searchsorted(lows, code, side="right") - 1
        other = by_code[k]
        hit = (k >= 0) & (code < highs[k]) & (level[other] <= cap[q])
        edges.append((owner[q[hit]], arc[other[hit]]))
    a = np.concatenate([e for e, _ in edges])
    b = np.concatenate([e for _, e in edges])
    parent = np.arange(start.size)
    while True:
        pa, pb = parent[a], parent[b]
        cross = pa != pb
        if not cross.any():
            break
        a, b, pa, pb = a[cross], b[cross], pa[cross], pb[cross]
        # an index may repeat; minimum.at keeps the smallest of its targets
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand
    return int(np.count_nonzero(parent == np.arange(parent.size)))


def count_components(spec, budget=CELL_BUDGET):
    """Number of adjacency classes of the leaves at the resolution."""
    count, *_, examined = _occupied_cells(spec, budget)
    return ComponentCount(count=count, status="heuristic",
                          cells_examined=examined)


def component_cells(spec, budget=CELL_BUDGET):
    """Count plus the leaves as (cx, cy, wx, wy) rows, for plotting: the
    arc cells at their own widths, then the uncertified kept cells."""
    count, ix, iy, depth, (ai, aj, level, _), (fx0, fy0, bw, bh), examined \
        = _occupied_cells(spec, budget)
    rows = []
    for i, j, lv in zip((*ai.tolist(), *ix.tolist()),
                        (*aj.tolist(), *iy.tolist()),
                        (*level.tolist(), *[depth] * ix.size)):
        wx, wy = bw / 2 ** lv, bh / 2 ** lv
        rows.append((fx0 + (i + 0.5) * wx, fy0 + (j + 0.5) * wy, wx, wy))
    result = ComponentCount(count=count, status="heuristic",
                            cells_examined=examined)
    return result, rows
