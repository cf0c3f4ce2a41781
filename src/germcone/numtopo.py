"""Connected-component counting for plane sections of a zero set.

Cells whose interval enclosure excludes 0 are discarded; straddling cells
at the target resolution are glued by edge adjacency.  Counts are heuristic:
a too-coarse grid can merge nearby components or split a pinched one.
"""

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .groebner import CELL_BUDGET, ResourceLimitExceeded

_EPS = 2.220446049250313e-16
_MAX_DEPTH = 24
_KEY_DEPTH = 31     # the deepest level whose keys ix * 2^depth + iy fit int64
_BLOCK = 1 << 15    # cells per enclosure sweep; bounds its temporaries
_AUTO_BASE = 4      # first level that `auto` counts


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


def _powers(t, n):
    """[t^0, t^1, ..., t^n], each power one product from the one before."""
    table = [np.ones_like(t), t]
    for _ in range(n - 1):
        table.append(table[-1] * t)
    return table[:n + 1]


def _sparse_sum(terms, px, py, tmp):
    """Sum of c * x^i * y^j over terms, from the power tables; tmp is scratch."""
    out = np.zeros_like(tmp)
    for i, j, c in terms:
        if i and j:
            np.multiply(px[i], py[j], out=tmp)
            tmp *= c
        elif i or j:
            np.multiply(px[i] if i else py[j], c, out=tmp)
        else:
            tmp.fill(c)
        out += tmp
    return out


class _Encloser:
    """Second-order centered form for one 2-variable polynomial.

    abs-coefficient sups of the first derivatives are useless here (the
    acceptance curves live where huge monomials cancel), so the gradient is
    evaluated at the center and its variation bounded via second derivatives.

    Each polynomial is a list of (i, j, float c) terms, summed as
    c * x^i * y^j from power tables built once per block of _BLOCK cells.
    For f of total degree D with k terms, a term takes at most D + 1
    roundings (its powers, their product, the coefficient product and the
    coefficient's conversion from a Fraction; a derivative's coefficient
    takes one more per order and its monomial one degree less), and the
    sum k - 1 more.  So each computed sum is within
    gamma(D + k) * sum |c| |x|^i |y|^j of the exact one, where
    gamma(n) = n u / (1 - n u) and u = _EPS / 2: about (D + k) * _EPS / 2.
    The errors of v and of wx/2 * f_x and wy/2 * f_y at the center are
    measured against sums that sum |c| ax^i ay^j dominates (expand
    (|cx| + wx/2)^i), so slack_scale = max(4k + 16, D + k) * _EPS covers
    them twice over, which leaves room for the rounding of ax, ay, of the
    slack sum itself and of v -+ r.  4k + 16 is the larger unless
    D > 3k + 16.  The bounds on the second derivatives sum positive terms,
    so their relative error stays far below the 1e-12 widening of r.
    """

    def __init__(self, f):
        if len(f.vars) != 2:
            raise ValueError(f"need exactly 2 variables, got {f.vars}")
        c = [(i, j, _float(coeff, "section coefficient"))
             for (i, j), coeff in f.terms]
        fx, fy = _ddx(c), _ddy(c)
        self.c, self.fx, self.fy = c, fx, fy
        self.cabs = [(i, j, abs(v)) for i, j, v in c]
        self.axx = [(i, j, abs(v)) for i, j, v in _ddx(fx)]
        self.axy = [(i, j, abs(v)) for i, j, v in _ddy(fx)]
        self.ayy = [(i, j, abs(v)) for i, j, v in _ddy(fy)]
        self.deg_x = max((i for i, _, _ in c), default=0)
        self.deg_y = max((j for _, j, _ in c), default=0)
        degree = max((i + j for i, j, _ in c), default=0)
        k = len(c)
        self.slack_scale = max(4.0 * k + 16.0, degree + k) * _EPS

    def __call__(self, cx, cy, wx, wy):
        lo = np.empty(cx.shape)
        hi = np.empty(cx.shape)
        # an enclosure past float range comes out inf or NaN, and the
        # caller keeps such a cell, so numpy's warnings would only be noise
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, cx.size, _BLOCK):
                block = slice(start, start + _BLOCK)
                lo[block], hi[block] = self._block(cx[block], cy[block], wx, wy)
        return lo, hi

    def _block(self, cx, cy, wx, wy):
        ax = np.abs(cx) + 0.5 * wx
        ay = np.abs(cy) + 0.5 * wy
        px, py = _powers(cx, self.deg_x), _powers(cy, self.deg_y)
        qx, qy = _powers(ax, self.deg_x), _powers(ay, self.deg_y)
        tmp = np.empty(cx.shape)
        v = _sparse_sum(self.c, px, py, tmp)
        bxy = _sparse_sum(self.axy, qx, qy, tmp)
        gx = np.abs(_sparse_sum(self.fx, px, py, tmp)) \
            + 0.5 * wx * _sparse_sum(self.axx, qx, qy, tmp) \
            + 0.5 * wy * bxy
        gy = np.abs(_sparse_sum(self.fy, px, py, tmp)) \
            + 0.5 * wx * bxy \
            + 0.5 * wy * _sparse_sum(self.ayy, qx, qy, tmp)
        slack = self.slack_scale * _sparse_sum(self.cabs, qx, qy, tmp)
        r = (0.5 * wx * gx + 0.5 * wy * gy) * (1.0 + 1e-12) + slack
        return v - r, v + r


def _depth_for(width, height, resolution):
    depth = 0
    while max(width, height) / 2 ** depth > resolution:
        depth += 1
        if depth > _KEY_DEPTH:
            raise ValueError("resolution too fine")
    return depth


def _occupied_cells(spec, budget):
    """Count and kept cells of the target level.

    A fixed resolution fixes the level.  `auto` counts every level from
    _AUTO_BASE on and stops at the first that agrees with the level before
    it, or before a refinement would exceed the budget.
    Returns (count, ix, iy, (fx0, fy0, wx, wy), cells examined).
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

    ix = np.zeros(1, dtype=np.int64)
    iy = np.zeros(1, dtype=np.int64)
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
        cx = fx0 + (ix + 0.5) * wx
        cy = fy0 + (iy + 0.5) * wy
        lo, hi = enclose(cx, cy, wx, wy)
        # drop a cell only when its enclosure proves a sign: an overflowed
        # enclosure can be NaN, which proves nothing
        keep = ~((lo > 0.0) | (hi < 0.0))
        ix, iy = ix[keep], iy[keep]
        count = None
        if auto and level >= _AUTO_BASE:
            count = _component_count(ix, iy, level)
            if count == previous:
                break
            previous = count
        if level == depth or ix.size == 0:
            break
        if auto and examined + 4 * ix.size > budget:
            break
        ix = np.concatenate([2 * ix, 2 * ix + 1, 2 * ix, 2 * ix + 1])
        iy = np.concatenate([2 * iy, 2 * iy, 2 * iy + 1, 2 * iy + 1])
        level += 1
    if count is None:
        count = _component_count(ix, iy, level)
    return count, ix, iy, (fx0, fy0, wx, wy), examined


def _component_count(ix, iy, depth):
    """Number of edge-adjacency classes of the cells (ix, iy) at depth.

    Each vertical run of cells is one node.  Roots are then hooked across
    the horizontal edges (Shiloach and Vishkin, J. Algorithms 3, 1982): in a
    round, every root that ends an edge to a smaller root points at the
    smallest such root, and pointer jumping flattens the forest again.  The
    rounds end when no edge joins two roots.
    """
    if ix.size == 0:
        return 0
    nside = np.int64(1) << depth
    keys = np.sort(ix * nside + iy)
    # (i, j + 1) follows (i, j) directly when both are kept; any other step
    # starts a new run
    step = (keys[1:] - keys[:-1] != 1) | (keys[:-1] % nside == nside - 1)
    run = np.concatenate([[0], np.cumsum(step)])
    # (i + 1, j); past the last column the query exceeds every key
    cand = keys + nside
    pos = np.minimum(np.searchsorted(keys, cand), keys.size - 1)
    right = keys[pos] == cand
    a, b = run[right], run[pos[right]]
    parent = np.arange(run[-1] + 1)
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
            if np.array_equal(grand, parent):
                break
            parent = grand
    return int(np.count_nonzero(parent == np.arange(parent.size)))


def count_components(spec, budget=CELL_BUDGET):
    """Number of adjacency classes of straddling cells at the resolution."""
    count, _, _, _, examined = _occupied_cells(spec, budget)
    return ComponentCount(count=count, status="heuristic",
                          cells_examined=examined)


def component_cells(spec, budget=CELL_BUDGET):
    """Count plus the occupied cells as (cx, cy, wx, wy) rows, for plotting."""
    count, ix, iy, (fx0, fy0, wx, wy), examined = _occupied_cells(spec, budget)
    rows = [(fx0 + (int(i) + 0.5) * wx, fy0 + (int(j) + 0.5) * wy, wx, wy)
            for i, j in zip(ix, iy)]
    result = ComponentCount(count=count, status="heuristic",
                            cells_examined=examined)
    return result, rows
