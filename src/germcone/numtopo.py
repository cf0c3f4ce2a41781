"""Connected-component counting for plane sections of a zero set.

Cells whose interval enclosure excludes 0 are discarded; straddling cells
at the target resolution are glued by edge adjacency.  Counts are heuristic:
a too-coarse grid can merge nearby components or split a pinched one.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groebner import CELL_BUDGET, ResourceLimitExceeded

_EPS = 2.220446049250313e-16
_MAX_DEPTH = 24
_BLOCK = 1 << 15    # cells per enclosure sweep; bounds its temporaries


@dataclass
class SectionSpec:
    f: object                  # Polynomial over the ambient variables
    fixed_assignments: dict    # pins all but exactly 2 of them
    box: tuple                 # (x0, x1, y0, y1) for the two free variables
    resolution: object         # minimal cell width, rational; or "auto"

    @property
    def free_vars(self):
        return tuple(v for v in self.f.vars if v not in self.fixed_assignments)


@dataclass
class ComponentCount:
    count: int
    status: str
    cells_examined: int


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
        c = [(i, j, float(coeff)) for (i, j), coeff in f.terms]
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


def interval_eval(f, cell):
    """Enclosure of f over a rectangle ((x0, x1), (y0, y1))."""
    (x0, x1), (y0, y1) = cell
    wx = float(x1) - float(x0)
    wy = float(y1) - float(y0)
    if not (wx >= 0 and wy >= 0):
        raise ValueError(f"reversed cell {cell}")
    cx = np.array([float(x0) + 0.5 * wx])
    cy = np.array([float(y0) + 0.5 * wy])
    lo, hi = _Encloser(f)(cx, cy, wx, wy)
    return float(lo[0]), float(hi[0])


def _depth_for(width, height, resolution):
    depth = 0
    while max(width, height) / 2 ** depth > resolution:
        depth += 1
        if depth > 40:
            raise ValueError("resolution too fine")
    return depth


def _occupied_cells(spec, budget):
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
    bw, bh = float(x1 - x0), float(y1 - y0)

    ix = np.zeros(1, dtype=np.int64)
    iy = np.zeros(1, dtype=np.int64)
    examined = 0
    level = 0
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
        keep = (lo <= 0.0) & (hi >= 0.0)
        ix, iy = ix[keep], iy[keep]
        if level == depth or ix.size == 0:
            break
        if auto and examined + 4 * ix.size > budget:
            break
        ix = np.concatenate([2 * ix, 2 * ix + 1, 2 * ix, 2 * ix + 1])
        iy = np.concatenate([2 * iy, 2 * iy, 2 * iy + 1, 2 * iy + 1])
        level += 1
    return ix, iy, level, (fx0, fy0, wx, wy), examined


def _component_count(ix, iy, depth):
    # imported here so that analyze and family never load scipy.sparse
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    if ix.size == 0:
        return 0
    nside = np.int64(1) << depth
    # Edges join positions in the sorted key array: the graph is the cell
    # graph relabelled, and the neighbour queries below come in ascending order.
    keys = np.sort(ix * nside + iy)
    # (i, j + 1) follows (i, j) directly when both are kept
    a_up = np.flatnonzero((keys[1:] - keys[:-1] == 1)
                          & (keys[:-1] % nside != nside - 1))
    # (i + 1, j); past the last column the query exceeds every key
    cand = keys + nside
    pos = np.minimum(np.searchsorted(keys, cand), keys.size - 1)
    a_right = np.flatnonzero(keys[pos] == cand)
    a = np.concatenate([a_up, a_right])
    b = np.concatenate([a_up + 1, pos[a_right]])
    graph = coo_matrix((np.ones(a.size), (a, b)), shape=(keys.size, keys.size))
    count, _ = connected_components(graph, directed=False)
    return int(count)


def count_components(spec, budget=CELL_BUDGET):
    """Number of adjacency classes of straddling cells at the resolution."""
    ix, iy, depth, _, examined = _occupied_cells(spec, budget)
    count = _component_count(ix, iy, depth)
    return ComponentCount(count=count, status="heuristic",
                          cells_examined=examined)


def component_cells(spec, budget=CELL_BUDGET):
    """Count plus the occupied cells as (cx, cy, wx, wy) rows, for plotting."""
    ix, iy, depth, (fx0, fy0, wx, wy), examined = _occupied_cells(spec, budget)
    count = _component_count(ix, iy, depth)
    rows = [(fx0 + (int(i) + 0.5) * wx, fy0 + (int(j) + 0.5) * wy, wx, wy)
            for i, j in zip(ix, iy)]
    result = ComponentCount(count=count, status="heuristic",
                            cells_examined=examined)
    return result, rows
