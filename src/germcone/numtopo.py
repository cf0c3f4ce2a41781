"""Connected-component counting for plane sections of a zero set.

Cells whose interval enclosure excludes 0 are discarded; straddling cells
at the target resolution are glued by edge adjacency.  Counts are heuristic:
a too-coarse grid can merge nearby components or split a pinched one.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from .groebner import CELL_BUDGET, ResourceLimitExceeded

_EPS = 2.220446049250313e-16
_MAX_DEPTH = 24


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


def _grid(f):
    dx = max((m[0] for m, _ in f.terms), default=0)
    dy = max((m[1] for m, _ in f.terms), default=0)
    c = np.zeros((dx + 1, dy + 1))
    for (i, j), coeff in f.terms:
        c[i, j] = float(coeff)
    return c


def _ddx(c):
    return c[1:, :] * np.arange(1, c.shape[0])[:, None] if c.shape[0] > 1 \
        else np.zeros((1, c.shape[1]))


def _ddy(c):
    return c[:, 1:] * np.arange(1, c.shape[1])[None, :] if c.shape[1] > 1 \
        else np.zeros((c.shape[0], 1))


class _Encloser:
    """Second-order centered form for one 2-variable polynomial.

    abs-coefficient sups of the first derivatives are useless here (the
    acceptance curves live where huge monomials cancel), so the gradient is
    evaluated at the center and its variation bounded via second derivatives.
    """

    def __init__(self, f):
        if len(f.vars) != 2:
            raise ValueError(f"need exactly 2 variables, got {f.vars}")
        c = _grid(f)
        fx, fy = _ddx(c), _ddy(c)
        self.c, self.fx, self.fy = c, fx, fy
        self.cabs = np.abs(c)
        self.axx = np.abs(_ddx(fx))
        self.axy = np.abs(_ddy(fx))
        self.ayy = np.abs(_ddy(fy))
        self.slack_scale = (4.0 * len(f.terms) + 16.0) * _EPS

    def __call__(self, cx, cy, wx, wy):
        ax = np.abs(cx) + 0.5 * wx
        ay = np.abs(cy) + 0.5 * wy
        v = polyval2d(cx, cy, self.c)
        gx = np.abs(polyval2d(cx, cy, self.fx)) \
            + 0.5 * wx * polyval2d(ax, ay, self.axx) \
            + 0.5 * wy * polyval2d(ax, ay, self.axy)
        gy = np.abs(polyval2d(cx, cy, self.fy)) \
            + 0.5 * wx * polyval2d(ax, ay, self.axy) \
            + 0.5 * wy * polyval2d(ax, ay, self.ayy)
        slack = self.slack_scale * polyval2d(ax, ay, self.cabs)
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
    keys = ix * nside + iy
    order = np.argsort(keys)
    skeys = keys[order]
    edges_a = []
    edges_b = []
    for dk, mask in ((nside, ix < nside - 1), (np.int64(1), iy < nside - 1)):
        cand = keys[mask] + dk
        pos = np.searchsorted(skeys, cand)
        pos = np.minimum(pos, skeys.size - 1)
        hit = skeys[pos] == cand
        edges_a.append(np.flatnonzero(mask)[hit])
        edges_b.append(order[pos[hit]])
    a = np.concatenate(edges_a)
    b = np.concatenate(edges_b)
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
