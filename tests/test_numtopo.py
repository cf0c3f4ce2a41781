"""Interval enclosures and component counting on plane sections."""

import subprocess
import sys
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import evaluate, free_vars, interval_eval, zero

from germcone.groebner import ResourceLimitExceeded
from germcone.numtopo import (
    _BLOCK, CELL_BUDGET, SectionSpec, _arcs, _component_count, _Encloser,
    _occupied_cells, component_cells, count_components)
from germcone.polyring import Polynomial

V2 = ("x", "y")
X = Polynomial.variable(V2, "x")
Y = Polynomial.variable(V2, "y")
CIRCLE = X ** 2 + Y ** 2 - 1


def spec(f, box, res, fixed=None):
    return SectionSpec(f=f, fixed_assignments=fixed or {}, box=box,
                       resolution=res)


# --- enclosure soundness ---

coeff = st.fractions(min_value=-6, max_value=6,
                     max_denominator=8).filter(lambda q: q != 0)
mono2 = st.tuples(st.integers(0, 4), st.integers(0, 4))
poly2 = st.builds(lambda d: Polynomial(V2, d),
                  st.dictionaries(mono2, coeff, min_size=1, max_size=5))
corner = st.fractions(min_value=-4, max_value=4, max_denominator=16)
side = st.fractions(min_value=Fraction(1, 64), max_value=2, max_denominator=64)


@settings(max_examples=200)
@given(poly2, corner, corner, side, side)
def test_enclosure_contains_sampled_values(f, x0, y0, wx, wy):
    cell = ((x0, x0 + wx), (y0, y0 + wy))
    lo, hi = interval_eval(f, cell)
    assert lo <= hi
    for i in range(3):
        for j in range(3):
            px = x0 + wx * i / 2
            py = y0 + wy * j / 2
            value = evaluate(f, {"x": px, "y": py})
            assert Fraction(lo) <= value <= Fraction(hi), (cell, px, py)


def _scaled(t, s):
    """The float t times 2^s, as an exact int (t must be a multiple of 2^-s)."""
    n, d = t.as_integer_ratio()
    assert (1 << s) % d == 0, t
    return n * ((1 << s) // d)


# (integer coefficients by exponent, cell centres) for the block sweep: one
# term, a cancelling pair, a double root at x = 2^(1/6), mixed monomials, and
# a degree past 3k + 16, where slack_scale grows with the degree
_ROOT6 = 2 ** (1 / 6)
_SWEEP_CASES = [
    ({(12, 0): 1}, "spread"),
    ({(8, 0): 1, (0, 8): -1}, "diagonal"),
    ({(12, 0): 1, (6, 0): -4, (0, 0): 4}, "double_root"),
    ({(5, 7): 2, (2, 1): -3, (0, 12): 1, (0, 0): -5}, "spread"),
    ({(30, 0): 1, (15, 0): -2, (0, 0): 1}, "near_one"),
]


@pytest.mark.parametrize("coeffs, where", _SWEEP_CASES)
def test_enclosure_sound_across_blocks(coeffs, where):
    """One call on more cells than a block of the quadtree's sweep contains
    f at every cell's corners and centre, computed exactly."""
    f = Polynomial(V2, {m: Fraction(c) for m, c in coeffs.items()})
    rng = np.random.default_rng(len(coeffs) + len(where))
    n = _BLOCK + 1000
    wx, wy = 2.0 ** -30, 2.0 ** -rng.integers(3, 31)
    base = rng.integers(-2 ** 40, 2 ** 40, size=n) / 2.0 ** 40
    step = rng.integers(-2 ** 10, 2 ** 10, size=n) * 2.0 ** -40
    cx, cy = {
        "spread": (base * 1.5, np.roll(base, 7)),
        "diagonal": (base * 1.9, base * 1.9 + step),
        "double_root": (_ROOT6 + step, base),
        "near_one": (1.0 + step, base),
    }[where]
    lo, hi, _, _ = _Encloser(f)(cx, cy, wx, wy)
    assert lo.shape == hi.shape == (n,)
    # every centre and corner is a multiple of 2^-s
    s = max(t.as_integer_ratio()[1].bit_length() - 1
            for t in (*cx.tolist(), *cy.tolist(), wx / 2, wy / 2))
    degree = max(i + j for i, j in coeffs)
    hx, hy = _scaled(wx / 2, s), _scaled(wy / 2, s)
    for k in range(n):
        px = _scaled(float(cx[k]), s)
        py = _scaled(float(cy[k]), s)
        lo_n, lo_d = float(lo[k]).as_integer_ratio()
        hi_n, hi_d = float(hi[k]).as_integer_ratio()
        for X, Y in ((px, py), (px - hx, py - hy), (px - hx, py + hy),
                     (px + hx, py - hy), (px + hx, py + hy)):
            # f(X, Y) * 2^(s * degree), exactly
            value = sum(c * X ** i * Y ** j << s * (degree - i - j)
                        for (i, j), c in coeffs.items())
            assert lo_n << s * degree <= value * lo_d, (k, cx[k], cy[k])
            assert value * hi_d <= hi_n << s * degree, (k, cx[k], cy[k])


def test_enclosure_tight_on_linear():
    lo, hi = interval_eval(X, ((Fraction(1), Fraction(2)),
                               (Fraction(0), Fraction(1))))
    assert lo == pytest.approx(1, abs=1e-9)
    assert hi == pytest.approx(2, abs=1e-9)
    assert lo <= 1 and hi >= 2


def test_enclosure_sign_definite_away_from_zero():
    lo, _ = interval_eval(CIRCLE, ((Fraction(2), Fraction(5, 2)),
                                   (Fraction(0), Fraction(1, 2))))
    assert lo > 0


@pytest.mark.parametrize("f, cell", [
    (CIRCLE, ((1, 0), (0, 1))),                                # reversed
    (Polynomial.variable(("x", "y", "z"), "x"), ((0, 1), (0, 1))),
])
def test_enclosure_rejects_bad_input(f, cell):
    with pytest.raises(ValueError):
        interval_eval(f, cell)


def test_enclosure_rejects_reversed_cell_under_optimize():
    # input checks must not be asserts, which -O strips; the enclosure
    # (-1.5, 0.5) it returned there misses the maximum 1 of f on the square
    code = ("from oracles import interval_eval\n"
            "from germcone.polyring import Polynomial\n"
            "x = Polynomial.variable(('x', 'y'), 'x')\n"
            "y = Polynomial.variable(('x', 'y'), 'y')\n"
            "try:\n"
            "    interval_eval(x**2 + y**2 - 1, ((1, 0), (0, 1)))\n"
            "except ValueError:\n"
            "    print('rejected')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


# --- certified cells ---

def _sign(q):
    return (q > 0) - (q < 0)


@settings(max_examples=100, deadline=None)
@given(poly2, corner, corner, side, side)
def test_certified_cells_keep_gradient_and_corner_signs(f, x0, y0, wx, wy):
    """Every arc cell the quadtree keeps has f_x and f_y of one sign on the
    cell and its float corners, and stores the exact signs of f there."""
    # shifted so that the curve runs through the middle of the box
    f = f - evaluate(f, {"x": x0 + wx / 2, "y": y0 + wy / 2})
    assume(not f.is_constant())
    s = spec(f, (x0, x0 + wx, y0, y0 + wy), max(wx, wy) / 64)
    *_, (ai, aj, level, corners), (fx0, fy0, bw, bh), _ = \
        _occupied_cells(s, CELL_BUDGET)
    fx, fy = f.derivative("x"), f.derivative("y")
    # a spread of at most 8 arc cells, exactly
    for k in range(0, ai.size, max(1, ai.size // 8)):
        i, j, lv, mask = (int(ai[k]), int(aj[k]), int(level[k]),
                          int(corners[k]))
        cw, ch = bw / 2 ** lv, bh / 2 ** lv
        xs = [fx0 + i * cw, fx0 + (i + 1) * cw]
        ys = [fy0 + j * ch, fy0 + (j + 1) * ch]
        ex = [Fraction(fx0) + Fraction(bw) * (i + t) / 2 ** lv for t in (0, 1)]
        ey = [Fraction(fy0) + Fraction(bh) * (j + t) / 2 ** lv for t in (0, 1)]
        lx, hx = min(*ex, *map(Fraction, xs)), max(*ex, *map(Fraction, xs))
        ly, hy = min(*ey, *map(Fraction, ys)), max(*ey, *map(Fraction, ys))
        grid = [{"x": lx + (hx - lx) * a / 4, "y": ly + (hy - ly) * b / 4}
                for a in range(5) for b in range(5)]
        for g in (fx, fy):
            signs = {_sign(evaluate(g, p)) for p in grid}
            assert signs in ({1}, {-1}), (f, s.box, i, j, lv, signs)
        for bit, (px, py) in enumerate(((xs[0], ys[0]), (xs[1], ys[0]),
                                        (xs[0], ys[1]), (xs[1], ys[1]))):
            value = evaluate(f, {"x": Fraction(px), "y": Fraction(py)})
            assert value != 0 and (value > 0) == bool(mask >> bit & 1), \
                (f, s.box, i, j, lv, mask)


def _certify(f, cx, cy, wx, wy):
    """Whether the encloser certifies the float cell of centre (cx, cy) and
    width (wx, wy), and its corner bitmask there (-1: a sign unknown)."""
    enclose = _Encloser(f)
    _, _, sure, slack = enclose(np.array([cx]), np.array([cy]), wx, wy)
    x0, x1, y0, y1 = cx - 0.5 * wx, cx + 0.5 * wx, cy - 0.5 * wy, cy + 0.5 * wy
    mask = enclose.corners(np.array([x0, x1, x0, x1]),
                           np.array([y0, y0, y1, y1]), slack)
    return bool(sure[0]), int(mask[0])


unit = st.fractions(min_value=0, max_value=1, max_denominator=64)


@settings(max_examples=200, deadline=None)
@given(side, unit, unit)
def test_cell_at_a_critical_point_never_certifies(w, t, u):
    # f_x = 2x vanishes at (0, 1), which the cell holds
    x0, y0 = -t * w, 1 - u * w
    sure, _ = _certify(CIRCLE, float(x0 + w / 2), float(y0 + w / 2),
                       float(w), float(w))
    assert not sure


def test_circle_certifies_away_from_its_critical_points():
    # the circle runs through (0.6, 0.8), where f_x = 1.2 and f_y = 1.6:
    # the cell's top corners are outside it and its bottom ones inside
    sure, mask = _certify(CIRCLE, 0.6, 0.8, 1 / 64, 1 / 64)
    assert sure and mask == 0b1100


# --- component counts ---

def test_circle():
    r = count_components(spec(CIRCLE, (-2, 2, -2, 2), Fraction(1, 64)))
    assert r.count == 1
    assert r.status == "heuristic"


def test_circle_stable_under_refinement():
    for res in (Fraction(1, 64), Fraction(1, 128), Fraction(1, 256)):
        assert count_components(spec(CIRCLE, (-2, 2, -2, 2), res)).count == 1


def _circles(k, gap=4):
    f = Polynomial.constant(V2, 1)
    for i in range(k):
        f = f * ((X - gap * i) ** 2 + Y ** 2 - 1)
    return f


@pytest.mark.parametrize("k", [2, 3])
def test_disjoint_circles(k):
    box = (-2, 4 * k - 2, -2, 2)
    r = count_components(spec(_circles(k), box, Fraction(1, 32)))
    assert r.count == k


# curves whose counts the uniform grid gave, kept by the certified leaves:
# (f, box, resolution, count)
PINNED_CURVES = {
    "circle 1/64": (CIRCLE, (-2, 2, -2, 2), Fraction(1, 64), 1),
    "circle 1/256": (CIRCLE, (-2, 2, -2, 2), Fraction(1, 256), 1),
    "circle 1/4096": (CIRCLE, (-2, 2, -2, 2), Fraction(1, 4096), 1),
    "2 circles": (_circles(2), (-2, 6, -2, 2), Fraction(1, 32), 2),
    "3 circles": (_circles(3), (-2, 10, -2, 2), Fraction(1, 32), 3),
    "3 circles 1/1024": (_circles(3), (-2, 10, -2, 2), Fraction(1, 1024), 3),
    "crossing lines": ((X - Y) * (X + Y), (-1, 1, -1, 1), Fraction(1, 64), 1),
    "vertical line": (X - Fraction(1, 2), (0, 1, 0, 1), Fraction(1, 8), 1),
    "two points 2^-20": (
        (X ** 2 + Y ** 2) * ((X - Fraction(1, 2)) ** 2 + Y ** 2),
        (-1, 1, -1, 1), Fraction(1, 2 ** 20), 2),
    "x^20 + y^2 - 1/1000": (X ** 20 + Y ** 2 - Fraction(1, 1000),
                            (-2, 2, -2, 2), Fraction(1, 256), 1),
    "lemniscate": ((X ** 2 + Y ** 2) ** 2 - 2 * (X ** 2 - Y ** 2),
                   (-2, 2, -2, 2), Fraction(1, 256), 1),
    "circles 0.01 apart": (_circles(2, Fraction(201, 100)), (-2, 5, -2, 2),
                           Fraction(1, 1024), 2),
    "nested circles 1 and 1.01": (
        CIRCLE * (X ** 2 + Y ** 2 - Fraction(10201, 10000)),
        (-2, 2, -2, 2), Fraction(1, 1024), 2),
}


@pytest.mark.parametrize("name", sorted(PINNED_CURVES))
def test_pinned_curve_counts(name):
    f, box, res, want = PINNED_CURVES[name]
    assert count_components(spec(f, box, res)).count == want


def test_crossing_lines_connect():
    f = (X - Y) * (X + Y)
    assert count_components(spec(f, (-1, 1, -1, 1), Fraction(1, 64))).count == 1


def test_vertical_line():
    f = X - Fraction(1, 2)
    assert count_components(spec(f, (0, 1, 0, 1), Fraction(1, 8))).count == 1


def test_empty_when_no_zero_in_box():
    assert count_components(
        spec(CIRCLE, (5, 6, 5, 6), Fraction(1, 4))).count == 0
    positive = X ** 2 + Y ** 2 + 1
    assert count_components(
        spec(positive, (-1, 1, -1, 1), Fraction(1, 4))).count == 0


def test_section_of_three_variables():
    V3 = ("x", "y", "z")
    f = (Polynomial.variable(V3, "x") ** 2
         + Polynomial.variable(V3, "y") ** 2
         + Polynomial.variable(V3, "z") ** 2 - 4)
    s = spec(f, (-3, 3, -3, 3), Fraction(1, 32), fixed={"z": Fraction(1)})
    assert free_vars(s) == ("x", "y")
    assert count_components(s).count == 1


# the circle at resolution 1/64: 2405 cells and 532 rows, all at level 8,
# on the uniform grid
CIRCLE_CELLS = 389
CIRCLE_ROWS = 60


def test_determinism_and_cells():
    s = spec(CIRCLE, (-2, 2, -2, 2), Fraction(1, 64))
    a, rows_a = component_cells(s)
    b, rows_b = component_cells(s)
    assert a == b
    assert rows_a == rows_b
    assert a.cells_examined == CIRCLE_CELLS
    assert len(rows_a) == CIRCLE_ROWS
    # uncertified rows are 4/2^8 wide and certified ones 4/2^L, L <= 8;
    # in units of the finest cell, no two rows overlap
    covered = set()
    for cx, cy, wx, wy in rows_a:
        assert -2 <= cx <= 2 and -2 <= cy <= 2
        assert wx == wy and wx in {4 / 2 ** level for level in range(9)}
        side = round(wx * 2 ** 8 / 4)
        i, j = round((cx + 2) * 2 ** 8 / 4 - side / 2), \
            round((cy + 2) * 2 ** 8 / 4 - side / 2)
        cells = {(i + a, j + b) for a in range(side) for b in range(side)}
        assert not cells & covered, (cx, cy, wx)
        covered |= cells
    levels = sorted({round(4 / wx).bit_length() - 1 for _, _, wx, _ in rows_a})
    assert levels[0] < 8


def test_budget_exhaustion_raises():
    with pytest.raises(ResourceLimitExceeded):
        count_components(spec(CIRCLE, (-2, 2, -2, 2), Fraction(1, 1024)),
                         budget=100)


def test_auto_resolution_respects_budget():
    r = count_components(spec(CIRCLE, (-2, 2, -2, 2), "auto"), budget=40_000)
    assert r.count == 1
    assert r.cells_examined <= 40_000


SPHERE_AUTO_CELLS = 165


def test_auto_stops_when_two_levels_agree():
    # the README example: levels 4 and 5 both count 1, so refinement stops
    # there; the uniform grid examined 1 + 4 + 16 + 64 + 112 + 144 = 341
    # cells
    V3 = ("x", "y", "z")
    f = sum((Polynomial.variable(V3, v) ** 2 for v in V3),
            zero(V3)) - 4
    r = count_components(spec(f, (-3, 3, -3, 3), "auto",
                              fixed={"z": Fraction(1)}))
    assert r.count == 1
    assert r.cells_examined == SPHERE_AUTO_CELLS


@pytest.mark.parametrize("e", [199, 198])
def test_overflowing_enclosure_keeps_cells(e):
    # every enclosure past the root is (nan, inf): it proves no sign, so
    # no cell may be dropped for it
    box = (-10 ** 200, 10 ** 200, -10 ** 200, 10 ** 200)
    with np.errstate(over="ignore", invalid="ignore"):
        r = count_components(spec(CIRCLE, box, Fraction(10 ** e)))
    assert r.count >= 1


def test_default_budget_constant():
    assert CELL_BUDGET == 10 ** 7


def test_rejects_underdetermined_section():
    V3 = ("x", "y", "z")
    f = Polynomial.variable(V3, "x")
    with pytest.raises(ValueError):
        count_components(spec(f, (0, 1, 0, 1), Fraction(1, 4)))


def test_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        count_components(spec(zero(V2), (0, 1, 0, 1),
                              Fraction(1, 4)))


def test_rejects_absurd_resolution():
    with pytest.raises(ValueError):
        count_components(spec(CIRCLE, (-2, 2, -2, 2), Fraction(1, 2 ** 50)))


def test_deepest_key_level_counts_and_the_next_is_refused():
    # two isolated real points; the box is 2 wide, so resolution 2^-30 is
    # depth 31, whose keys ix * 2^31 + iy still fit an int64.  At depth 33
    # the keys wrapped, and the two points counted 1.
    f = (X ** 2 + Y ** 2) * ((X - Fraction(1, 2)) ** 2 + Y ** 2)
    box = (-1, 1, -1, 1)
    assert count_components(spec(f, box, Fraction(1, 2 ** 30))).count == 2
    for depth in (32, 33):
        with pytest.raises(ValueError, match="resolution too fine"):
            count_components(spec(f, box, Fraction(2, 2 ** depth)))


# --- adjacency ---

def _bfs_count(cells):
    seen, count = set(), 0
    for start in cells:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            i, j = queue.popleft()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
    return count


@st.composite
def cell_sets(draw):
    depth = draw(st.integers(1, 6))
    nside = 1 << depth
    index = st.integers(0, nside - 1)
    edge = st.one_of(st.tuples(st.just(nside - 1), index),
                     st.tuples(index, st.just(nside - 1)))
    cells = draw(st.sets(st.tuples(index, index), max_size=min(nside ** 2, 300)))
    cells |= draw(st.sets(edge, max_size=2 * nside))
    return depth, draw(st.permutations(sorted(cells)))


@st.composite
def dense_cell_sets(draw):
    # near the site-percolation threshold, where clusters branch and the
    # hooking needs several rounds
    depth = draw(st.integers(1, 8))
    density = draw(st.floats(0.3, 0.8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ix, iy = np.nonzero(rng.random((1 << depth, 1 << depth)) < density)
    cells = list(zip(ix.tolist(), iy.tolist()))
    rng.shuffle(cells)
    return depth, cells


@settings(max_examples=300, deadline=None)
@given(st.one_of(cell_sets(), dense_cell_sets()))
def test_component_count_matches_bfs(case):
    # every leaf uncertified and at the one level
    depth, cells = case
    ix = np.array([i for i, _ in cells], dtype=np.int64)
    iy = np.array([j for _, j in cells], dtype=np.int64)
    assert _component_count(ix, iy, depth, _arcs([])) == \
        _bfs_count(set(cells))


# the corner bits at the ends of the sides left, right, bottom and top
_SIDE_ENDS = {(-1, 0): (0, 2), (1, 0): (1, 3), (0, -1): (0, 1), (0, 1): (2, 3)}


@st.composite
def quadtrees(draw):
    """Leaves of a random quadtree: uncertified cells at the last level,
    and arc cells at any level with corner signs read off one sign per
    grid point, as (depth, cells, arcs)."""
    depth = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    split, arc = draw(st.floats(0.3, 0.8)), draw(st.floats(0.1, 0.6))
    nside = 1 << depth
    positive = rng.random((nside + 1, nside + 1)) < 0.5
    cells, arcs = [], []
    stack = [(0, 0, 0)]
    while stack:
        i, j, level = stack.pop()
        r = rng.random()
        if level < depth and r < split:
            stack += [(2 * i + a, 2 * j + b, level + 1)
                      for a in (0, 1) for b in (0, 1)]
        elif r < split + (1 - split) * arc:
            s = 1 << (depth - level)
            x, y = i * s, j * s
            corners = sum(int(positive[px, py]) << bit for bit, (px, py) in
                          enumerate(((x, y), (x + s, y), (x, y + s),
                                     (x + s, y + s))))
            arcs.append((i, j, level, corners))
        elif level == depth and r < 0.5 + 0.5 * split:
            cells.append((i, j))
    return depth, cells, arcs


def _leaf_bfs_count(depth, cells, arcs):
    """Classes of the leaves under the join rule, by breadth-first search
    over the finest cells each leaf covers."""
    leaves = [(i, j, depth, None) for i, j in cells] + list(arcs)
    owner = {}
    for k, (i, j, level, _) in enumerate(leaves):
        s = 1 << (depth - level)
        for a in range(s):
            for b in range(s):
                owner[i * s + a, j * s + b] = k

    def joined(k, m, step):
        # step goes from leaf k towards leaf m
        (*_, lk, ck), (*_, lm, cm) = leaves[k], leaves[m]
        if ck is None or cm is None:
            return True
        corners, step = (ck, step) if lk >= lm else (cm, (-step[0], -step[1]))
        a, b = _SIDE_ENDS[step]
        return bool((corners >> a ^ corners >> b) & 1)

    seen, count = set(), 0
    for start in range(len(leaves)):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            k = queue.popleft()
            i, j, level, _ = leaves[k]
            s = 1 << (depth - level)
            for a in range(s):
                for b in range(s):
                    for step in _SIDE_ENDS:
                        m = owner.get((i * s + a + step[0],
                                       j * s + b + step[1]))
                        if m is not None and m != k and m not in seen \
                                and joined(k, m, step):
                            seen.add(m)
                            queue.append(m)
    return count


@settings(max_examples=300, deadline=None)
@given(quadtrees())
def test_mixed_leaf_count_matches_bfs(case):
    depth, cells, arcs = case
    ix = np.array([i for i, _ in cells], dtype=np.int64)
    iy = np.array([j for _, j in cells], dtype=np.int64)
    columns = tuple(np.array([a[k] for a in arcs], dtype=dtype) for k, dtype
                    in enumerate((np.int64, np.int64, np.int64, np.int8)))
    assert _component_count(ix, iy, depth, columns) == \
        _leaf_bfs_count(depth, cells, arcs)
