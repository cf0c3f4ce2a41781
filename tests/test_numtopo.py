"""Interval enclosures and component counting on plane sections."""

import subprocess
import sys
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from germcone.groebner import ResourceLimitExceeded
from germcone.numtopo import (
    _BLOCK, CELL_BUDGET, SectionSpec, _component_count, _Encloser,
    component_cells, count_components, interval_eval)
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
            value = f.evaluate({"x": px, "y": py})
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
    """One call on more than one block of cells contains f at every cell's
    corners and centre, computed exactly."""
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
    lo, hi = _Encloser(f)(cx, cy, wx, wy)
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
    code = ("from germcone.numtopo import interval_eval\n"
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


# --- component counts ---

def test_circle():
    r = count_components(spec(CIRCLE, (-2, 2, -2, 2), Fraction(1, 64)))
    assert r.count == 1
    assert r.status == "heuristic"


def test_circle_stable_under_refinement():
    for res in (Fraction(1, 64), Fraction(1, 128), Fraction(1, 256)):
        assert count_components(spec(CIRCLE, (-2, 2, -2, 2), res)).count == 1


@pytest.mark.parametrize("k", [2, 3])
def test_disjoint_circles(k):
    f = Polynomial.constant(V2, 1)
    for i in range(k):
        f = f * ((X - 4 * i) ** 2 + Y ** 2 - 1)
    box = (-2, 4 * k - 2, -2, 2)
    r = count_components(spec(f, box, Fraction(1, 32)))
    assert r.count == k


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
    assert s.free_vars == ("x", "y")
    assert count_components(s).count == 1


def test_determinism_and_cells():
    s = spec(CIRCLE, (-2, 2, -2, 2), Fraction(1, 64))
    a, rows_a = component_cells(s)
    b, rows_b = component_cells(s)
    assert a == b
    assert rows_a == rows_b
    assert a.cells_examined == 2405
    assert len(rows_a) == 532
    for cx, cy, wx, wy in rows_a:
        assert -2 <= cx <= 2 and -2 <= cy <= 2
        assert wx == wy == 4 / 2 ** 8


def test_budget_exhaustion_raises():
    with pytest.raises(ResourceLimitExceeded):
        count_components(spec(CIRCLE, (-2, 2, -2, 2), Fraction(1, 1024)),
                         budget=100)


def test_auto_resolution_respects_budget():
    r = count_components(spec(CIRCLE, (-2, 2, -2, 2), "auto"), budget=40_000)
    assert r.count == 1
    assert r.cells_examined <= 40_000


def test_default_budget_constant():
    assert CELL_BUDGET == 10 ** 7


def test_rejects_underdetermined_section():
    V3 = ("x", "y", "z")
    f = Polynomial.variable(V3, "x")
    with pytest.raises(ValueError):
        count_components(spec(f, (0, 1, 0, 1), Fraction(1, 4)))


def test_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        count_components(spec(Polynomial.zero(V2), (0, 1, 0, 1),
                              Fraction(1, 4)))


def test_rejects_absurd_resolution():
    with pytest.raises(ValueError):
        count_components(spec(CIRCLE, (-2, 2, -2, 2), Fraction(1, 2 ** 50)))


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


@settings(max_examples=300)
@given(cell_sets())
def test_component_count_matches_bfs(case):
    depth, cells = case
    ix = np.array([i for i, _ in cells], dtype=np.int64)
    iy = np.array([j for _, j in cells], dtype=np.int64)
    assert _component_count(ix, iy, depth) == _bfs_count(set(cells))
