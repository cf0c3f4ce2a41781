"""Interval enclosures and component counting on plane sections."""

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germcone.groebner import ResourceLimitExceeded
from germcone.numtopo import (
    CELL_BUDGET, SectionSpec, component_cells, count_components, interval_eval)
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
