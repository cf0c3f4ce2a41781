"""Ball volumes and the section-averaging matrix."""

from math import comb, gamma, pi

import numpy as np
import pytest

from oracles import ball_volume

from germcone.crofton import crofton_matrix


def gamma_ball_volume(k):
    return pi ** (k / 2) / gamma(k / 2 + 1)


def test_small_ball_volumes():
    assert ball_volume(0) == 1.0
    assert ball_volume(1) == 2.0
    assert abs(ball_volume(2) - pi) < 1e-12
    assert abs(ball_volume(3) - 4 * pi / 3) < 1e-12
    assert abs(ball_volume(4) - pi ** 2 / 2) < 1e-12


@pytest.mark.parametrize("k", range(13))
def test_ball_volume_against_gamma(k):
    assert ball_volume(k) == pytest.approx(gamma_ball_volume(k), rel=1e-12)


@pytest.mark.parametrize("k", range(2, 13))
def test_ball_volume_recurrence(k):
    assert ball_volume(k) == pytest.approx(
        ball_volume(k - 2) * 2 * pi / k, rel=1e-12)


def test_negative_ball_dimension_is_a_value_error():
    with pytest.raises(ValueError):
        ball_volume(-1)


def reference_entry(i, j):
    """The defining formula, evaluated through the gamma function."""
    a = gamma_ball_volume
    first = a(j) / (a(j - i) * a(i)) * comb(j, i)
    second = a(j - 1) / (a(j - 1 - i) * a(i)) * comb(j - 1, i) if j - 1 >= i \
        else 0.0
    return first - second


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12])
def test_matrix_shape_and_triangle(n):
    m = crofton_matrix(n)
    assert m.n == n
    assert np.array(m.entries).shape == (n, n)
    for i in range(1, n + 1):
        assert np.array(m.entries)[i - 1, i - 1] == 1.0
        for j in range(1, i):
            assert np.array(m.entries)[i - 1, j - 1] == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 8, 12])
def test_entries_nonnegative(n):
    assert np.array(crofton_matrix(n).entries).min() >= -1e-12


def test_pinned_entries():
    m = np.array(crofton_matrix(3).entries)
    assert m[0, 1] == pytest.approx(pi / 2 - 1, abs=1e-10)
    assert m[0, 2] == pytest.approx(2 - pi / 2, abs=1e-10)
    assert m[1, 0] == 0.0


@pytest.mark.parametrize("n", [4, 12])
def test_against_gamma_formula(n):
    m = np.array(crofton_matrix(n).entries)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assert m[i - 1, j - 1] == pytest.approx(
                reference_entry(i, j), abs=1e-10), (i, j)


def test_principal_submatrix_stable():
    big = np.array(crofton_matrix(9).entries)
    small = np.array(crofton_matrix(4).entries)
    assert np.allclose(big[:4, :4], small, atol=1e-14)


def test_limit_is_where_volumes_leave_float_range():
    # 436 is the first dimension whose ball volume is subnormal
    assert np.isfinite(np.array(crofton_matrix(435).entries)).all()
    for n in (436, 2100, 10 ** 9):
        with pytest.raises(ValueError, match="below float range"):
            crofton_matrix(n)
    assert ball_volume(2100) == 0.0
