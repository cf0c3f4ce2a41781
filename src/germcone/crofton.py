"""Unit-ball volumes and the upper-triangular Cauchy-Crofton matrix."""

from dataclasses import dataclass
from math import comb, pi

import numpy as np


@dataclass
class CroftonMatrix:
    n: int
    entries: np.ndarray    # (n, n) float64, 1-indexed entries at [i-1, j-1]


def ball_volume(k):
    """Volume of the k-dimensional unit ball, via the two-step recurrence."""
    assert k >= 0
    if k == 0:
        return 1.0
    if k == 1:
        return 2.0
    return ball_volume(k - 2) * 2.0 * pi / k


def crofton_matrix(n):
    if n < 1:
        raise ValueError("crofton matrix needs n >= 1")
    alpha = [ball_volume(k) for k in range(n + 1)]
    m = np.zeros((n, n))
    for i in range(1, n + 1):
        m[i - 1, i - 1] = 1.0
        for j in range(i + 1, n + 1):
            m[i - 1, j - 1] = (alpha[j] / (alpha[j - i] * alpha[i]) * comb(j, i)
                               - alpha[j - 1] / (alpha[j - 1 - i] * alpha[i])
                               * comb(j - 1, i))
    return CroftonMatrix(n=n, entries=m)
