"""Unit-ball volumes and the upper-triangular Cauchy-Crofton matrix."""

import sys
from dataclasses import dataclass
from itertools import islice
from math import comb, pi


@dataclass
class CroftonMatrix:
    n: int
    entries: list    # n rows of n floats; entry (i, j) at [i-1][j-1]


def _ball_volumes():
    """Unit-ball volumes in dimensions 0, 1, 2, ..., by the two-step recurrence."""
    k, a, b = 0, 1.0, 2.0
    while True:
        yield a
        k += 1
        a, b = b, a * 2.0 * pi / (k + 1)


def ball_volume(k):
    """Volume of the k-dimensional unit ball, via the two-step recurrence."""
    if k < 0:
        raise ValueError(f"ball dimension k={k} below 0")
    return next(islice(_ball_volumes(), k, None))


def crofton_matrix(n):
    if n < 1:
        raise ValueError("crofton matrix needs n >= 1")
    alpha = []
    for k, v in zip(range(n + 1), _ball_volumes()):
        # the entries divide by these volumes; below the normal float
        # range they lose precision and soon reach 0.0
        if v < sys.float_info.min:
            raise ValueError(f"crofton matrix needs n < {k}: the unit-ball "
                             f"volume in dimension {k} is below float range")
        alpha.append(v)
    m = [[0.0] * n for _ in range(n)]
    for i in range(1, n + 1):
        m[i - 1][i - 1] = 1.0
        for j in range(i + 1, n + 1):
            m[i - 1][j - 1] = (alpha[j] / (alpha[j - i] * alpha[i]) * comb(j, i)
                               - alpha[j - 1] / (alpha[j - 1 - i] * alpha[i])
                               * comb(j - 1, i))
    return CroftonMatrix(n=n, entries=m)
