"""Case classification and every bound formula the report assembles."""

import math
from dataclasses import dataclass


class Unbounded:
    """Explicit no-bound marker; never a sentinel number."""

    def __repr__(self):
        return "unbounded"


UNBOUNDED = Unbounded()


@dataclass(frozen=True)
class CaseClassification:
    k: int
    case: str              # empty | zero_dim | bounded | unbounded
    pure_dim_source: str   # hypersurface-auto | user-flag | unknown


def classify(n, d, s, k, pure_dim, source=None):
    """Theorem case for section dimension k; pure_dim is True, False or "unknown"."""
    if not 2 <= k <= n - 1:
        raise ValueError(f"k={k} outside the theorem range [2, {n - 1}]")
    if source is None:
        source = "unknown" if pure_dim == "unknown" else "user-flag"
    if pure_dim is True and source == "unknown":
        raise ValueError("a pure-dimensional germ needs a known source")
    if k < n - d:
        case = "empty"
    elif k == n - d:
        case = "zero_dim"
    elif pure_dim is True and k < n - s:
        case = "bounded"
    else:
        case = "unbounded"
    return CaseClassification(k=k, case=case, pure_dim_source=source)


def betti_sum_bound(mu, k, case):
    if mu < 1:
        raise ValueError(f"multiplicity mu={mu} below 1")
    if case == "empty":
        return 0
    if case == "zero_dim":
        return mu
    if case == "bounded":
        return mu * (2 * mu - 1) ** (k - 1)
    if case != "unbounded":
        raise ValueError(f"unknown case {case!r}")
    return UNBOUNDED


def op_bound(degrees, n, l):
    """Degree-based section bound (sum of input degrees, ambient n, section l)."""
    if not 0 <= l < n:
        raise ValueError(f"section dimension l={l} outside [0, {n - 1}]")
    total = sum(degrees)
    return (total + 1) * (2 * total + 1) ** (n - l - 1)


def sigma_bound(mu, n, d, s, l, pure_dim, exponent="default"):
    """Bound for the l-th polar invariant; UNBOUNDED when hypotheses fail."""
    if not 1 <= l <= n:
        raise ValueError(f"l={l} outside [1, {n}]")
    if exponent not in ("default", "paper-display"):
        raise ValueError(f"unknown exponent convention {exponent!r}")
    if l > d:
        return 0
    if l == d:
        return mu
    if s < l and pure_dim is True:
        e = n - l - 1 if exponent == "default" else l - 1
        return mu * (2 * mu - 1) ** e
    return UNBOUNDED


def lipschitz_killing_bound(mu, n, d, s, k, M, pure_dim=True, exponent="default"):
    """Bound for the k-th local Lipschitz-Killing invariant.

    Composes the Crofton matrix row with the sigma bounds; k = d needs no
    hypothesis (the diagonal term alone), smaller k inherits sigma's.
    Raises ValueError when the sum leaves float range.
    """
    if not 1 <= k <= d:
        raise ValueError(f"k={k} outside [1, d={d}]")
    try:
        total = M.entries[k - 1][d - 1] * mu
        for l in range(k, d):
            sb = sigma_bound(mu, n, d, s, l, pure_dim, exponent)
            if sb is UNBOUNDED:
                return UNBOUNDED
            total += M.entries[k - 1][l - 1] * sb
    except OverflowError:    # float * int, with the int beyond float range
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"Lipschitz-Killing bound for k={k} is beyond "
                         "float range")
    return total
