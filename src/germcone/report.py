"""Assembles the full analysis report for one ideal file."""

import platform

from . import __version__
from .bounds import (UNBOUNDED, betti_sum_bound, classify,
                     lipschitz_killing_bound, op_bound, sigma_bound)
from .crofton import crofton_matrix
from .groebner import PAIR_BUDGET, tangent_cone
from .hilbert import hilbert_series, leading_ideal
from .singular import singular_dimension


def _emitted(bound):
    return "unbounded" if bound is UNBOUNDED else bound


def build_report(ideal, k_range=None, lk_exponent="default",
                 assume_pure_dimensional=False, budget=PAIR_BUDGET):
    """Runs the whole pipeline; k_range is an inclusive (lo, hi) clip."""
    if lk_exponent not in ("default", "paper-display"):
        raise ValueError(f"unknown exponent convention {lk_exponent!r}")
    gens = list(ideal.generators)
    names = ideal.vars
    n = len(names)
    degrees = [g.degree() for g in gens]
    # a zero generator (degree -1) cuts nothing: the baseline and the
    # principal-ideal test read the others
    cutting = [e for e in degrees if e >= 0]

    cone = tangent_cone(gens, budget)
    hd = hilbert_series(leading_ideal(cone.generators), n)
    d, mu = hd.dim_affine, hd.degree
    s = singular_dimension(cone, n, d, budget=budget)

    pure_flag = assume_pure_dimensional or ideal.assume_pure_dimensional
    if len(cutting) == 1:
        pure, source = True, "hypersurface-auto"
    elif pure_flag:
        pure, source = True, "user-flag"
    else:
        pure, source = "unknown", "unknown"

    lo, hi = 2, n - 1
    if k_range is not None:
        lo, hi = max(lo, k_range[0]), min(hi, k_range[1])
    per_k = []
    for k in range(lo, hi + 1):
        c = classify(n, d, s, k, pure, source)
        per_k.append({"k": k, "case": c.case,
                      "betti_sum_bound": _emitted(betti_sum_bound(mu, k, c.case))})

    M = crofton_matrix(n)
    sigma_rows = [{"l": l,
                   "bound": _emitted(sigma_bound(mu, n, d, s, l, pure,
                                                 exponent=lk_exponent))}
                  for l in range(1, n + 1)]
    lk_rows = []
    for k in range(1, n + 1):
        if k > d:
            lk_rows.append({"k": k, "bound": 0.0})
            continue
        b = lipschitz_killing_bound(mu, n, d, s, k, M,
                                    pure_dim=pure, exponent=lk_exponent)
        lk_rows.append({"k": k, "bound": _emitted(b)})

    return {
        "input": ideal.source,
        "n": n,
        "vars": list(names),
        "degrees": degrees,
        "tangent_cone_generators": [str(g) for g in cone.generators],
        "dimension_d": d,
        "multiplicity_mu": mu,
        "singular_dimension_s": s,
        "pure_dimensional": {"value": pure, "source": source},
        "per_k": per_k,
        "sigma_bounds": sigma_rows,
        "lk_bounds": lk_rows,
        "density_bound": mu,
        "op_baseline_density": op_bound(cutting, n, d),
        "flags": {"assume_pure_dimensional": bool(pure_flag),
                  "lk_exponent": lk_exponent,
                  "k_range": f"{lo}..{hi}" if lo <= hi else "empty"},
        "versions": {"germcone": __version__,
                     "python": platform.python_version()},
    }


def report_has_unbounded(report):
    """True when any bound field carries the no-bound marker."""
    def scan(v):
        if isinstance(v, dict):
            return any(scan(x) for x in v.values())
        if isinstance(v, list):
            return any(scan(x) for x in v)
        return v == "unbounded"
    return any(scan(report[key])
               for key in ("per_k", "sigma_bounds", "lk_bounds"))
