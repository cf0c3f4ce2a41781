"""Case classification and the bound formulas, against direct arithmetic."""

from math import pi

import pytest

from germcone.bounds import (
    UNBOUNDED, betti_sum_bound, classify, lipschitz_killing_bound, op_bound,
    sigma_bound)
from germcone.crofton import CroftonMatrix, crofton_matrix
from germcone.parser import parse_ideal
from germcone.report import build_report


# --- classification ---

def expected_case(n, d, s, k, pure):
    if k < n - d:
        return "empty"
    if k == n - d:
        return "zero_dim"
    if pure is True and k < n - s:
        return "bounded"
    return "unbounded"


def test_classify_partitions_the_range():
    for n in range(3, 7):
        for d in range(0, n):
            for s in range(-1, d + 1):
                for k in range(2, n):
                    for pure in (True, False, "unknown"):
                        got = classify(n, d, s, k, pure)
                        assert got.case == expected_case(n, d, s, k, pure)
                        assert got.k == k


def test_classify_examples():
    assert classify(5, 2, 0, 2, True).case == "empty"
    assert classify(3, 1, 0, 2, True).case == "zero_dim"
    assert classify(3, 2, 2, 2, True).case == "unbounded"


def test_classify_rejects_out_of_range_k():
    with pytest.raises(ValueError):
        classify(3, 1, 0, 1, True)
    with pytest.raises(ValueError):
        classify(3, 1, 0, 3, True)


def test_classify_source_bookkeeping():
    assert classify(3, 1, 0, 2, "unknown").pure_dim_source == "unknown"
    assert classify(3, 1, 0, 2, True,
                    source="hypersurface-auto").pure_dim_source == \
        "hypersurface-auto"
    # bounded never comes from unknown purity
    for k in range(2, 5):
        got = classify(5, 3, 0, k, "unknown")
        assert got.case != "bounded"


# --- section bound ---

def test_betti_sum_bound_cases():
    assert betti_sum_bound(3, 2, "empty") == 0
    assert betti_sum_bound(3, 2, "zero_dim") == 3
    assert betti_sum_bound(2, 2, "bounded") == 6
    assert betti_sum_bound(5, 1, "bounded") == 5
    assert betti_sum_bound(7, 3, "unbounded") is UNBOUNDED
    for k in range(1, 9):
        assert betti_sum_bound(1, k, "bounded") == 1


def test_betti_sum_bound_formula_bigint():
    for mu in range(1, 11):
        for k in range(1, 9):
            assert betti_sum_bound(mu, k, "bounded") == \
                mu * (2 * mu - 1) ** (k - 1)


def test_betti_sum_bound_monotone():
    for k in range(1, 8):
        for mu in range(1, 10):
            assert betti_sum_bound(mu, k, "bounded") <= \
                betti_sum_bound(mu + 1, k, "bounded")
            assert betti_sum_bound(mu, k, "bounded") <= \
                betti_sum_bound(mu, k + 1, "bounded")


# --- degree-sum baseline ---

def test_op_bound_examples():
    assert op_bound([6, 6, 4], 3, 1) == 17 * 33 == 561
    assert op_bound([1], 2, 1) == 2
    assert op_bound([2, 2], 4, 1) == 405


def test_op_bound_baseline_ratio():
    assert op_bound([6, 6, 4], 3, 1) // 3 == 187


def test_op_bound_range():
    with pytest.raises(ValueError):
        op_bound([1], 2, 2)


# --- polar invariant bounds ---

def test_sigma_at_dimension_is_multiplicity():
    assert sigma_bound(3, 3, 1, 1, 1, True) == 3


def test_sigma_above_dimension_vanishes():
    for l in range(2, 4):
        assert sigma_bound(3, 3, 1, 1, l, True) == 0
    assert sigma_bound(9, 5, 2, 0, 4, False) == 0


def test_sigma_below_dimension():
    assert sigma_bound(2, 4, 3, 0, 2, True) == 2 * 3 ** (4 - 2 - 1) == 6
    # the exponent flag changes the answer once n - l - 1 != l - 1
    assert sigma_bound(2, 5, 4, 0, 2, True) == 2 * 3 ** 2
    assert sigma_bound(2, 5, 4, 0, 2, True, exponent="paper-display") == \
        2 * 3 ** 1


def test_sigma_withholds_without_hypotheses():
    assert sigma_bound(2, 4, 3, 3, 2, True) is UNBOUNDED       # s >= l
    assert sigma_bound(2, 4, 3, 0, 2, "unknown") is UNBOUNDED  # purity unknown
    assert sigma_bound(2, 4, 3, 0, 2, False) is UNBOUNDED


def test_sigma_range():
    with pytest.raises(ValueError):
        sigma_bound(2, 3, 1, 0, 0, True)
    with pytest.raises(ValueError):
        sigma_bound(2, 3, 1, 0, 4, True)


# --- curvature bounds ---

def test_lk_at_top_dimension_is_multiplicity():
    M = crofton_matrix(3)
    assert lipschitz_killing_bound(3, 3, 1, 1, 1, M) == 3.0
    assert lipschitz_killing_bound(4, 3, 2, 0, 2, M) == 4.0


def test_lk_worked_value():
    M = crofton_matrix(3)
    got = lipschitz_killing_bound(2, 3, 2, 0, 1, M)
    assert got == pytest.approx((pi / 2 - 1) * 2 + 6, abs=1e-10)


def test_lk_inherits_sigma_hypotheses():
    M = crofton_matrix(4)
    assert lipschitz_killing_bound(2, 4, 3, 2, 1, M) is UNBOUNDED
    assert lipschitz_killing_bound(2, 4, 3, 2, 3, M) == 2.0


def test_lk_range():
    M = crofton_matrix(4)
    with pytest.raises(ValueError):
        lipschitz_killing_bound(2, 4, 2, 0, 3, M)


@pytest.mark.parametrize("call", [
    lambda: classify(4, 2, 0, 2, True, "unknown"),
    lambda: betti_sum_bound(0, 2, "bounded"),
    lambda: betti_sum_bound(1, 2, "bogus"),
    lambda: sigma_bound(2, 4, 2, 0, 1, True, exponent="bogus"),
], ids=["pure-without-source", "mu-0", "unknown-case", "unknown-exponent"])
def test_bad_arguments_raise_value_error(call):
    # checks that raise, not asserts, so that they hold under python -O
    with pytest.raises(ValueError):
        call()


def test_report_rejects_unknown_exponent_convention():
    ideal = parse_ideal("vars x, y;\nx^2 - y^3;\n")
    with pytest.raises(ValueError):
        build_report(ideal, lk_exponent="bogus")


def test_lk_beyond_float_range_is_a_value_error():
    # x1^20 + ... + x200^20: sigma reaches 20 * 39^197, past any float
    with pytest.raises(ValueError, match="k=1"):
        lipschitz_killing_bound(20, 200, 199, 0, 1, crofton_matrix(200), True)
    # finite terms whose float sum is inf
    M = CroftonMatrix(n=3, entries=[[1.0, 1e308, 0.0],
                                    [0.0, 1.0, 0.0],
                                    [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="k=1"):
        lipschitz_killing_bound(4, 3, 2, 0, 1, M)
