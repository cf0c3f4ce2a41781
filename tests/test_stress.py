"""The stress rows, analyzed in process.

Each row's exit code and (d, mu, s) are pinned; `tests/stress_inputs.py`
measures their times.
"""

import pytest

from stress_inputs import analyze, write_row

from germcone import singular

PINNED = {
    "union(6,4,4,2)": (4, (4, 1, 0)),
    "union(5,3,3,3)": (4, (3, 1, 0)),
    "union(6,4,4,3)": (4, (4, 1, 0)),
    "union(6,3,4,2)": (4, (3, 1, 0)),
    "union(7,4,4,2)": (4, (4, 1, 0)),
    "P(P(u(4,3,3,2)))": (4, (5, 1, 2)),
    "E(P(u(4,3,3,2)))": (4, (4, 1, 1)),
    "P(E(u(4,3,3,2)))": (4, (4, 1, 1)),
    "P(u(5,3,3,1))": (4, (4, 1, 1)),
    "P(union(5,3,3,2))": (4, (4, 1, 1)),
    "E(E(union(5,3,3,2)))": (4, (3, 1, 0)),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_fast_stress_row(name, tmp_path):
    path = tmp_path / "row.ideal"
    write_row(name, path)
    _, code, dms, err = analyze(path)
    assert (code, dms) == PINNED[name], err


def _analyze_without_exact_path(name, tmp_path, monkeypatch):
    def trap(*_):
        raise AssertionError("the exact singular path ran")

    for attr in ("jacobian_minors", "buchberger"):
        monkeypatch.setattr(singular, attr, trap)
    path = tmp_path / "row.ideal"
    write_row(name, path)
    _, code, dms, err = analyze(path)
    return code, dms, err


def test_cylinder_over_a_union_takes_the_certificate(tmp_path, monkeypatch):
    # P(union(5,3,3,2))'s cone leaves one variable free: stripped, the rest
    # is union(5,3,3,2), which the certificate settles with no Q minor and
    # no singular Groebner run
    code, dms, err = _analyze_without_exact_path("P(union(5,3,3,2))",
                                                 tmp_path, monkeypatch)
    assert (code, dms) == (4, (4, 1, 1)), err


def test_union_7442_takes_the_certificate(tmp_path, monkeypatch):
    # c = 3 and 44 cone generators: 463 540 minors, past MINOR_CAP, so only
    # the certificate can settle s = 0
    code, dms, err = _analyze_without_exact_path("union(7,4,4,2)",
                                                 tmp_path, monkeypatch)
    assert (code, dms) == (4, (4, 1, 0)), err
