"""The stress rows that take at most a few seconds, analyzed in process.

Each row's exit code and (d, mu, s) are pinned; the slow rows are measured
with `tests/stress_inputs.py`, not tested.
"""

import pytest

from stress_inputs import analyze, write_row

from germcone import singular

PINNED = {
    "union(6,4,4,2)": (4, (4, 1, 0)),
    "union(5,3,3,3)": (4, (3, 1, 0)),
    "union(6,4,4,3)": (4, (4, 1, 0)),
    "union(6,3,4,2)": (4, (3, 1, 0)),
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


def test_cylinder_over_a_union_takes_the_certificate(tmp_path, monkeypatch):
    # P(union(5,3,3,2))'s cone leaves one variable free: stripped, the rest
    # is union(5,3,3,2), which the certificate settles with no Q minor and
    # no singular Groebner run
    def trap(*_):
        raise AssertionError("the exact singular path ran")

    for name in ("jacobian_minors", "buchberger"):
        monkeypatch.setattr(singular, name, trap)
    path = tmp_path / "row.ideal"
    write_row("P(union(5,3,3,2))", path)
    _, code, dms, err = analyze(path)
    assert (code, dms) == (4, (4, 1, 1)), err
