"""The stress rows that take at most a few seconds, analyzed in process.

Each row's exit code and (d, mu, s) are pinned; the slow rows are measured
with `tests/stress_inputs.py`, not tested.
"""

import pytest

from stress_inputs import analyze, write_row

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
}


@pytest.mark.parametrize("name", list(PINNED))
def test_fast_stress_row(name, tmp_path):
    path = tmp_path / "row.ideal"
    write_row(name, path)
    _, code, dms, err = analyze(path)
    assert (code, dms) == PINNED[name], err
