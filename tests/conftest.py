"""Shared pytest plumbing.

The acceptance suite records one line per criterion; the hook below prints
them after the run regardless of capture settings, so a plain `pytest -v`
always shows the pass/fail ledger.

pyproject.toml puts src/ on the path of the pytest process; the tests that
start a fresh interpreter need it in PYTHONPATH as well, so a bare
`python -m pytest` passes without setting it.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

_ACCEPTANCE_LINES = []


def record_acceptance(line):
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
