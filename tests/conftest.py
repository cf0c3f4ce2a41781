"""Shared pytest plumbing.

The acceptance suite records one line per criterion; the hook below prints
them after the run regardless of capture settings, so a plain `pytest -v`
always shows the pass/fail ledger.

pyproject.toml puts src/ on the path of the pytest process, and pytest puts
tests/ there for the helper modules beside the tests.  The tests that start
a fresh interpreter need both in PYTHONPATH as well, so a bare
`python -m pytest` passes without setting it.
"""

import os
from pathlib import Path

_TESTS = Path(__file__).resolve().parent
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(_TESTS.parent / "src"), str(_TESTS),
                os.environ.get("PYTHONPATH")) if p)

_ACCEPTANCE_LINES = []


def record_acceptance(line):
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
