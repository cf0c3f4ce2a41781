"""Stress inputs beyond the frozen benchmark: plane unions and their
product (P) and embedding (E) transforms.

ROWS maps each input, named as ROADMAP.md's stress table names it, to a
builder of its generators; tests/test_stress.py runs every row in process.
Run as a script,

    PYTHONPATH=src python tests/stress_inputs.py [--repeat R] [NAME ...]

it runs `analyze` in process on each named row (all rows by default) and
prints one JSON line per row: the best of R wall times, the exit code and
(d, mu, s), and the best of R times spent in the m-primary certificate
(singular._m_primary, timed by wrapping it) with whether it fired or
declined, the rows it ranked and the rank they reached (singular._insert,
counted by wrapping it), and the counts of linear generators and free
variables that the singular stage strips (singular._strip, wrapped too);
each is null when the row never reached it.
"""

import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from germcone import singular
from germcone.cli import main
from germcone.families import (family_linear_union as u, transform_embed as E,
                               transform_product as P)
from germcone.parser import IdealFile, format_ideal

ROWS = {
    "union(6,4,4,2)": lambda: u(6, 4, 4, 2),
    "union(5,3,3,3)": lambda: u(5, 3, 3, 3),
    "union(6,4,4,3)": lambda: u(6, 4, 4, 3),
    "union(6,3,4,2)": lambda: u(6, 3, 4, 2),
    "union(7,4,4,2)": lambda: u(7, 4, 4, 2),
    "E(E(union(5,3,3,2)))": lambda: E(E(u(5, 3, 3, 2))),
    "P(union(5,3,3,2))": lambda: P(u(5, 3, 3, 2)),
    "P(P(u(4,3,3,2)))": lambda: P(P(u(4, 3, 3, 2))),
    "E(P(u(4,3,3,2)))": lambda: E(P(u(4, 3, 3, 2))),
    "P(E(u(4,3,3,2)))": lambda: P(E(u(4, 3, 3, 2))),
    "P(u(5,3,3,1))": lambda: P(u(5, 3, 3, 1)),
}


def write_row(name, path):
    """Write row name's ideal file to path."""
    gens = ROWS[name]()
    path.write_text(format_ideal(IdealFile(vars=gens[0].vars,
                                           generators=gens)))


def analyze(path):
    """(seconds, exit code, (d, mu, s) or None, stderr) of one in-process
    `analyze` of the ideal file at path."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["analyze", str(path)])
    seconds = time.perf_counter() - start
    dms = None
    if code in (0, 4):
        report = json.loads(out.getvalue())
        dms = (report["dimension_d"], report["multiplicity_mu"],
               report["singular_dimension_s"])
    return seconds, code, dms, err.getvalue()


def _run(names, repeat):
    certificates = []       # (seconds, fired) of each certificate call
    strips = []             # {"linear": r, "free": k} of each strip
    ranked = []             # whether each row ranked added a rank
    real, strip, insert = singular._m_primary, singular._strip, singular._insert

    def timed(*args):
        start = time.perf_counter()
        fired = real(*args)
        certificates.append((time.perf_counter() - start, fired))
        return fired

    def counted(gens):
        rest, r, k = strip(gens)
        strips.append({"linear": r, "free": k})
        return rest, r, k

    def recorded(pivots, row):
        ranked.append(insert(pivots, row))
        return ranked[-1]

    singular._m_primary, singular._strip = timed, counted
    singular._insert = recorded
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name in names:
                path = Path(tmp) / "row.ideal"
                write_row(name, path)
                runs, calls = [], []
                for _ in range(repeat):
                    certificates.clear()
                    strips.clear()
                    ranked.clear()
                    runs.append(analyze(path))
                    calls.append(list(certificates))
                seconds, code, dms, err = min(runs)
                cert_s = min(sum(t for t, _ in c) for c in calls)
                decisions = {fired for c in calls for _, fired in c}
                print(json.dumps({
                    "input": name, "analyze_s": round(seconds, 3),
                    "exit": code, "dms": dms,
                    "certificate_s": round(cert_s, 4) if decisions else None,
                    "certificate": ("fired" if True in decisions else
                                    "declined" if decisions else None),
                    "rows_ranked": len(ranked) if decisions else None,
                    "rank": sum(ranked) if decisions else None,
                    "stripped": strips[0] if strips else None,
                    "error": err.strip() or None}), flush=True)
    finally:
        singular._m_primary, singular._strip = real, strip
        singular._insert = insert


if __name__ == "__main__":
    args = sys.argv[1:]
    repeat = 1
    if args[:1] == ["--repeat"]:
        repeat, args = int(args[1]), args[2:]
    unknown = [a for a in args if a not in ROWS]
    if unknown:
        sys.exit(f"unknown rows {unknown}; known: {list(ROWS)}")
    _run(args or list(ROWS), repeat)
