"""Inputs, operations and output checks of the germcone benchmark workloads.

A workload is a list of operations.  One pass runs each operation once, in
an order the seed picks.  For seeds other than 0, every analyze input also
goes through a change of coordinates x -> U S x: U is the fixed unit
upper-triangular change x0 -> x0 + x1 + x2, x1 -> x1 + x2, and S flips the
sign of each coordinate the seed picks.  Seed 0 is the identity.  d, mu and
s are invariant under a linear change of coordinates, so every report field
except the cone generators is checked against the seed-0 goldens whatever
the seed.

The seed picks only the signs so that it does not set the cost.  A sign flip
maps every step of the computation, Groebner bases included, to the same
step on terms of the same size, so all seeds but 0 cost the same; the
entries of U would not (with entries drawn from 1..2, analyze of
embed(worked) cost up to 30% more than with all entries 1).  U itself is
kept narrow:
- Only the first three coordinates are mixed.  Every base germ has at least
  three, and mixing the separable tails of family_f or the coordinates a
  transform adds turns f(6, 6) from a 15-term input into a dense one that
  takes minutes.
- Its entries are positive.  A negative entry can cancel a variable out of
  a sum such as x + y + z, and (x + y + z + 1)^30 then parses several times
  faster.

`germcone.families` only generates inputs; nothing it does is timed.
"""

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from germcone import cli, hilbert, numtopo
from germcone.families import (family_f, family_g, family_linear_union,
                               transform_embed, transform_product)
from germcone.numtopo import SectionSpec
from germcone.parser import IdealFile, format_ideal, parse_ideal

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "goldens.json")

WORKED = """\
vars x, y, z;
x*(x - z^3)*(x - 2*z^2);
y*(y - z^3)*(y - 2*z^2);
(x + y)*(x + y - z^3);
"""
POWER = "vars x, y, z;\n(x + y + z + 1)^30 - 1;\n"

# The six criterion-6 sections: family, l, pinned variable and value, box,
# base depth and the minimum component count.  Each runs at three
# refinements, base depth + 0, 1, 2.
SECTIONS = [
    ("g", 2, ("z", Fraction(1, 4)), ("-1/8", "1/8", "-1/8", "1/8"), 8, 2),
    ("g", 3, ("z", Fraction(1, 4)), ("-1/8", "1/8", "-1/8", "1/8"), 13, 4),
    ("g", 4, ("z", Fraction(1, 2)), ("-5/16", "5/16", "-5/16", "5/16"), 15, 6),
    ("f", 2, ("y", Fraction(1, 10)), ("0", "2/5", "-1/10", "1/10"), 6, 2),
    ("f", 3, ("y", Fraction(1, 10)), ("0", "3/5", "-1/10", "1/10"), 9, 3),
    ("f", 4, ("y", Fraction(1, 10)), ("0", "4/5", "-1/10", "1/10"), 11, 4),
]

# union(5,3,3,l) is a d = 3 plane and l planes of dimension 2 in 5-space,
# meeting only at 0: by construction d = 3, mu = 1 and s = 0.
LARGE_UNION_EXPECTED = {"dimension_d": 3, "multiplicity_mu": 1,
                        "singular_dimension_s": 0}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class Op:
    label: str
    kind: str                   # analyze, multiplicity, section, large-union,
                                # betti0 or family: selects the check
    call: Callable[[], object]  # the timed call
    key: str = ""               # goldens entry
    expect: object = None       # minimum count, or the known answer
    deadline: bool = False      # runs under the large-union deadline


@dataclass
class Workload:
    ops: list
    setup_argv: list            # CLI command on the smallest input
    setup: Op                   # checks the output of setup_argv
    notes: dict = field(default_factory=dict)


def load_goldens():
    with open(GOLDENS) as fh:
        return json.load(fh)


def ideal_text(gens):
    return format_ideal(IdealFile(vars=gens[0].vars, generators=gens))


def apply_change(text, rng, expand):
    """The input under the seed's change, and the signs it drew ("" at seed 0).

    With expand, the result is written back out expanded, as `germcone
    family` writes its inputs; otherwise the input keeps its written form
    (the large power must stay a power for the parser to do its work).
    """
    if rng is None:
        return text, ""
    header, body = text.split(";", 1)
    names = [v.strip() for v in header.split(None, 1)[1].split(",")]
    signs = "".join(rng.choice("+-") for _ in names)
    signed = {v: v if s == "+" else "(-" + v + ")" for v, s in zip(names, signs)}
    images = dict(signed)
    images[names[0]] = _sum(signed[v] for v in names[:3])
    images[names[1]] = _sum(signed[v] for v in names[1:3])
    body = _IDENT.sub(lambda m: images.get(m.group(0), m.group(0)), body)
    changed = header + ";" + body
    return (format_ideal(parse_ideal(changed)) if expand else changed), signs


def _sum(terms):
    return "(" + " + ".join(terms) + ")"


def cli_run(argv):
    """In-process `germcone <argv>`: exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _drop(report, exact):
    dropped = {"input", "versions"} if exact else {
        "input", "versions", "tangent_cone_generators"}
    return {k: v for k, v in report.items() if k not in dropped}


def _check_report(result, golden, exact):
    code, text = result
    if code != golden["exit"]:
        return f"exit code {code}, want {golden['exit']}"
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    got, want = _drop(report, exact), _drop(golden["report"], exact)
    if got != want:
        bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return "report differs in " + ", ".join(bad)
    return ""


def _check_large_union(result):
    code, text = result
    if code not in (0, 4):
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    got = {k: report.get(k) for k in LARGE_UNION_EXPECTED}
    return "" if got == LARGE_UNION_EXPECTED else f"got {got}"


def check(op, result, goldens, exact):
    """Message describing a wrong answer, or "" for a right one.

    exact is true at seed 0, where the cone generators are compared too.
    """
    if op.kind == "analyze":
        return _check_report(result, goldens["analyze"][op.key], exact)
    if op.kind == "multiplicity":
        want = tuple(goldens["multiplicity"][op.key])
        return "" if tuple(result) == want else f"(d, mu) = {tuple(result)}, want {want}"
    if op.kind == "section":
        want = goldens["sections"][op.key]
        if result.count < op.expect:
            return f"count {result.count} below the minimum {op.expect}"
        if result.count != want:
            return f"count {result.count}, want {want} at every refinement"
        return ""
    if op.kind == "betti0":
        code, out = result
        want = goldens["sections"][op.key]
        return "" if (code, out.strip()) == (0, str(want)) else \
            f"betti0 gave exit {code}, output {out.strip()!r}"
    if op.kind == "family":
        return "" if result == (0, op.expect) else f"family gave exit {result[0]}"
    assert op.kind == "large-union", op.kind
    return _check_large_union(result)


class _Inputs:
    """Writes analyze inputs under the work directory, changed by the seed."""

    def __init__(self, seed, workdir):
        self.rng = None if seed == 0 else random.Random(seed)
        self.workdir = workdir
        self.changes = {}
        self.paths = {}
        os.makedirs(workdir, exist_ok=True)

    def write(self, label, text, expand=True):
        """Writes one analyze input under the seed's change."""
        text, self.changes[label] = apply_change(text, self.rng, expand)
        return self.write_plain(label, text)

    def write_plain(self, label, text):
        name = re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_") + ".ideal"
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        self.paths[label] = path
        return path


def _analyze(inputs, label, text, expand=True, kind="analyze"):
    argv = ["analyze", inputs.write(label, text, expand)]
    return Op(label, kind, lambda: cli_run(argv), key=label,
              deadline=kind == "large-union")


def _union(args):
    return "union(" + ",".join(map(str, args)) + ")"


def multigen(inputs):
    worked = parse_ideal(WORKED).generators
    ops = [
        _analyze(inputs, "worked", WORKED, expand=False),
        _analyze(inputs, "embed(worked)", ideal_text(transform_embed(worked))),
        _analyze(inputs, "product(worked)", ideal_text(transform_product(worked))),
    ]
    for args in ((3, 2, 2, 2), (4, 3, 3, 1), (4, 3, 3, 2)):
        ops.append(_analyze(inputs, _union(args),
                            ideal_text(family_linear_union(*args))))
    for args in ((5, 3, 3, 1), (5, 3, 3, 2)):
        label = "multiplicity " + _union(args)
        gens = family_linear_union(*args)
        ops.append(Op(label, "multiplicity",
                      lambda g=gens: hilbert.germ_multiplicity(g), key=label))
    return Workload(ops, ["analyze", inputs.paths["worked"]], ops[0])


def hypersurface(inputs):
    ops = [_analyze(inputs, f"g({l})", ideal_text([family_g(l)]))
           for l in range(2, 7)]
    ops += [_analyze(inputs, f"f({n},{l})", ideal_text([family_f(n, l)]))
            for n in range(3, 7) for l in range(2, 7)]
    for label, base in (("product2(g(4))", family_g(4)),
                        ("product2(f(3,4))", family_f(3, 4))):
        gens = transform_product(transform_product([base]))
        ops.append(_analyze(inputs, label, ideal_text(gens)))
    ops.append(_analyze(inputs, "power30", POWER, expand=False))
    smallest = next(op for op in ops if op.label == "f(3,2)")
    return Workload(ops, ["analyze", inputs.paths["f(3,2)"]], smallest)


def section_label(kind, l, pin):
    return f"{kind}(l={l}) {pin[0]}={pin[1]}"


def sections(inputs):
    ops = []
    for kind, l, pin, box, depth, need in SECTIONS:
        f = family_g(l) if kind == "g" else family_f(3, l)
        corners = tuple(Fraction(v) for v in box)
        label = section_label(kind, l, pin)
        for extra in range(3):
            spec = SectionSpec(f=f, fixed_assignments={pin[0]: pin[1]},
                               box=corners, resolution=(corners[1] - corners[0])
                               / 2 ** (depth + extra))
            ops.append(Op(f"{label} depth+{extra}", "section",
                          lambda s=spec: numtopo.count_components(s),
                          key=label, expect=need))
    kind, l, pin, box, depth, need = SECTIONS[3]
    path = inputs.write_plain("section " + section_label(kind, l, pin),
                              ideal_text([family_f(3, l)]))
    width = Fraction(box[1]) - Fraction(box[0])
    argv = ["betti0", path, "--fix", f"{pin[0]}={pin[1]}",
            "--box=" + ",".join(box), "--res", str(width / 2 ** depth)]
    setup = Op("betti0", "betti0", lambda: cli_run(argv),
               key=section_label(kind, l, pin))
    return Workload(ops, argv, setup)


def large_union(inputs):
    ops = [_analyze(inputs, _union(args), ideal_text(family_linear_union(*args)),
                    kind="large-union")
           for args in ((5, 3, 3, 1), (5, 3, 3, 2))]
    argv = ["family", "union", "--n", "5", "--d", "3", "--k", "3", "--l", "1"]
    setup = Op("family", "family", lambda: cli_run(argv),
               expect=ideal_text(family_linear_union(5, 3, 3, 1)))
    return Workload(ops, argv, setup)


BUILDERS = {"multigen": multigen, "hypersurface": hypersurface,
            "sections": sections, "large-union": large_union}


def build(name, seed, workdir):
    """The workload's operations in the seed's order, inputs written to workdir."""
    inputs = _Inputs(seed, workdir)
    workload = BUILDERS[name](inputs)
    random.Random(seed).shuffle(workload.ops)
    workload.notes = {"coordinate_changes": inputs.changes,
                      "order": [op.label for op in workload.ops]}
    return workload
