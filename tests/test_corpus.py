"""The 34-input analyze corpus against the benchmark's seed-0 goldens.

Every report must equal its golden, cone generators included; only the
`input` path and the `versions` strings are left out.  A change to any
pipeline stage that moves a report therefore shows up here.  The inputs
are built as the benchmark builds them at seed 0; the goldens file is only
read.
"""

import json
from pathlib import Path

import pytest

from germcone.cli import main
from germcone.families import (family_f, family_g, family_linear_union,
                               transform_embed, transform_product)
from germcone.hilbert import germ_multiplicity
from germcone.parser import IdealFile, format_ideal, parse_ideal

GOLDENS = Path(__file__).resolve().parents[1] / "bench" / "goldens.json"

WORKED = """\
vars x, y, z;
x*(x - z^3)*(x - 2*z^2);
y*(y - z^3)*(y - 2*z^2);
(x + y)*(x + y - z^3);
"""
POWER = "vars x, y, z;\n(x + y + z + 1)^30 - 1;\n"


def ideal_text(gens):
    return format_ideal(IdealFile(vars=gens[0].vars, generators=gens))


def corpus():
    """(label, ideal text) for every analyze input, labelled as in the goldens."""
    worked = parse_ideal(WORKED).generators
    inputs = [("worked", WORKED), ("power30", POWER),
              ("embed(worked)", ideal_text(transform_embed(worked))),
              ("product(worked)", ideal_text(transform_product(worked)))]
    for args in ((3, 2, 2, 2), (4, 3, 3, 1), (4, 3, 3, 2)):
        label = "union(" + ",".join(map(str, args)) + ")"
        inputs.append((label, ideal_text(family_linear_union(*args))))
    inputs += [(f"g({l})", ideal_text([family_g(l)])) for l in range(2, 7)]
    inputs += [(f"f({n},{l})", ideal_text([family_f(n, l)]))
               for n in range(3, 7) for l in range(2, 7)]
    for label, base in (("product2(g(4))", family_g(4)),
                        ("product2(f(3,4))", family_f(3, 4))):
        inputs.append((label, ideal_text(transform_product(
            transform_product([base])))))
    return inputs


def _drop(report):
    return {k: v for k, v in report.items() if k not in ("input", "versions")}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


def test_corpus_covers_the_goldens(goldens):
    assert sorted(label for label, _ in corpus()) == sorted(goldens["analyze"])


@pytest.mark.parametrize("label, text", [
    pytest.param(label, text, id=label) for label, text in corpus()])
def test_analyze_matches_golden(label, text, goldens, tmp_path, capsys):
    path = tmp_path / "input.ideal"
    path.write_text(text)
    code = main(["analyze", str(path)])
    golden = goldens["analyze"][label]
    assert code == golden["exit"]
    assert _drop(json.loads(capsys.readouterr().out)) == _drop(golden["report"])


@pytest.mark.parametrize("args", [(5, 3, 3, 1), (5, 3, 3, 2)])
def test_multiplicity_matches_golden(args, goldens):
    label = "multiplicity union(" + ",".join(map(str, args)) + ")"
    got = germ_multiplicity(family_linear_union(*args))
    assert list(got) == goldens["multiplicity"][label]
