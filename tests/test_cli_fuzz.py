"""Generated ideal files and flags through every `germcone` command.

Every input, well-formed or not, must end in one of the documented exit
codes with no exception out of `main`, SystemExit included.  For `analyze`,
stdout must hold a JSON report exactly when the code is 0 or 4.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import settings, given, strategies as st

from germcone.cli import main
from germcone.parser import MAX_NESTING

NAMES = ["x", "y", "z", "w", "ww", "t_1", "vars", "assume"]

# up to 10^4 digits, past the interpreter's int/str limit of 4300
long_numerals = st.integers(1, 4).map(lambda k: "9" * 10 ** k)
exponents = st.one_of(st.integers(0, 5).map(str),
                      st.sampled_from(["10000", "10001", "1000000000000"]),
                      long_numerals)
numerals = st.one_of(st.integers(0, 12).map(str),
                     st.sampled_from(["007", "3/4", "1/0", "10/3"]),
                     long_numerals)
stray = st.sampled_from([
    "@", "$", "é", "\u00b2", "\u0663", "\t", ";", ",", "/", "^", "(", ")",
    "#", "\n", "*", "--", "1/", " assume pure_dimensional;",
]).map(str.encode) | st.just(b"\xff")   # not UTF-8


@st.composite
def expressions(draw, names):
    atoms = st.one_of(st.sampled_from(names), numerals)
    expr = draw(st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner)
        .map("".join),
        st.tuples(inner, exponents).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda e: f"-{e}"),
    ), max_leaves=6))
    if draw(st.integers(0, 9)) == 0:    # nesting past the limit
        depth = MAX_NESTING + draw(st.integers(0, 2))
        expr = "(" * depth + expr + ")" * depth
    return expr


@st.composite
def ideal_texts(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4))
    header = draw(st.sampled_from([
        "vars {};", "vars {}", "var {};", "vars ;", "{};", "vars {}, x;"]))
    lines = [header.format(", ".join(names))]
    for _ in range(draw(st.integers(0, 3))):
        stmt = draw(expressions(names)) + ";"
        if draw(st.booleans()):
            stmt += "  # a comment; x^99 @"
        lines.append(stmt)
    text = ("\n".join(lines) + "\n").encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(stray) + text[at:]
    return text


def option(draw, name, value):
    """--name=value, or spaced as --name value; argparse reads a spaced
    value that starts with '-', such as -1..0, as a flag: a usage error."""
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@st.composite
def flags(draw):
    argv = ["--budget", str(draw(st.integers(1, 30)))]
    if draw(st.booleans()):
        lo, hi = draw(st.integers(-1, 5)), draw(st.integers(-1, 5))
        argv += option(draw, "--k", f"{lo}..{hi}")
    if draw(st.booleans()):
        argv += ["--lk-exponent", draw(st.sampled_from(["default",
                                                        "paper-display"]))]
    if draw(st.booleans()):
        argv.append("--assume-pure-dimensional")
    return argv


@pytest.fixture(scope="module")
def ideal_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.ideal"


def run_main(argv):
    """main's exit code, stdout and stderr; SystemExit fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            raise AssertionError(f"SystemExit({e.code}) left main") from e
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    # an error names the input, not the interpreter's int/str digit limit
    assert "int_max_str_digits" not in err.getvalue()
    return code, out, err


@settings(max_examples=300, deadline=None)
@given(text=ideal_texts(), argv=flags())
def test_analyze_keeps_the_exit_contract(ideal_path, text, argv):
    ideal_path.write_bytes(text)
    code, out, err = run_main(["analyze", str(ideal_path), *argv])
    if code in (0, 4):
        assert isinstance(json.loads(out.getvalue()), dict)
    else:
        assert out.getvalue() == ""
        # a usage error prints argparse's usage line first
        assert err.getvalue().startswith(("error: ", "usage: "))


# small integers, and values that are not integers or are long
counts = st.one_of(st.integers(-2, 6).map(str),
                   st.sampled_from(["x", "", "1.5", "-1..0"]))
rationals = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "-3/4", "1e308", "1/0", "x", "", "0.25"]),
    long_numerals, long_numerals.map(lambda s: "1/" + s))
SECTIONS = [
    "vars x, y;\nx^2 + y^2 - 1;\n",
    "vars x, y, z;\nx^2 + y^2 - z^2;\n",
    "vars x, y, z;\nx^2 + y^2 + z^2 - 1;\n",
    "vars x, y;\nx;\ny;\n",
    "vars x, y;\nx + ;\n",
]


@st.composite
def family_argv(draw):
    kind = draw(st.sampled_from(["g", "f", "union", "h"]))
    argv = ["family", kind, *option(draw, "--l", draw(counts))]
    for name in ("--n", "--d", "--k"):
        if draw(st.booleans()):
            argv += option(draw, name, draw(counts))
    return argv


@st.composite
def betti0_argv(draw, path):
    box = ",".join(draw(st.lists(rationals, min_size=3, max_size=5)))
    argv = ["betti0", path, *option(draw, "--box", box),
            "--budget", str(draw(st.integers(-1, 400)))]
    if draw(st.booleans()):
        argv += option(draw, "--fix", "z=" + draw(rationals))
    if draw(st.booleans()):
        argv += option(draw, "--res", draw(st.just("auto") | rationals))
    return argv


@st.composite
def crofton_argv(draw):
    return ["crofton", *option(draw, "--n", draw(counts))]


@settings(max_examples=150, deadline=None)
@given(section=st.sampled_from(SECTIONS), data=st.data())
def test_every_command_keeps_the_exit_contract(ideal_path, section, data):
    ideal_path.write_text(section)
    argv = data.draw(st.one_of(family_argv(), betti0_argv(str(ideal_path)),
                               crofton_argv(), st.just(["bogus"]),
                               st.just([])))
    code, out, err = run_main(argv)
    if code not in (0, 4):
        assert err.getvalue(), argv
