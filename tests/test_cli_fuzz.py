"""Generated ideal files and flags through `germcone analyze`.

Every input, well-formed or not, must end in one of the documented exit
codes with no exception out of `main`, and stdout must hold a JSON report
exactly when the code is 0 or 4.
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


@st.composite
def flags(draw):
    argv = ["--budget", str(draw(st.integers(1, 30)))]
    if draw(st.booleans()):
        lo, hi = draw(st.integers(-1, 5)), draw(st.integers(-1, 5))
        argv.append(f"--k={lo}..{hi}")   # "--k -1..0" reads -1..0 as a flag
    if draw(st.booleans()):
        argv += ["--lk-exponent", draw(st.sampled_from(["default",
                                                        "paper-display"]))]
    if draw(st.booleans()):
        argv.append("--assume-pure-dimensional")
    return argv


@pytest.fixture(scope="module")
def ideal_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.ideal"


@settings(max_examples=300, deadline=None)
@given(text=ideal_texts(), argv=flags())
def test_analyze_keeps_the_exit_contract(ideal_path, text, argv):
    ideal_path.write_bytes(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["analyze", str(ideal_path), *argv])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    if code in (0, 4):
        assert isinstance(json.loads(out.getvalue()), dict)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
