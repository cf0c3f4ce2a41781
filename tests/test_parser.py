"""Grammar, error positions, and the format/parse round trip."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import terms_dict

from germcone.parser import (MAX_BITS, MAX_DEGREE, MAX_DIGITS, MAX_NESTING,
                             MAX_TERMS, IdealFile, ParseError, format_ideal,
                             parse_ideal)
from germcone.polyring import GREVLEX, Polynomial

WORKED = """\
vars x, y, z;
x*(x - z^3)*(x - 2*z^2);
y*(y - z^3)*(y - 2*z^2);
(x + y)*(x + y - z^3);
"""


def test_worked_input_parses():
    ideal = parse_ideal(WORKED, source="worked")
    assert ideal.vars == ("x", "y", "z")
    assert [g.degree() for g in ideal.generators] == [6, 6, 4]
    assert ideal.assume_pure_dimensional is False
    assert ideal.source == "worked"


def test_expansion_is_exact():
    ideal = parse_ideal("vars x, y;\n(x + y)^3;\n")
    f = ideal.generators[0]
    x = Polynomial.variable(("x", "y"), "x")
    y = Polynomial.variable(("x", "y"), "y")
    assert f == (x + y) * (x + y) * (x + y)


def test_rational_coefficients():
    f = parse_ideal("vars x;\n2/3*x - 1/6;\n").generators[0]
    assert terms_dict(f) == {(1,): Fraction(2, 3), (0,): Fraction(-1, 6)}


def test_assume_directive():
    ideal = parse_ideal("vars x, y;\nassume pure_dimensional;\nx*y;\n")
    assert ideal.assume_pure_dimensional is True


def test_comments_and_unary_minus():
    text = "vars x, y;  # two variables\n-x^2 - -y;  # note the double minus\n"
    f = parse_ideal(text).generators[0]
    x = Polynomial.variable(("x", "y"), "x")
    y = Polynomial.variable(("x", "y"), "y")
    assert f == y - x * x


def test_sum_is_folded_in_one_pass(monkeypatch):
    def refuse(self, other):
        raise AssertionError("a sum was built pairwise")

    monkeypatch.setattr(Polynomial, "__add__", refuse)
    f = parse_ideal("vars x, y;\nx*y + 2*x - (y^2 - x) - 3*x;\n").generators[0]
    assert terms_dict(f) == {(1, 1): 1, (0, 2): -1}
    assert [m for m, _ in f.terms] == [(1, 1), (0, 2)]


small_summands = st.lists(st.tuples(
    st.sampled_from(["+", "-"]),
    st.sampled_from(["1", "x^7", "3/2*x*y*z^3", "y^8", "x*y*z", "z^6", "x",
                     "y*z^5", "2*x^2*y^2*z^2", "x^5*z"])), max_size=4)


@given(st.sampled_from(["+", "-"]), small_summands)
def test_few_terms_placed_into_a_large_summand(sign, small):
    # (x + y + z + 1)^6 holds 84 terms, so a sum of it and at most four
    # others takes the bisection route; the others land on its terms
    # (- 1 and - z^6 cancel one), on each other, or on new monomials
    big = "(x + y + z + 1)^6"
    text = (sign + " " if sign == "-" else "") + big + "".join(
        f" {s} {t}" for s, t in small)
    got = parse_ideal(f"vars x, y, z;\n{text};\n").generators[0]
    want = parse_ideal(f"vars x, y, z;\n{big};\n").generators[0]
    if sign == "-":
        want = -want
    for s, t in small:
        t = parse_ideal(f"vars x, y, z;\n{t};\n").generators[0]
        want = want + t if s == "+" else want - t
    assert got.terms == want.terms


def test_large_sum_is_not_sorted_again(monkeypatch):
    # each order binds its key when built; the parser's is GREVLEX's
    calls = []
    key = GREVLEX.key

    def counted(m):
        calls.append(1)
        return key(m)

    monkeypatch.setattr(GREVLEX, "key", counted)
    power = parse_ideal("vars x, y, z;\n(x + y + z + 1)^30;\n").generators[0]
    power_calls = len(calls)
    f = parse_ideal("vars x, y, z;\n(x + y + z + 1)^30 - 1;\n").generators[0]
    # the same sort as the power alone, and one key for the constant 1
    assert len(calls) - power_calls <= power_calls + 1
    assert f.terms == (power - 1).terms and len(f.terms) == 5455


def test_zero_exponent():
    gens = parse_ideal("vars x;\nx^0;\n").generators
    assert gens[0] == Polynomial.constant(("x",), 1)


def test_zero_to_the_zero_in_a_product():
    f, = parse_ideal("vars x;\nx^2*0^0;\n").generators
    assert f.terms == (((2,), Fraction(1)),)


# --- single-term factors against the general grammar ---

# A term of variables, numerals and nat/nat, each maybe to a power, is
# multiplied out as one monomial; the same factors in parentheses go through
# Polynomial arithmetic.  Numerals and their exponents stay small, so that
# the bit caps, which bound a group by its reduced value and a bare nat/nat
# by its written one, never come near; degrees reach past MAX_DEGREE.
single_bases = st.one_of(
    st.sampled_from(["x", "y", "z"]),
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(0, 4)).map(
        lambda nd: f"{nd[0]}/{nd[1]}"))
single_factors = st.tuples(single_bases, st.one_of(
    st.none(), st.integers(0, 6),
    st.sampled_from([MAX_DEGREE // 2, MAX_DEGREE, MAX_DEGREE + 1]))).filter(
    lambda be: be[0][0].isalpha() or be[1] is None or be[1] <= 6)
monomial_terms = st.lists(single_factors, min_size=1, max_size=5)


def _spell(term, wrap):
    return "*".join((f"({b})" if wrap else b) + ("" if e is None else f"^{e}")
                    for b, e in term)


def _generators_or_message(text):
    try:
        gens = parse_ideal(text).generators
    except ParseError as e:
        return e.message
    assert all(type(c) is Fraction for g in gens for _, c in g.terms)
    return [g.terms for g in gens]


@given(st.booleans(), monomial_terms,
       st.lists(st.tuples(st.sampled_from([" + ", " - "]), monomial_terms),
                max_size=4))
def test_single_term_factors_match_the_general_grammar(lead, first, rest):
    texts = []
    for wrap in (False, True):
        body = ("-" if lead else "") + _spell(first, wrap) + "".join(
            op + _spell(t, wrap) for op, t in rest)
        texts.append(f"vars x, y, z;\n{body};\n")
    assert _generators_or_message(texts[0]) == _generators_or_message(texts[1])


@pytest.mark.parametrize("text,line,col,fragment", [
    ("vars x;\nx + ;\n", 2, 5, "expected variable"),
    ("vars x, x;\nx;\n", 1, 1, "duplicate variable"),
    ("vars x;\n", 2, 1, "no generators"),
    ("vars x;\nx @ x;\n", 2, 3, "unexpected character '@'"),
    ("vars x;\nx^\u00b2;\n", 2, 3, "unexpected character '\u00b2'"),
    ("vars x;\ny;\n", 2, 1, "unknown variable 'y'"),
    ("vars x;\n1/0*x;\n", 2, 1, "zero denominator"),
    ("vars x;\n2x;\n", 2, 2, "expected ';'"),
    ("x^2;\n", 1, 2, "expected 'vars' header"),
    ("vars x;\nx^2\n", 3, 1, "expected ';'"),
    ("vars x;\n" + "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)
     + ";\n", 2, MAX_NESTING + 1, "nested more than"),
    ("vars x;\n" + "-" * (MAX_NESTING + 1) + "x;\n", 2, MAX_NESTING + 1,
     "nested more than"),
    ("vars x;\nx^99999999999;\n", 2, 2, f"exceeds {MAX_DEGREE}"),
    ("vars x, y;\n(x+y)^99999999999;\n", 2, 6, f"exceeds {MAX_DEGREE}"),
    (f"vars x, y;\nx^{MAX_DEGREE // 2}*y^{MAX_DEGREE // 2 + 1};\n", 2, 7,
     f"degree {MAX_DEGREE + 1} exceeds"),
    ("vars x, y, z, w;\n(x+y+z+w)^30*(x+y+z+w)^30;\n", 2, 13,
     f"more than {MAX_TERMS} terms"),
    ("vars x, y, z, w;\n(x+y+z+w)^200;\n", 2, 10, f"more than {MAX_TERMS} terms"),
    ("vars x;\n(10^100*x + 1)^2000;\n", 2, 15, f"exceed {MAX_BITS} bits"),
    ("vars x, y;\nx*3^1000000 + y^2;\n", 2, 4, f"exceed {MAX_BITS} bits"),
    ("vars x, y;\nx*3^99999999999 + y^2;\n", 2, 4, f"exceed {MAX_BITS} bits"),
    ("vars x;\n10^30000*10^30000*x;\n", 2, 9, f"exceed {MAX_BITS} bits"),
    ("vars x;\n9^" + "9" * 999 + "*x;\n", 2, 2, f"exceed {MAX_BITS} bits"),
    ("vars x;\nx^" + "9" * 5000 + ";\n", 2, 2, f"exceeds {MAX_DEGREE}"),
    ("vars x;\n" + "7" * (MAX_DIGITS + 1) + "*x;\n", 2, 1,
     f"numeral of more than {MAX_DIGITS} digits"),
    ("vars x;\nx^" + "9" * (MAX_DIGITS + 1) + ";\n", 2, 3,
     f"numeral of more than {MAX_DIGITS} digits"),

    # a zero coefficient still counts the degree of its factors
    ("vars x;\n0*x^9999*(x^2);\n", 2, 9, f"degree {MAX_DEGREE + 1} exceeds"),
    ("vars x;\n0*x^9999*x^2;\n", 2, 9, f"degree {MAX_DEGREE + 1} exceeds"),
])
def test_error_positions(text, line, col, fragment):
    with pytest.raises(ParseError) as exc:
        parse_ideal(text)
    assert exc.value.line == line
    assert exc.value.col == col
    assert fragment in exc.value.message
    assert str(exc.value).startswith(f"line {line}, col {col}: ")


def test_nesting_up_to_the_limit_parses():
    x = Polynomial.variable(("x",), "x")
    # 25 parentheses and 25 unary minuses, alternating
    fifty = "(-" * 25 + "x" + ")" * 25
    assert parse_ideal(f"vars x;\n{fifty};\n").generators[0] == -x
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_ideal(f"vars x;\n{deepest};\n").generators[0] == x


def test_degree_up_to_the_limit_parses():
    x = Polynomial.variable(("x", "y"), "x")
    y = Polynomial.variable(("x", "y"), "y")
    half = MAX_DEGREE // 2
    f, g, h = parse_ideal(f"vars x, y;\nx^{MAX_DEGREE};\nx^{half}*y^{half};\n"
                          f"10^400*x^{MAX_DEGREE};\n").generators
    assert f == x ** MAX_DEGREE and f.degree() == MAX_DEGREE
    assert g.degree() == MAX_DEGREE and h.degree() == MAX_DEGREE


def test_terms_below_the_limit_parse():
    # C(33, 3) = 5456 terms, the bound the power is checked against
    f, = parse_ideal("vars x, y, z;\n(x+y+z+1)^30;\n").generators
    assert len(f.terms) == 5456


def test_long_coefficients_below_the_limit_parse():
    # 10^5000 has 16 610 bits and 5001 digits, more than the interpreter
    # turns from or into a str by default; 10^30000 has 99 658 bits
    y = Polynomial.variable(("x", "y"), "y")
    f, g = parse_ideal("vars x, y;\nx + 10^5000*y;\n"
                       "1" + "0" * 30000 + "*y + 10^30000*y;\n").generators
    assert f.terms[1] == ((0, 1), 10 ** 5000)
    assert g == 2 * 10 ** 30000 * y


def test_long_coefficients_round_trip():
    ideal = parse_ideal("vars x, y;\nx + (10^5000 + 7)*y;\n")
    text = format_ideal(ideal)
    assert text == "vars x, y;\nx + 1" + "0" * 4999 + "7*y;\n"
    assert parse_ideal(text).generators == ideal.generators


def test_star_is_mandatory():
    with pytest.raises(ParseError):
        parse_ideal("vars x, y;\nx y;\n")
    with pytest.raises(ParseError):
        parse_ideal("vars x, y;\n2(x + y);\n")


# --- round trip ---

names = st.sampled_from([("x",), ("x", "y"), ("x", "y", "z")])


@st.composite
def ideal_files(draw):
    vars = draw(names)
    coeff = st.fractions(min_value=-6, max_value=6,
                         max_denominator=5).filter(lambda q: q != 0)
    mono = st.tuples(*(st.integers(0, 3) for _ in vars))
    poly = st.builds(
        lambda d: Polynomial(vars, d),
        st.dictionaries(mono, coeff, min_size=1, max_size=4))
    gens = draw(st.lists(poly.filter(lambda p: not p.is_zero()),
                         min_size=1, max_size=3))
    assume = draw(st.booleans())
    return IdealFile(vars=vars, generators=gens,
                     assume_pure_dimensional=assume)


@given(ideal_files())
def test_format_parse_round_trip(ideal):
    text = format_ideal(ideal)
    back = parse_ideal(text)
    assert back.vars == ideal.vars
    assert back.generators == ideal.generators
    assert back.assume_pure_dimensional == ideal.assume_pure_dimensional


def test_format_layout():
    x = Polynomial.variable(("x",), "x")
    text = format_ideal(IdealFile(vars=("x",), generators=[x * x - x]))
    assert text == "vars x;\nx^2 - x;\n"
