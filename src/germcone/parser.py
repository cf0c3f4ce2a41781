"""Ideal-file parsing and canonical report serialization.

Input format: a "vars" header naming the ambient coordinates, then one
polynomial statement per ';'.  '#' starts a comment.  An optional
"assume pure_dimensional;" statement sets the corresponding flag.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
import json
from math import log2

from .polyring import (GREVLEX, Polynomial, _frac_str, _int_str, _numerators,
                       m_deg)


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass
class IdealFile:
    vars: tuple
    generators: list
    assume_pure_dimensional: bool = False
    source: str = "<memory>"


_PUNCT = set("+-*^(),;")
MAX_NESTING = 100    # levels of '(' and unary '-'; each costs recursion frames
MAX_DEGREE = 10 ** 4  # total degree of a power or product; constants are free
MAX_TERMS = 10 ** 5   # bound on the terms of a power or product
MAX_BITS = 10 ** 5    # bits of a coefficient's numerator or denominator
MAX_DIGITS = 30102    # digits of a numeral: 10^30102 < 2^MAX_BITS


def _tokenize(text):
    """Yield (kind, value, line, col); kinds: ident, nat, punct, slash."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], line, col))
            col += i - start
        elif "0" <= ch <= "9":      # not str.isdigit, which takes '²'
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            tokens.append(("nat", text[start:i], line, col))
            col += i - start
        elif ch in _PUNCT:
            tokens.append(("punct", ch, line, col))
            i += 1
            col += 1
        elif ch == "/":
            tokens.append(("slash", ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        kind, value, line, col = self.peek()
        shown = value if kind != "eof" else "end of input"
        raise ParseError(f"{message} (got {shown!r})", line, col)

    def expect_punct(self, ch):
        kind, value, _, _ = self.peek()
        if kind == "punct" and value == ch:
            return self.next()
        self.fail(f"expected {ch!r}")

    def expect_ident(self):
        kind, value, _, _ = self.peek()
        if kind == "ident":
            return self.next()[1]
        self.fail("expected identifier")

    def expect_nat(self):
        kind, value, line, col = self.peek()
        if kind != "nat":
            self.fail("expected natural number")
        self.next()
        if len(value) > MAX_DIGITS and len(value.lstrip("0")) > MAX_DIGITS:
            raise ParseError(f"numeral of more than {MAX_DIGITS} digits",
                             line, col)
        try:
            return int(value)
        except ValueError:   # past the interpreter's int-from-str limit
            return int(Decimal(value))

    def at_punct(self, ch):
        kind, value, _, _ = self.peek()
        return kind == "punct" and value == ch

    # grammar: file := header stmt+ ; header := "vars" ident ("," ident)* ";"
    def parse_file(self):
        head = self.expect_ident()
        if head != "vars":
            self.fail("expected 'vars' header")
        names = [self.expect_ident()]
        while self.at_punct(","):
            self.next()
            names.append(self.expect_ident())
        self.expect_punct(";")
        if len(set(names)) != len(names):
            raise ParseError("duplicate variable name", 1, 1)
        self.vars = tuple(names)
        self.variables = {v: Polynomial.variable(self.vars, v, GREVLEX)
                          for v in self.vars}

        generators = []
        assume_pure = False
        while self.peek()[0] != "eof":
            kind, value, _, _ = self.peek()
            if kind == "ident" and value == "assume":
                self.next()
                word = self.expect_ident()
                if word != "pure_dimensional":
                    self.fail("unknown assumption")
                self.expect_punct(";")
                assume_pure = True
                continue
            generators.append(self.parse_expr())
            self.expect_punct(";")
        if not generators:
            kind, value, line, col = self.peek()
            raise ParseError("no generators", line, col)
        return self.vars, generators, assume_pure

    def parse_expr(self):
        first = self.parse_term()
        if not (self.at_punct("+") or self.at_punct("-")):
            return first
        summands = [first]
        while self.at_punct("+") or self.at_punct("-"):
            minus = self.next()[1] == "-"
            term = self.parse_term()
            summands.append(-term if minus else term)
        return _fold_sum(self.vars, summands)

    def parse_term(self):
        acc, size = self.parse_factor()
        degree = _degree(acc)
        while self.at_punct("*"):
            star = self.next()
            factor, factor_size = self.parse_factor()
            degree += _degree(factor)
            if degree > MAX_DEGREE:
                raise _too_high(degree, star)
            if len(acc.terms) * len(factor.terms) > MAX_TERMS:
                raise _too_many(star)
            size += factor_size
            if size >= MAX_BITS:
                raise _too_long(star)
            acc = acc * factor
        return acc

    # parse_factor and parse_base return a value with a bound on its
    # _log2_size, carried along so that no operand is measured again

    def parse_factor(self):
        base, size = self.parse_base()
        if self.at_punct("^"):
            caret = self.next()
            e = self.expect_nat()
            degree = _degree(base) * e
            if degree > MAX_DEGREE:
                raise _too_high(degree, caret)
            if _power_terms(len(base.terms), e) > MAX_TERMS:
                raise _too_many(caret)
            if size:                # e * size may pass float range
                if e >= MAX_BITS / size:
                    raise _too_long(caret)
                size *= e
            return base ** e, size
        return base, size

    def parse_base(self):
        kind, value, line, col = self.peek()
        if kind == "ident":
            self.next()
            if value not in self.variables:
                raise ParseError(f"unknown variable {value!r}", line, col)
            return self.variables[value], 0.0
        if kind == "nat":
            num = self.expect_nat()
            if self.peek()[0] == "slash":
                self.next()
                den = self.expect_nat()
                if den == 0:
                    raise ParseError("zero denominator", line, col)
                return (Polynomial.constant(self.vars, Fraction(num, den),
                                            GREVLEX), log2(max(num, den)))
            return Polynomial.constant(self.vars, num, GREVLEX), log2(num or 1)
        if kind == "punct" and value in ("(", "-"):
            if self.depth == MAX_NESTING:
                raise ParseError(f"expression nested more than {MAX_NESTING} "
                                 "levels", line, col)
            self.next()
            self.depth += 1
            if value == "(":
                inner = self.parse_expr()
                self.expect_punct(")")
                size = _log2_size(inner)
            else:
                inner, size = self.parse_factor()
                inner = -inner
            self.depth -= 1
            return inner, size
        self.fail("expected variable, number, '(' or '-'")


def _degree(p):
    """Total degree of a parsed polynomial, read off its grevlex leading term.

    The zero polynomial counts as a constant: degree 0.
    """
    return m_deg(p.terms[0][0]) if p.terms else 0


def _too_high(degree, token):
    """The error for a power or product past MAX_DEGREE, at its operator."""
    return ParseError(f"degree {_int_str(degree)} exceeds {MAX_DEGREE}",
                      token[2], token[3])


def _power_terms(k, e):
    """C(e + k - 1, k - 1), the most terms a k-term base to the e can have,
    built up only until it passes MAX_TERMS.

    Each C(e + k - 1, i) with i <= min(e, k - 1) is at least 2^i, so this
    takes at most 17 steps.
    """
    bound = 1
    for i in range(1, min(e, k - 1) + 1):
        if bound > MAX_TERMS:
            break
        bound = bound * (e + k - i) // i
    return bound


def _too_many(token):
    """The error for a power or product past MAX_TERMS, at its operator."""
    return ParseError(f"more than {MAX_TERMS} terms", token[2], token[3])


def _log2_size(p):
    """log2 of the larger of the 1-norm of p's integer numerators and their
    common denominator.

    A product's coefficients have numerators and denominators at most the
    product of its factors' sizes, and a power's at most its base's size to
    the e, so this bounds a result's bits before any arithmetic.
    """
    den, ints = _numerators(p)
    return log2(max(sum(abs(c) for _, c in ints), den))


def _too_long(token):
    """The error for a power or product whose coefficients may pass
    MAX_BITS, at its operator."""
    return ParseError(f"a coefficient may exceed {MAX_BITS} bits",
                      token[2], token[3])


def _fold_sum(vars, summands):
    """The sum of the summands, built in one pass, not pairwise.

    All terms go into one dict and are sorted once.  When one summand holds
    nearly all the terms, as in (x + y + z + 1)^30 - 1, the few others are
    placed into its sorted terms by bisection instead of sorting them all.
    """
    # by position: a variable's summands are one shared object
    i_big = max(range(len(summands)), key=lambda i: len(summands[i].terms))
    big = summands.pop(i_big)
    n = len(big.terms)
    rest = [t for f in summands for t in f.terms]
    if len(rest) * n.bit_length() < n:
        terms = list(big.terms)
        dkey = GREVLEX.desc_key
        for m, c in rest:
            i = bisect_left(terms, dkey(m), key=lambda t: dkey(t[0]))
            if i < len(terms) and terms[i][0] == m:
                c += terms[i][1]
                if c:
                    terms[i] = (m, c)
                else:
                    del terms[i]
            else:
                terms.insert(i, (m, c))
        return Polynomial._trusted(vars, terms, GREVLEX, ordered=True)
    acc = dict(big.terms)
    get = acc.get
    for mono, coeff in rest:
        acc[mono] = get(mono, 0) + coeff
    return Polynomial._trusted(vars, [(m, c) for m, c in acc.items() if c],
                               GREVLEX)


def parse_ideal(text, source="<memory>"):
    """Parse an ideal file into variables, generators, and flags."""
    p = _Parser(text)
    vars, generators, assume_pure = p.parse_file()
    return IdealFile(vars=vars, generators=generators,
                     assume_pure_dimensional=assume_pure, source=source)


def format_ideal(ideal):
    """Render an IdealFile back to input syntax; parses to the same content."""
    lines = ["vars " + ", ".join(ideal.vars) + ";"]
    if ideal.assume_pure_dimensional:
        lines.append("assume pure_dimensional;")
    for g in ideal.generators:
        lines.append(str(g) + ";")
    return "\n".join(lines) + "\n"


# --- report serialization ---

def _emit(value, indent, out):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            assert isinstance(k, str), k
            out.append(pad + "  " + json.dumps(k) + ": ")
            _emit(v, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(value):
            out.append(pad + "  ")
            _emit(v, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(value, bool) or value is None:
        out.append(json.dumps(value))
    elif isinstance(value, int):
        out.append(_int_str(value))
    elif isinstance(value, float):
        out.append(_float_repr(value))
    elif isinstance(value, Fraction):
        out.append(json.dumps(_frac_str(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _float_repr(x):
    """12 significant digits, always a valid JSON number."""
    assert x == x and x not in (float("inf"), float("-inf")), x
    s = f"{x:.12g}"
    return s


def emit_report(report):
    """Serialize a report dict to deterministic JSON text."""
    out = []
    _emit(report, 0, out)
    out.append("\n")
    return "".join(out)
