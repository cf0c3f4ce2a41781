"""Exact multivariate polynomial arithmetic over Q with pluggable monomial orders."""

import heapq
import operator
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm


# --- monomials are plain exponent tuples ---

def m_mul(a, b):
    return tuple(map(operator.add, a, b))


def m_divides(a, b):
    """True if a divides b componentwise."""
    return all(map(operator.le, a, b))


def m_div(a, b):
    """Quotient a/b, caller guarantees divisibility."""
    return tuple(map(operator.sub, a, b))


def m_lcm(a, b):
    return tuple(map(max, a, b))


def m_deg(a):
    return sum(a)


def fresh_name(vars):
    """A variable name, made of w's, that is not among vars."""
    name = "w"
    while name in vars:
        name += "w"
    return name


# kind: (key, desc_key); ascending in desc_key is descending in key
_KEYS = {
    "grevlex": (lambda m: (sum(m), tuple(map(operator.neg, reversed(m)))),
                lambda m: (-sum(m), tuple(reversed(m)))),
    "gradedfirst": (
        lambda m: (sum(m), m[0], tuple(map(operator.neg, reversed(m[1:])))),
        lambda m: (-sum(m), -m[0], tuple(reversed(m[1:])))),
}


class MonomialOrder:
    """Total multiplicative order on exponent tuples: grevlex or gradedfirst.

    Both are degree-compatible.  gradedfirst is graded with the first
    variable dominating inside each degree, then grevlex on the rest; it is
    the order of the homogenized cone computation.  key and desc_key are
    bound when the order is built: a min-heap on desc_key pops the largest
    monomial first.
    """

    __slots__ = ("kind", "key", "desc_key")

    def __init__(self, kind):
        if kind not in _KEYS:
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self.key, self.desc_key = _KEYS[kind]

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"MonomialOrder({self.kind!r})"


GREVLEX = MonomialOrder("grevlex")
GRADED_FIRST = MonomialOrder("gradedfirst")


class Polynomial:
    """Immutable polynomial: vars, order, and terms sorted descending.

    Every coefficient in terms is a nonzero Fraction on its own monomial, so
    division by a coefficient is exact.  The constructor validates and
    combines its input; results computed here go through _trusted instead.
    The integer form of the terms is cached in _ints by _numerators.
    """

    __slots__ = ("vars", "order", "terms", "_ints")

    def __init__(self, vars, terms, order=GREVLEX):
        self.vars = tuple(vars)
        self.order = order
        n = len(self.vars)
        combined = {}
        for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
            mono = tuple(mono)
            if len(mono) != n:
                raise ValueError(f"exponent tuple {mono} does not match "
                                 f"variables {self.vars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = combined.get(mono, 0) + Fraction(coeff)
            if c:
                combined[mono] = c
            elif mono in combined:
                del combined[mono]
        self.terms = tuple(sorted(combined.items(),
                                  key=lambda t: order.key(t[0]), reverse=True))

    @classmethod
    def _trusted(cls, vars, terms, order, ordered=False):
        """Internal: terms are (monomial, nonzero Fraction) pairs on distinct
        monomials of the right length, already descending when ordered."""
        self = object.__new__(cls)
        self.vars = vars
        self.order = order
        if ordered:
            self.terms = tuple(terms)
        else:
            key = order.key
            self.terms = tuple(sorted(terms, key=lambda t: key(t[0]),
                                      reverse=True))
        return self

    # --- constructors ---

    @classmethod
    def zero(cls, vars, order=GREVLEX):
        return cls(vars, {}, order)

    @classmethod
    def constant(cls, vars, c, order=GREVLEX):
        return cls(vars, {(0,) * len(vars): Fraction(c)}, order)

    @classmethod
    def variable(cls, vars, name, order=GREVLEX):
        i = tuple(vars).index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {mono: Fraction(1)}, order)

    # --- predicates and accessors ---

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(m_deg(m) == 0 for m, _ in self.terms)

    def constant_value(self):
        assert self.is_constant()
        return self.terms[0][1] if self.terms else Fraction(0)

    def terms_dict(self):
        return dict(self.terms)

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self):
        return self.leading_term()[0]

    def leading_coeff(self):
        return self.leading_term()[1]

    def degree(self):
        """Total degree, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m_deg(m) for m, _ in self.terms)

    def min_degree(self):
        """Order of vanishing at the origin, -1 for zero."""
        if not self.terms:
            return -1
        return min(m_deg(m) for m, _ in self.terms)

    def is_homogeneous(self):
        degs = {m_deg(m) for m, _ in self.terms}
        return len(degs) <= 1

    # --- arithmetic ---

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise ValueError(f"mixed variable tuples {other.vars} and "
                                 f"{self.vars}")
            if other.order != self.order:
                raise ValueError("mixed orders, convert explicitly")
            return other
        return Polynomial.constant(self.vars, other, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        d = dict(self.terms)
        for mono, coeff in other.terms:
            c = d.get(mono, 0) + coeff
            if c:
                d[mono] = c
            elif mono in d:
                del d[mono]
        return Polynomial._trusted(self.vars, d.items(), self.order)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.vars, [(m, -c) for m, c in self.terms],
                                   self.order, ordered=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    # Products run on integer numerators over each operand's common
    # denominator; one Fraction is built per output term.  A one-term
    # operand only shifts and scales the other's terms.

    def __mul__(self, other):
        other = self._coerce(other)
        if len(other.terms) == 1:
            return self.scale_term(*other.terms[0])
        if len(self.terms) == 1:
            return other.scale_term(*self.terms[0])
        den_a, ints_a = _numerators(self)
        den_b, ints_b = _numerators(other)
        return _from_ints(self.vars, _int_mul(ints_a, ints_b), den_a * den_b,
                          self.order)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a natural number, not {e!r}")
        if len(self.terms) == 1:
            (m, c), = self.terms
            return Polynomial._trusted(self.vars, [(tuple(a * e for a in m),
                                                    c ** e)],
                                       self.order, ordered=True)
        if not self.terms or e == 0:
            return Polynomial.constant(self.vars, 1 if e == 0 else 0,
                                       self.order)
        # Peel the leading term t off: (t + g)^e = sum C(e, k) t^(e-k) g^k.
        # g^k comes from repeated products by g, which beat squaring on a
        # sparse base; each is smaller than the power of t + g it replaces.
        # A direct multinomial expansion is far slower on dense bases.
        den, base = _numerators(self)
        (lead, c0), g = base[0], base[1:]
        add = operator.add
        out = {}
        get = out.get
        g_k = {(0,) * len(self.vars): 1}
        coeff = c0 ** e                   # C(e, k) * c0^(e - k)
        for k in range(e):
            shift = tuple(a * (e - k) for a in lead)
            for m, c in g_k.items():
                m = tuple(map(add, m, shift))
                out[m] = get(m, 0) + coeff * c
            coeff = coeff * (e - k) // ((k + 1) * c0)
            if k + 1 < e:
                g_k = _int_mul(g_k.items(), g)
        # the k = e term, g^e with coefficient 1, is summed in as it is made
        return _from_ints(self.vars, _int_mul(g_k.items(), g, out),
                          den ** e, self.order)

    def scale_term(self, mono, coeff):
        """Multiply by the single term coeff * x^mono."""
        coeff = Fraction(coeff)
        if not coeff:
            return Polynomial._trusted(self.vars, (), self.order, ordered=True)
        mono = tuple(mono)
        return Polynomial._trusted(
            self.vars, [(m_mul(m, mono), c * coeff) for m, c in self.terms],
            self.order, ordered=True)

    def monic(self):
        if not self.terms:
            return self
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return Polynomial._trusted(self.vars, [(m, c / lc) for m, c in self.terms],
                                   self.order, ordered=True)

    # --- structure maps ---

    def with_order(self, order):
        if order == self.order:
            return self
        return Polynomial._trusted(self.vars, self.terms, order)

    def with_vars(self, newvars):
        """Reinterpret in a ring whose variables include the current ones."""
        newvars = tuple(newvars)
        pos = [newvars.index(v) for v in self.vars]
        n = len(newvars)
        terms = []
        for m, c in self.terms:
            mm = [0] * n
            for i, e in enumerate(m):
                mm[pos[i]] = e
            terms.append((tuple(mm), c))
        return Polynomial._trusted(newvars, terms, self.order)

    def derivative(self, name):
        # m -> m - e_i is injective and, the orders being multiplicative,
        # keeps the order of the terms it keeps
        i = self.vars.index(name)
        return Polynomial._trusted(
            self.vars, [(m[:i] + (m[i] - 1,) + m[i + 1:], c * m[i])
                        for m, c in self.terms if m[i]],
            self.order, ordered=True)

    def substitute(self, assignments):
        """Pin named variables to rational constants, dropping them from the ring."""
        for name in assignments:
            if name not in self.vars:
                raise ValueError(f"unknown variable {name!r}")
        keep = [i for i, v in enumerate(self.vars) if v not in assignments]
        vals = {i: Fraction(assignments[v]) for i, v in enumerate(self.vars)
                if v in assignments}
        d = {}
        for m, c in self.terms:
            for i, val in vals.items():
                if m[i] and val != 1:
                    c = c * val ** m[i]
            if c == 0:
                continue
            mono = tuple(m[i] for i in keep)
            cc = d.get(mono, 0) + c
            if cc:
                d[mono] = cc
            elif mono in d:
                del d[mono]
        return Polynomial._trusted(tuple(self.vars[i] for i in keep), d.items(),
                                   self.order)

    def evaluate(self, point):
        """Exact value at a rational point given as {name: value}."""
        total = Fraction(0)
        vals = [Fraction(point[v]) for v in self.vars]
        for m, c in self.terms:
            for i, e in enumerate(m):
                if e:
                    c = c * vals[i] ** e
            total += c
        return total

    # --- equality ignores the attached order ---

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if self.is_constant():
                return self.constant_value() == other
            return NotImplemented
        return self.vars == other.vars and dict(self.terms) == dict(other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms)))

    # --- printing, parseable by the input grammar ---

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            factors = []
            for v, e in zip(self.vars, mono):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            a = abs(coeff)
            if not factors:
                body = _frac_str(a)
            elif a == 1:
                body = "*".join(factors)
            else:
                body = _frac_str(a) + "*" + "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial<{self}>"


def _int_str(n):
    """str(n), also past the interpreter's limit on int-to-str digits."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _frac_str(c):
    num = _int_str(c.numerator)
    return num if c.denominator == 1 else f"{num}/{_int_str(c.denominator)}"


def _numerators(p):
    """(den, [(m, c * den)]) over p's terms, for the least common denominator
    den of its coefficients; computed once per polynomial."""
    try:
        return p._ints
    except AttributeError:
        terms = p.terms
        den = lcm(*(c.denominator for _, c in terms))
        p._ints = den, [(m, c.numerator * (den // c.denominator))
                        for m, c in terms]
        return p._ints


def _int_mul(a, b, out=None):
    """Product of two integer term lists, plus the {monomial: int} out when
    given, as {monomial: nonzero int}."""
    out = {} if out is None else out
    get = out.get
    add = operator.add
    for m1, c1 in a:
        for m2, c2 in b:
            m = tuple(map(add, m1, m2))
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _from_ints(vars, numerators, den, order):
    """The polynomial sum(c / den * x^m) over numerators {m: nonzero c}."""
    return Polynomial._trusted(
        vars, [(m, Fraction(c, den)) for m, c in numerators.items()], order)


def divide(f, divisors, order):
    """Multivariate division of f by divisors, as the pair (None, r).

    Divisors are tried in list order at every step.  No monomial of the
    remainder r is divisible by any divisor's leading monomial.  Only r is
    built, since no caller reads a quotient; the pair stays because
    bench/hooks.py reads the remainder at index 1.

    The dividend is held as integers over one denominator D.  Reducing a
    lead numerator a by a divisor with lead numerator L scales the dividend,
    the remainder and D by L / gcd(a, L), so every step stays integral; one
    Fraction is built per remainder term, at the end.
    """
    if any(d.is_zero() for d in divisors):
        raise ValueError("zero divisor")
    divs = []
    for d in divisors:
        (lm, lc), *tail = _numerators(d.with_order(order))[1]
        divs.append((lm, lc, tail))
    D, p = _numerators(f)
    p = dict(p)
    dkey = order.desc_key
    heap = [(dkey(m), m) for m in p]
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, p.get
    add, le = operator.add, operator.le
    remainder = {}
    while heap:
        mono = pop(heap)[1]
        # a monomial never comes back once popped, so cancelled ones stay in
        # p as 0 and each monomial enters the heap once
        a = p.pop(mono)
        if not a:
            continue
        for lm, lc, tail in divs:
            if all(map(le, lm, mono)):
                g = gcd(a, lc)
                s, b = lc // g, a // g
                if s != 1:
                    D *= s
                    for m in p:
                        p[m] *= s
                    for m in remainder:
                        remainder[m] *= s
                q = m_div(mono, lm)
                for m2, c2 in tail:
                    mm = tuple(map(add, q, m2))
                    c = get(mm)
                    if c is None:
                        p[mm] = -b * c2
                        push(heap, (dkey(mm), mm))
                    else:
                        p[mm] = c - b * c2
                break
        else:
            remainder[mono] = a
    return None, Polynomial._trusted(
        f.vars, [(m, Fraction(c, D)) for m, c in remainder.items()], order,
        ordered=True)
