"""Multivariate division on Fractions, term by term, as a test reference.

`polyring.divide` builds only the remainder; this reference also keeps the
quotients, so a test can check that f equals r plus the quotients times the
divisors.
"""

from germcone.polyring import m_divides


def ref_divide(f, divisors, order):
    """The division loop term by term on Fractions: the largest remaining
    monomial is found by a scan, and each step divides by the lead."""
    quotients = [{} for _ in divisors]
    remainder = {}
    lead = [d.with_order(order) for d in divisors]
    p = dict(f.terms)
    while p:
        mono = max(p, key=order.key)
        coeff = p.pop(mono)
        for i, d in enumerate(lead):
            lm, lc = d.leading_term()
            if m_divides(lm, mono):
                q = tuple(a - b for a, b in zip(mono, lm))
                factor = coeff / lc
                quotients[i][q] = factor
                for m2, c2 in d.terms[1:]:
                    mm = tuple(a + b for a, b in zip(q, m2))
                    c = p.get(mm, 0) - factor * c2
                    if c:
                        p[mm] = c
                    elif mm in p:
                        del p[mm]
                break
        else:
            remainder[mono] = coeff
    return quotients, remainder
