"""Exact rational arithmetic and finite sums.

The recurrence checks need exact field arithmetic with arbitrary-precision
numerators and denominators (denominators grow super-exponentially, e.g.
a_4 = 19/720 already).  We reuse the standard library's ``fractions.Fraction``,
which keeps values canonical: denominator positive, gcd(|num|, den) = 1, and
zero stored as 0/1.  Structural equality of canonical forms is therefore
plain ``==``, and arithmetic and order are Fraction's own operators; a zero
denominator raises the built-in ZeroDivisionError.

``finite_sum`` takes its terms as an iterable of plain integer pairs
(numerator, denominator) rather than Fractions and builds one canonical
Fraction at the end, so a sum pays a single normalisation instead of one
per term; an empty iterable gives 0/1.  It splits each term p/q into the
integer p // q and the remainder (p % q)/q: the integer parts add as plain
big integers, and only the remainders, each smaller than q, go through lcm
arithmetic.  A term with a huge numerator over a small denominator (the A2
sums) therefore costs one short division and one big-integer addition.  All
operations here are pure and the values immutable, so everything is safe
for unrestricted concurrent use.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

Rational = Fraction

ZERO = Fraction(0)


def render(q: Rational) -> str:
    """Text form "num/den" with the denominator always spelled out.

    Used by CLI output and golden files, e.g. "-1/1" and "1/12".
    """
    return f"{q.numerator}/{q.denominator}"


def finite_sum(terms: Iterable[tuple[int, int]]) -> Rational:
    """Exact sum of the terms, read once in order.

    Each term is an integer pair (p, q) standing for p/q: not necessarily
    reduced, q of either sign but nonzero (a zero q raises
    ZeroDivisionError); ``Rational.as_integer_ratio`` gives one.  Each term
    splits as p/q = p // q + r/q with floor division, so r takes the sign
    of q and |r| < |q|.  The integer parts add up in one plain integer.  The
    remainders add up as an integer pair num/den whose den is, up to sign,
    the lcm of the q of the terms with a nonzero remainder: a remainder
    whose q divides den only adds r * (den // q) to num, any other first
    widens den to the lcm (a negative q may flip den's sign; the final
    Fraction makes it positive).  So the lcm arithmetic never sees a number
    larger than the q's lcm times the term count, however large the p.  The
    canonical Fraction is built once, from the final integer and pair.  An
    empty iterable yields 0/1.
    """
    whole, num, den = 0, 0, 1
    for p, q in terms:
        i, r = divmod(p, q)
        whole += i
        if r:
            m, rem = divmod(den, q)
            if rem:
                g = gcd(den, q)
                num, den = num * (q // g) + r * (den // g), den // g * q
            else:
                num += r * m
    return Fraction(whole * den + num, den)
