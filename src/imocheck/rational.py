"""Exact rational arithmetic and finite sums.

The recurrence checks need exact field arithmetic with arbitrary-precision
numerators and denominators (denominators grow super-exponentially, e.g.
a_4 = 19/720 already).  We reuse the standard library's ``fractions.Fraction``,
which keeps values canonical: denominator positive, gcd(|num|, den) = 1, and
zero stored as 0/1.  Structural equality of canonical forms is therefore
plain ``==``, and arithmetic and order are Fraction's own operators; a zero
denominator raises the built-in ZeroDivisionError.

``finite_sum`` takes its terms as plain integer pairs (numerator,
denominator) rather than Fractions, adds them over the lcm of their
denominators and builds one canonical Fraction at the end, so a sum pays a
single normalisation instead of one per term.  All operations here are
pure and the values immutable, so everything is safe for unrestricted
concurrent use.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable

Rational = Fraction

ZERO = Fraction(0)


def render(q: Rational) -> str:
    """Text form "num/den" with the denominator always spelled out.

    Used by CLI output and golden files, e.g. "-1/1" and "1/12".
    """
    return f"{q.numerator}/{q.denominator}"


def finite_sum(f: Callable[[int], tuple[int, int]], lo: int, hi: int) -> Rational:
    """Exact sum of f(lo), ..., f(hi-1) over the half-open range [lo, hi).

    Each f(k) is an integer pair (p, q) standing for p/q: not necessarily
    reduced, q of either sign but nonzero (a zero q raises
    ZeroDivisionError); ``Rational.as_integer_ratio`` gives one.  The running
    total is an integer pair num/den whose den is, up to sign, the lcm of
    the denominators seen so far: a term whose q divides den only adds
    p * (den // q) to num, any other term first widens den to the lcm.  The
    canonical Fraction is built once, from the final pair.  An empty range
    yields 0/1.
    """
    num, den = 0, 1
    for k in range(lo, hi):
        p, q = f(k)
        m, r = divmod(den, q)
        if r:
            g = gcd(den, q)
            num, den = num * (q // g) + p * (den // g), den // g * q
        else:
            num += p * m
    return Fraction(num, den)
