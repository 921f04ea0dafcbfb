"""Exact rational arithmetic and finite sums.

The recurrence checks need exact field arithmetic with arbitrary-precision
numerators and denominators (denominators grow super-exponentially, e.g.
a_4 = 19/720 already).  We reuse the standard library's ``fractions.Fraction``,
which keeps values canonical: denominator positive, gcd(|num|, den) = 1, and
zero stored as 0/1.  Structural equality of canonical forms is therefore
plain ``==``, and arithmetic and order are Fraction's own operators; a zero
denominator raises the built-in ZeroDivisionError.  All
operations here are pure and the values immutable, so everything is safe for
unrestricted concurrent use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

Rational = Fraction

ZERO = Fraction(0)


def render(q: Rational) -> str:
    """Text form "num/den" with the denominator always spelled out.

    Used by CLI output and golden files, e.g. "-1/1" and "1/12".
    """
    return f"{q.numerator}/{q.denominator}"


def finite_sum(f: Callable[[int], Rational], lo: int, hi: int) -> Rational:
    """Exact sum of f(lo), ..., f(hi-1) over the half-open range [lo, hi).

    Folds left to right.  Order cannot change the exact value, but fixing it
    makes traces reproducible.  An empty range yields 0/1.
    """
    total = ZERO
    for k in range(lo, hi):
        total += f(k)
    return total
