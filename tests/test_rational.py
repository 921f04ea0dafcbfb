import math

import pytest
from hypothesis import given, strategies as st

from imocheck.rational import Rational, ZERO, finite_sum, render

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=99)
nonzero_rationals = rationals.filter(lambda q: q != 0)


def test_make_canonical():
    assert render(Rational(2, 4)) == "1/2"
    assert render(Rational(2, -4)) == "-1/2"
    assert render(Rational(0, 7)) == "0/1"


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30).filter(bool))
def test_canonical_invariants(num, den):
    q = Rational(num, den)
    assert q.denominator > 0
    assert math.gcd(abs(q.numerator), q.denominator) == 1
    assert q * den == num


def test_arithmetic_examples():
    assert Rational(1, 4) + Rational(-1, 3) == Rational(-1, 12)
    assert Rational(1, 2) * ZERO == ZERO
    assert Rational(1, 6) / Rational(1, 6) == Rational(1)
    assert -Rational(3, 5) == Rational(-3, 5)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Rational(1) / ZERO


def test_compare_total_order():
    assert Rational(1, 3) < Rational(1, 2)
    assert Rational(1, 2) == Rational(2, 4)
    assert Rational(-1, 2) > Rational(-2, 3)


def test_render_always_shows_denominator():
    assert render(Rational(-1, 1)) == "-1/1"
    assert render(Rational(1, 12)) == "1/12"
    assert render(ZERO) == "0/1"


@given(rationals, rationals, rationals)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ZERO


@given(nonzero_rationals)
def test_multiplicative_inverse(a):
    assert a * (Rational(1) / a) == Rational(1)


def test_finite_sum_examples():
    assert finite_sum([(1, 1)] * 3) == Rational(3)
    assert finite_sum([]) == ZERO
    assert finite_sum((1, k + 1) for k in range(2)) == Rational(3, 2)
    assert finite_sum([(2, -4)] * 3) == Rational(-3, 2)            # unreduced, negative den


def test_finite_sum_empty_range_is_canonical_zero():
    for terms in ([], iter(())):
        total = finite_sum(terms)
        assert (total.numerator, total.denominator) == (0, 1)
        assert render(total) == "0/1"


@pytest.mark.parametrize("zero_at", [0, 1, 2])
def test_finite_sum_zero_denominator_raises(zero_at):
    for p in (1, 0, -2**4000):                                  # whatever the numerator
        with pytest.raises(ZeroDivisionError):
            finite_sum((p, 0 if k == zero_at else k + 2) for k in range(3))


big = st.integers(-10**40, 10**40)
int_pairs = st.tuples(big, big.filter(bool))
# The A2 regime: numerators of thousands of bits over small denominators.
huge_over_small = st.tuples(st.integers(-2**4000, 2**4000),
                            st.one_of(st.integers(-10**4, -1), st.integers(1, 10**4)))


@given(st.lists(st.one_of(int_pairs, huge_over_small), max_size=30))
def test_finite_sum_equals_a_fraction_fold(terms):
    """Oracle: the integer/remainder split matches a left fold of canonical Fractions.

    The terms come as a one-shot iterator, so a sum that read them twice would fail.
    """
    expected = ZERO
    for p, q in terms:
        expected += Rational(p, q)
    total = finite_sum(iter(terms))
    assert total == expected
    assert (total.numerator, total.denominator) == (expected.numerator, expected.denominator)


def pairs_of(qs):
    """finite_sum's terms for a sequence of Rationals."""
    return map(Rational.as_integer_ratio, qs)


@given(st.lists(rationals, min_size=1, max_size=12))
def test_sum_reindex(fs):
    assert finite_sum(pairs_of(reversed(fs))) == finite_sum(pairs_of(fs))


@given(st.lists(rationals, min_size=1, max_size=12))
def test_sum_remove_zero(fs):
    assert finite_sum(pairs_of(fs)) == fs[0] + finite_sum(pairs_of(fs[1:]))


@given(st.lists(rationals, min_size=1, max_size=12), rationals)
def test_sum_distrib_left(fs, r):
    assert r * finite_sum(pairs_of(fs)) == finite_sum(pairs_of([r * q for q in fs]))


@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=12))
def test_sum_subtract_and_negate(pairs):
    fs = [p[0] for p in pairs]
    gs = [p[1] for p in pairs]
    assert (finite_sum(pairs_of([x - y for x, y in pairs]))
            == finite_sum(pairs_of(fs)) - finite_sum(pairs_of(gs)))
    assert finite_sum(pairs_of([-x for x in fs])) == -finite_sum(pairs_of(fs))
