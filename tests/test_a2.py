import math

import pytest

from imocheck import a2
from imocheck.errors import PreconditionFailedError
from imocheck.rational import Rational, ZERO
from imocheck.report import first_failure

# hand-computed prefix: each term solves the defining relation in turn
EXPECTED = [Rational(-1), Rational(1, 2), Rational(1, 12), Rational(1, 24),
            Rational(19, 720), Rational(3, 160), Rational(863, 60480)]


def test_initial():
    seq = a2.A2Sequence.initial()
    assert (seq.scale, seq.numerators) == (1, (-1,))
    assert seq.values == (Rational(-1),)
    assert seq.last_index == 0


def test_values_are_built_once_per_prefix():
    seq = a2.build(5)
    assert seq.values is seq.values


def test_extend_matches_hand_values():
    seq = a2.A2Sequence.initial()
    for n, expected in enumerate(EXPECTED[1:], start=1):
        seq = a2.extend(seq)
        assert seq.values[n] == expected, f"a_{n}"


def test_build_matches_a_fraction_fold_recurrence():
    """Oracle: the relation solved term by term with one Fraction per term."""
    values = [Rational(-1)]
    for n in range(120):
        tail = ZERO
        for k in range(1, n + 2):
            tail += values[n + 1 - k] / (k + 1)
        values.append(-tail)
    assert a2.build(120).values == tuple(values)


def test_build_matches_the_gregory_reference(perfbench_oracles):
    """Oracle: the benchmark's Gregory-coefficient terms, which share no code with imocheck."""
    assert a2.build(400).values == tuple(perfbench_oracles.GregoryReference().terms(400))


def test_scale_is_the_lcm_of_the_prefix_denominators():
    """A scale wider than the lcm keeps every value right but bloats every later sum term."""
    seq = a2.A2Sequence.initial()
    for n in range(1, 121):
        seq = a2.extend(seq)
        assert seq.scale == math.lcm(*(v.denominator for v in seq.values)), f"a_{n}"


def test_base_case_is_one_half():
    assert a2.build(1).values[1] == Rational(1, 2)


def test_closed_form_examples():
    assert a2.closed_form_next(a2.build(1)) == Rational(1, 12)
    assert a2.closed_form_next(a2.build(2)) == Rational(1, 24)
    assert a2.closed_form_next(a2.build(3)) == Rational(19, 720)


def test_closed_form_needs_two_terms():
    with pytest.raises(PreconditionFailedError):
        a2.closed_form_next(a2.A2Sequence.initial())


def test_closed_form_equals_recurrence():
    seq = a2.build(60)
    for n in range(1, 60):
        prefix = a2.A2Sequence(seq.scale, seq.numerators[:n + 1])
        assert a2.closed_form_next(prefix) == seq.values[n + 1], f"n={n}"


def test_residual_is_exactly_zero():
    seq = a2.build(40)
    for m in range(1, 41):
        assert a2.recurrence_residual(seq, m) == ZERO


def test_positivity():
    seq = a2.build(100)
    assert all(v > ZERO for v in seq.values[1:])


def test_verify_passes():
    assert list(a2.verify(50)) == [None] * 50      # one result per index 1..50


def test_verify_failure_counts_the_indices_before_it(monkeypatch):
    closed_form = a2.closed_form_next
    monkeypatch.setattr(a2, "closed_form_next",
                        lambda seq: Rational(7) if seq.last_index == 4 else closed_form(seq))
    rep = first_failure("a2.verify", {}, a2.verify(10))   # a_5 is the first term it breaks
    assert (rep.outcome, rep.witness[:3], rep.steps) == (False, (5, "closed_form", "7/1"), 4)


def test_verify_catches_a_widened_scale_without_rescaled_numerators(monkeypatch):
    extend = a2.extend

    def extend_without_rescale(seq):
        grown = extend(seq)
        return a2.A2Sequence(grown.scale, seq.numerators + grown.numerators[-1:])

    monkeypatch.setattr(a2, "extend", extend_without_rescale)
    rep = first_failure("a2.verify", {}, a2.verify(10))   # a_0 = -1/S no longer solves m = 1
    assert (rep.outcome, rep.witness[:2], rep.steps) == (False, (1, "residual"), 0)


def test_verify_rejects_zero():
    with pytest.raises(PreconditionFailedError):
        a2.verify(0)


def test_render_lines():
    lines = a2.render_lines(a2.build(3))
    assert lines[0] == "0\t-1/1"
    assert lines[1] == "1\t1/2"
    assert lines[-1] == "3\t1/24"
