"""The IMO 2006 shortlist A2 sequence, computed exactly.

The sequence is fixed by a_0 = -1 together with the relation
sum_{k=0..n} a_{n-k}/(k+1) = 0 for every n >= 1, which determines each new
term uniquely (the k = 0 coefficient is 1).  The checked theorem is that
a_n > 0 for all n >= 1.

Two independent routes produce each term: solving the defining relation
(``extend``) and the isolated closed form

    a_{n+1} = 1/(n+2) * sum_{k=1..n} k / ((n-k+1)(n-k+2)) * a_k

(``closed_form_next``).  Their exact agreement is itself one of the checks,
so the two deliberately share no summation logic beyond ``finite_sum``.

The prefix is held over one common scale: a positive integer S and integer
numerators A_0..A_n with a_j = A_j / S.  Every sum term is then an A_j over
a small integer (k + 1 in the relation, (n-k+1)(n-k+2) in the closed form),
which ``finite_sum`` splits into a big integer part and a small remainder,
instead of an a_j over its own denominator of thousands of bits.  ``extend``
is the only place S changes: when the new term is not a whole multiple of
1/S it widens S by the missing factor d and rescales every A_j.  Every
prime of d divides the new term's reduced denominator to its full power in
d * S, so S stays the lcm of the prefix's denominators: a wider S would keep
the values right but make every later term longer.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .errors import PreconditionFailedError
from .rational import Rational, ZERO, finite_sum, render


class A2Sequence:
    """Exact prefix a_0..a_n as numerators over one scale: a_j = A_j / S.

    Index 0 always holds -1.  ``extend`` keeps S the lcm of the prefix's
    denominators; a slice of a longer prefix keeps the longer one's S.
    Nothing changes a prefix once built: ``extend`` returns a new one.
    """

    def __init__(self, scale: int, numerators: tuple[int, ...]) -> None:
        self.scale = scale
        self.numerators = numerators

    @classmethod
    def initial(cls) -> "A2Sequence":
        return cls(1, (-1,))

    @property
    def last_index(self) -> int:
        return len(self.numerators) - 1

    @cached_property
    def values(self) -> tuple[Rational, ...]:
        """The canonical a_0..a_n, computed once."""
        return tuple(Rational(a, self.scale) for a in self.numerators)


def extend(seq: A2Sequence) -> A2Sequence:
    """Append a_{n+1}, the unique value making the defining relation hold.

    From sum_{k=0..n+1} a_{n+1-k}/(k+1) = 0:
    a_{n+1} = T / S with T = -sum_{k=1..n+1} A_{n+1-k}/(k+1).  S widens to
    d * S and every A_j to d * A_j, with d the denominator of T (d = 1
    leaves them as they are), so a_{n+1} = T's numerator / (d * S).
    """
    n, a = seq.last_index, seq.numerators
    t = -finite_sum(lambda k: (a[n + 1 - k], k + 1), 1, n + 2)
    d = t.denominator
    return A2Sequence(seq.scale * d, tuple(x * d for x in a) + (t.numerator,))


def closed_form_next(seq: A2Sequence) -> Rational:
    """Value of a_{n+1} by the closed form; the a_0 coefficient has vanished."""
    n = seq.last_index
    if n < 1:
        raise PreconditionFailedError("closed form needs the prefix up to a_1 at least")
    a = seq.numerators
    s = finite_sum(lambda k: (k * a[k], (n - k + 1) * (n - k + 2)), 1, n + 1)
    return s / (seq.scale * (n + 2))


def recurrence_residual(seq: A2Sequence, m: int) -> Rational:
    """sum_{k=0..m} a_{m-k}/(k+1); exactly zero whenever the relation holds at m."""
    a = seq.numerators
    return finite_sum(lambda k: (a[m - k], k + 1), 0, m + 1) / seq.scale


def build(n: int) -> A2Sequence:
    """The prefix a_0..a_n via the recurrence."""
    seq = A2Sequence.initial()
    for _ in range(n):
        seq = extend(seq)
    return seq


def render_lines(seq: A2Sequence) -> list[str]:
    """CLI text form, one "index<TAB>num/den" line per term."""
    return [f"{i}\t{render(v)}" for i, v in enumerate(seq.values)]


def verify(n_max: int, seq: A2Sequence | None = None) -> Iterator[tuple | None]:
    """Machine-check a_1..a_{n_max}: positivity, exact residuals, closed form.

    Checks ``seq`` when given (a prefix built by ``build(n_max)``, so a
    caller that prints the sequence builds it once), else ``build(n_max)``.
    The preconditions are checked and the prefix built on the call; the
    returned stream then checks one index m = 1..n_max per item, lazily.
    Index m holds (None) iff the term is positive, the relation residual at
    m is exactly 0/1, and (for m >= 2) the closed form applied to the
    shorter prefix reproduces the recurrence value; otherwise its witness
    is m and the values involved.
    """
    if n_max < 1:
        raise PreconditionFailedError("n_max must be at least 1")
    if seq is None:
        seq = build(n_max)
    elif seq.last_index != n_max:
        raise PreconditionFailedError(f"prefix ends at a_{seq.last_index}, not a_{n_max}")
    a = seq.values

    def witness(m: int) -> tuple | None:
        value = a[m]
        if not value > ZERO:
            return m, "positivity", render(value)
        residual = recurrence_residual(seq, m)
        if residual != ZERO:
            return m, "residual", render(residual)
        if m >= 2:
            cf = closed_form_next(A2Sequence(seq.scale, seq.numerators[:m]))
            if cf != value:
                return m, "closed_form", render(cf), render(value)
        return None

    return map(witness, range(1, n_max + 1))
