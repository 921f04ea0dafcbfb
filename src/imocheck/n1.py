"""IMO 2017 shortlist N1 sequence dynamics, checked at desk scale.

The step rule: a_{n+1} = sqrt(a_n) when a_n is a perfect square, else
a_n + 3.  For a_0 > 1 the question is for which starting values some value
recurs infinitely often; the answer is exactly the multiples of 3, which
fall into the 3, 6, 9 cycle.  The unbounded statement is restated here as a
bounded-budget contract: a repeated value within the budget certifies a
cycle, a reached residue-2 value plus a confirmed strictly increasing tail
certifies divergence within the examined window.

classify jumps along the orbit's +3 runs from square to square, so its cost
is a handful of runs even at a_0 = 10^12, while the budget still counts
steps; it and confirm_plus3_run find a run's last square with one kernel,
run_end_root, which tests three candidate roots, whatever the run's length.
detect_cycle and orbit read the stepped orbit from walk, the only loop over
the step rule, and the tests use them as its oracle.  n1_step is the
one-step definition the walk is checked against.

The claims of the proof are checked one start at a time, from a_0: the
orbit from a later term a_n is the orbit of the value a_n.  Claims 3 and 4
and the three orbit lemmas are "first m where the orbit does X" statements
and share one scan, _first_hit, which reads the walk only as far as that m;
a lemma that every value keeps a property looks for the first value that
breaks it.  Claim 1 compares consecutive values and so walks an orbit()
prefix.  Claim 2 finds its first square with the +3-run kernel.  The
suite's claim-1 and orbit-lemma sweeps call these checks in full only where
a start's a_1 is not a start they have decided; elsewhere a_1's verdict,
one index later, is a_0's (suite._successor_verdicts).

An instance check (claims 1-4 and the three orbit lemmas, one start each)
returns None when the instance holds and a witness tuple when it fails.
The three mod-3 lemma scans return the stream of such results over their
instances, and the suite builds each claim's record from it.

Everything is integer arithmetic, so orbit values are exact at every size.
Square roots are exact integer floors, looked up as math.isqrt where used.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import Callable, Iterator, NamedTuple

from .errors import PreconditionFailedError, TheoremViolationError


def isqrt(x: int) -> int:
    """Floor integer square root; bracketing isqrt(x)^2 <= x < (isqrt(x)+1)^2."""
    if x < 0:
        raise PreconditionFailedError("isqrt needs a natural number")
    return math.isqrt(x)


def is_perfect_square(x: int) -> bool:
    if x < 0:
        return False
    s = math.isqrt(x)
    return s * s == x


def n1_step(x: int) -> int:
    """One step: isqrt(x) if x is a perfect square, else x + 3 (no orbit loop calls it)."""
    if x < 1:
        raise PreconditionFailedError("step needs x >= 1")
    s = math.isqrt(x)
    return s if s * s == x else x + 3


def walk(a0: int) -> Iterator[int]:
    """a_0, a_1, ... of x -> isqrt(x) if square else x + 3, without end; 0 is fixed."""
    sqrt = math.isqrt
    v = a0
    while True:
        yield v
        s = sqrt(v)
        v = s if s * s == v else v + 3


def orbit_fill(a0: int, k: int) -> list[int]:
    """Values a_0..a_k of the walk from a0."""
    return list(itertools.islice(walk(a0), k + 1))


def run_end_root(v: int) -> int | None:
    """The s whose square ends the +3 run from v, or None when no square does.

    That is the least s with s * s >= v and s * s = v (mod 3).  s * s mod 3
    is 0 or 1 by s mod 3 alone, so the least such s is ceil(sqrt(v)) or one
    of the next two roots, and a v = 2 (mod 3) has none.  Each candidate is
    tested as a square, not by its residue.
    """
    root = math.isqrt(v)
    root += root * root < v
    for s in (root, root + 1, root + 2):
        if (s * s - v) % 3 == 0:
            return s
    return None


def confirm_plus3_run(start: int, nsteps: int) -> int:
    """Confirm that nsteps orbit steps from ``start`` are all +3 steps.

    Equivalent to checking that none of start, start+3, ..., start+3*(nsteps-1)
    is a perfect square.  Returns -1 when confirmed, else the offset of the
    first perfect square in the run: run_end_root(start) squared, when it
    lies in the window, so a window of any length costs three square tests.
    """
    if nsteps <= 0:
        return -1
    s = run_end_root(start)
    if s is None or s * s > start + 3 * (nsteps - 1):
        return -1
    return (s * s - start) // 3


def orbit(a0: int, k: int) -> list[int]:
    """The prefix [a_0, ..., a_k]."""
    if a0 <= 1:
        raise PreconditionFailedError("orbit needs a0 > 1")
    if k < 0:
        raise PreconditionFailedError("orbit needs k >= 0")
    return orbit_fill(a0, k)


def detect_cycle(a0: int, budget: int) -> tuple[int, int] | None:
    """First repeated value among a_0..a_budget.

    Returns (first index of the repeated value, distance between its two
    occurrences), or None when all budget+1 terms are distinct.  Two equal
    values n1 < n2 certify eventual periodicity with period n2 - n1.
    """
    if a0 <= 1:
        raise PreconditionFailedError("detect_cycle needs a0 > 1")
    if budget < 1:
        raise PreconditionFailedError("detect_cycle needs budget >= 1")
    seen: dict[int, int] = {}
    for j, v in enumerate(itertools.islice(walk(a0), budget + 1)):
        if v in seen:
            return seen[v], j - seen[v]
        seen[v] = j
    return None


def default_budget(a0: int) -> int:
    """The step budget of `imocheck n1 --classify` and the suite's N1 claims."""
    return 4 * a0 + 1000


class OrbitClass(Enum):
    PERIODIC_MULT3 = "PeriodicMult3"
    DIVERGENT_MOD2 = "DivergentMod2"
    DIVERGENT_VIA_MOD1 = "DivergentViaMod1"
    BUDGET_EXCEEDED = "BudgetExceeded"


class OrbitTrace(NamedTuple):
    """Classification of one orbit with its certificate.

    ``cycle`` is (index of the first repeated value, period) for periodic
    orbits, and ``cycle_value`` is that repeated value; ``mod2_index`` is
    the first m with a_m = 2 (mod 3) for divergent ones.  No orbit values
    are kept: the decision comes from the +3 runs between squares.
    """

    classification: OrbitClass
    cycle: tuple[int, int] | None = None
    cycle_value: int | None = None
    mod2_index: int | None = None

    def cycle_values(self) -> frozenset[int]:
        """The values of one period, stepped from the repeated value."""
        if self.cycle is None:
            raise PreconditionFailedError("no cycle certificate on this trace")
        return frozenset(orbit(self.cycle_value, self.cycle[1] - 1))


def first_repeat_in_run(runs: list[tuple[int, int, int]], start: int,
                        last: int) -> tuple[int, int] | None:
    """The first value of the +3 run start, start + 3, ..., last that an earlier run holds.

    ``runs`` lists the earlier runs as (start value, start index, last
    value).  Two runs share values when they have the same residue mod 3
    and their spans meet; the first shared value is then the later of the
    two starts.  Returns (that value, its orbit index in the earlier run),
    or None when no earlier run shares a value.
    """
    first = None
    for u, j, w in runs:
        if (u - start) % 3 == 0 and u <= last and start <= w:
            shared = (u, j) if u > start else (start, j + (start - u) // 3)
            if first is None or shared < first:
                first = shared
    return first


def classify(a0: int, budget: int) -> OrbitTrace:
    """Classify the orbit of a0 within a step budget, jumping square to square.

    PeriodicMult3 when a value repeats among a_0..a_budget (cycle
    certificate); DivergentMod2 / DivergentViaMod1 when a residue-2 value is
    reached at index m and all remaining budget - m steps are confirmed +3
    steps (strict increase; squares are never congruent to 2 mod 3);
    BudgetExceeded otherwise.  At sufficient budget the outcome is
    PeriodicMult3 exactly when a0 is a multiple of 3.

    The orbit is a chain of +3 runs.  A run from a non-square v ends at the
    first square s^2 >= v with s^2 = v (mod 3), (s^2 - v) / 3 steps later,
    and the next run starts at s; a square is a run of one value.  Residues
    are constant along a run, so the first residue-2 value starts a run.
    The first repeat is found from the runs themselves, not from the known
    cycle: either the current run starts inside an earlier run of the same
    residue, or an earlier run starts inside the current one.  Up to the
    decision, time and memory grow with the number of runs, not of steps.
    """
    if a0 <= 1:
        raise PreconditionFailedError("classify needs a0 > 1")
    if budget < 1:
        raise PreconditionFailedError("classify needs budget >= 1")
    runs: list[tuple[int, int, int]] = []       # (start value, start index, last value)
    v, i = a0, 0
    while i <= budget and v % 3 != 2:
        s = run_end_root(v)
        last = s * s
        repeat = first_repeat_in_run(runs, v, last)
        if repeat is not None:
            value, first = repeat
            at = i + (value - v) // 3
            if at > budget:
                break
            return OrbitTrace(OrbitClass.PERIODIC_MULT3, cycle=(first, at - first),
                              cycle_value=value)
        runs.append((v, i, last))
        v, i = s, i + (last - v) // 3 + 1
    if i > budget or v % 3 != 2:
        return OrbitTrace(OrbitClass.BUDGET_EXCEEDED)
    square_at = confirm_plus3_run(v, budget - i)
    if square_at >= 0:
        raise TheoremViolationError(
            f"square {v + 3 * square_at} found in a residue-2 run from {v}")
    kind = OrbitClass.DIVERGENT_MOD2 if a0 % 3 == 2 else OrbitClass.DIVERGENT_VIA_MOD1
    return OrbitTrace(kind, mod2_index=i)


def check_claim1(a0: int, window: int) -> tuple | None:
    """From a residue-2 term on, every step is +3: no squares, residue kept.

    Precondition: a0 = 2 (mod 3).  Holds iff for all 0 <= m <= window the
    term is not a perfect square, keeps residue 2, and a_{m+1} = a_m + 3;
    else the witness is the first offending (m, a_m, a_{m+1}).
    """
    if a0 % 3 != 2:
        raise PreconditionFailedError(f"a0 = {a0} is not 2 mod 3")
    vals = orbit(a0, window + 1)
    for m in range(window + 1):
        if (is_perfect_square(vals[m]) or vals[m] % 3 != 2
                or vals[m + 1] != vals[m] + 3):
            return m, vals[m], vals[m + 1]
    return None


def check_claim2(x: int) -> tuple | None:
    """Descent certificate: from x (residue not 2, x > 9) a smaller value appears.

    With t the largest integer whose square is below x, the first perfect
    square reached is one of (t+1)^2, (t+2)^2, (t+3)^2, so the next value is
    at most t + 3 < t^2 < x.  The search for that square is capped at
    2*isqrt(x) + 6 steps, which the certificate itself justifies, and runs
    on the +3-run kernel.  The witness names the first link of the chain
    that breaks, with the value involved.
    """
    if x % 3 == 2 or x <= 9:
        raise PreconditionFailedError("claim 2 needs x mod 3 != 2 and x > 9")
    t = isqrt(x - 1)
    bound = 2 * isqrt(x) + 6
    if t < 3:
        return "t<3", t
    steps = confirm_plus3_run(x, bound + 1)
    if steps < 0:
        return "no square within bound", x + 3 * (bound + 1)
    v = x + 3 * steps
    if v not in ((t + 1) ** 2, (t + 2) ** 2, (t + 3) ** 2):
        return "unexpected first square", v
    after = isqrt(v)
    if not (after <= t + 3 < t * t < x):
        return "descent chain broken", after
    # one more step lands on `after`, the smaller value
    if steps + 1 > bound:
        return "descent slower than bound", steps + 1
    return None


def _first_hit(a0: int, budget: int, hit: Callable[[int], bool]) -> tuple[int, int] | None:
    """The first (m, a_m) with 1 <= m <= budget and hit(a_m), or None.

    Reads the walk one value at a time, only as far as that hit.
    """
    if a0 < 1:
        raise PreconditionFailedError("the orbit needs a0 >= 1")
    later = itertools.islice(walk(a0), 1, budget + 1)
    return next(((m, v) for m, v in enumerate(later, 1) if hit(v)), None)


def _reaches(a0: int, budget: int, hit: Callable[[int], bool]) -> tuple | None:
    """None when some 1 <= m <= budget has hit(a_m); else the last six values."""
    if _first_hit(a0, budget, hit) is None:
        return tuple(orbit(a0, budget)[-6:])
    return None


def check_claim3(a0: int, budget: int) -> tuple | None:
    """A multiple of 3 leads to the value 3: some 1 <= m <= budget has a_m = 3."""
    if a0 <= 1 or a0 % 3 != 0:
        raise PreconditionFailedError(f"a0 = {a0} is not a multiple of 3 above 1")
    return _reaches(a0, budget, lambda v: v == 3)


def check_claim4(a0: int, budget: int) -> tuple | None:
    """A residue-1 term leads to a residue-2 term: some 1 <= m <= budget has a_m = 2 (mod 3)."""
    if a0 <= 1 or a0 % 3 != 1:
        raise PreconditionFailedError(f"a0 = {a0} is not 1 mod 3 above 1")
    return _reaches(a0, budget, lambda v: v % 3 == 2)


def _residues_then_scan(scan_limit: int, holds: Callable[[int], bool]
                        ) -> Iterator[tuple | None]:
    """holds(x) on each residue 0, 1, 2 (the proof), then on every 0 <= x <= scan_limit."""
    return itertools.chain(
        (None if holds(r) else ("residue", r) for r in (0, 1, 2)),
        (None if holds(x) else (x,) for x in range(scan_limit + 1)))


def lemma_square_mod3_ne2(scan_limit: int) -> Iterator[tuple | None]:
    """No square is 2 mod 3."""
    return _residues_then_scan(scan_limit, lambda s: (s * s) % 3 != 2)


def lemma_three_squares_mod3(scan_limit: int) -> Iterator[tuple | None]:
    """{(t+1)^2, (t+2)^2, (t+3)^2} mod 3 is exactly {0, 1} for every t."""
    return _residues_then_scan(
        scan_limit,
        lambda t: {((t + 1) ** 2) % 3, ((t + 2) ** 2) % 3, ((t + 3) ** 2) % 3} == {0, 1})


def lemma_square_mod3_zero(scan_limit: int) -> Iterator[tuple | None]:
    """x^2 = 0 (mod 3) exactly when x = 0 (mod 3)."""
    return _residues_then_scan(scan_limit, lambda x: ((x * x) % 3 == 0) == (x % 3 == 0))


def lemma_mult3_propagates(a0: int, budget: int) -> tuple[int, int] | None:
    """A multiple of 3 is always followed by another multiple of 3."""
    if a0 % 3 != 0:
        raise PreconditionFailedError("needs a0 = 0 mod 3")
    return _first_hit(a0, budget, lambda v: v % 3 != 0)


def lemma_nonmult3_propagates(a0: int, budget: int) -> tuple[int, int] | None:
    """A non-multiple of 3 never becomes one."""
    if a0 % 3 == 0:
        raise PreconditionFailedError("needs a0 != 0 mod 3")
    return _first_hit(a0, budget, lambda v: v % 3 == 0)


def lemma_all_gt1(a0: int, budget: int) -> tuple[int, int] | None:
    """Every orbit value stays above 1 when a0 > 1."""
    if a0 <= 1:
        raise PreconditionFailedError("needs a0 > 1")
    return _first_hit(a0, budget, lambda v: v <= 1)
