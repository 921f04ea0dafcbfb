import math
import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, strategies as st

from imocheck import n1
from imocheck.errors import PreconditionFailedError
from imocheck.n1 import OrbitClass


# -- integer square root --------------------------------------------------------

def test_isqrt_examples():
    assert n1.is_perfect_square(16)
    assert not n1.is_perfect_square(2)


# -- step and orbit ---------------------------------------------------------------

def step(x):
    """The step rule on math.isqrt, the tests' oracle; it shares no code with n1."""
    s = math.isqrt(x)
    return s if s * s == x else x + 3


def test_step_examples():
    assert n1.n1_step(16) == 4
    assert n1.n1_step(4) == 2
    assert n1.n1_step(5) == 8
    assert n1.n1_step(0) == 0


def test_step_precondition():
    with pytest.raises(PreconditionFailedError):
        n1.n1_step(-1)


@given(st.integers(2, 10**6))
def test_step_image(x):
    nxt = n1.n1_step(x)
    assert nxt in (math.isqrt(x), x + 3)
    assert nxt > 1
    assert (x % 3 == 0) == (nxt % 3 == 0)


def test_orbit_examples():
    assert n1.orbit(3, 6) == [3, 6, 9, 3, 6, 9, 3]
    assert n1.orbit(7, 5) == [7, 10, 13, 16, 4, 2]
    assert n1.orbit(5, 4) == [5, 8, 11, 14, 17]


def test_orbit_precondition():
    with pytest.raises(PreconditionFailedError):
        n1.orbit(1, 3)


def test_step_above_2_64_is_exact():
    big = 2**64 + 1
    assert n1.n1_step(big) == big + 3
    assert n1.n1_step(big * big) == big
    assert n1.n1_step((2**70 + 3) ** 2) == 2**70 + 3
    assert n1.orbit(2**100 - 1, 3) == [2**100 - 1, 2**100 + 2, 2**100 + 5, 2**100 + 8]


# -- cycle detection and classification ----------------------------------------------

def test_detect_cycle_examples():
    assert n1.detect_cycle(3, 10) == (0, 3)
    assert n1.detect_cycle(6, 10) == (0, 3)
    assert n1.detect_cycle(5, 1000) is None


def test_detect_cycle_entry_index():
    # 12 climbs to 36, drops to 6 and only then cycles
    assert n1.detect_cycle(12, 100) == (9, 3)


def test_classify_examples():
    trace = n1.classify(3, 100)
    assert trace.classification is OrbitClass.PERIODIC_MULT3
    assert trace.cycle == (0, 3)
    assert trace.cycle_values() == {3, 6, 9}

    trace = n1.classify(5, 100)
    assert trace.classification is OrbitClass.DIVERGENT_MOD2
    assert trace.mod2_index == 0

    trace = n1.classify(4, 100)
    assert trace.classification is OrbitClass.DIVERGENT_VIA_MOD1
    assert trace.mod2_index == 1


def test_classify_budget_exceeded():
    trace = n1.classify(27, 1)
    assert trace.classification is OrbitClass.BUDGET_EXCEEDED
    assert n1.orbit(27, 1) == [27, 30]


def test_classify_precondition():
    with pytest.raises(PreconditionFailedError):
        n1.classify(1, 10)


def test_trace_values_follow_step_rule():
    """The trace's certificate agrees with the stepped orbit up to its decision."""
    for a0 in (3, 4, 5, 48, 100, 9999):
        budget = n1.default_budget(a0)
        trace = n1.classify(a0, budget)
        if trace.cycle is not None:
            assert n1.detect_cycle(a0, budget) == trace.cycle
            start, period = trace.cycle
            values = n1.orbit(a0, start + period)
            assert values[start] == values[-1] == trace.cycle_value
        else:
            values = n1.orbit(a0, trace.mod2_index)
            assert [v % 3 == 2 for v in values].index(True) == trace.mod2_index
        assert all(v > 1 for v in values)


def test_first_repeat_in_run_from_either_side():
    # the current run 6, 9 starts inside the earlier run 3, 6, 9 (from index 5)
    assert n1.first_repeat_in_run([(3, 5, 9)], 6, 9) == (6, 6)
    # the earlier run 6, 9 starts inside the current run 3, 6, 9
    assert n1.first_repeat_in_run([(6, 5, 9)], 3, 9) == (6, 5)
    # the earliest shared value wins over the runs
    assert n1.first_repeat_in_run([(9, 2, 9), (6, 7, 9)], 3, 9) == (6, 7)
    # another residue, or spans that do not meet, share nothing
    assert n1.first_repeat_in_run([(4, 0, 16)], 6, 9) is None
    assert n1.first_repeat_in_run([(12, 0, 36)], 3, 9) is None


small_values = st.integers(0, 40)


@given(st.lists(st.tuples(small_values, small_values, small_values), max_size=8),
       small_values, small_values)
def test_first_repeat_in_run_equals_its_min_expression(runs, start, last):
    """The loop against its earlier one-expression form, on drawn run lists."""
    oracle = min(((max(u, start), j + (max(u, start) - u) // 3) for u, j, w in runs
                  if (u - start) % 3 == 0 and u <= last and start <= w), default=None)
    assert n1.first_repeat_in_run(runs, start, last) == oracle


def stepped_classify(a0, budget):
    """Reference classification by stepping: (class, cycle, m), without the tail scan."""
    seen = {a0: 0}
    v = a0
    if v % 3 == 2:
        return "DivergentMod2", None, 0
    for j in range(1, budget + 1):
        v = step(v)
        if v in seen:
            return "PeriodicMult3", (seen[v], j - seen[v]), None
        seen[v] = j
        if v % 3 == 2:
            return "DivergentViaMod1", None, j
    return "BudgetExceeded", None, None


def jump_classify(a0, budget):
    trace = n1.classify(a0, budget)
    return trace.classification.value, trace.cycle, trace.mod2_index


def test_jump_classify_equals_stepping_at_the_default_budget():
    for a0 in range(2, 10 ** 4 + 1):
        budget = n1.default_budget(a0)
        assert jump_classify(a0, budget) == stepped_classify(a0, budget), a0


def test_jump_classify_equals_stepping_at_every_short_budget():
    """Every budget from 1 to two past the decision index, where the outcome flips."""
    for a0 in range(2, 2001):
        _, cycle, m = stepped_classify(a0, n1.default_budget(a0))
        decided_at = m if cycle is None else cycle[0] + cycle[1]
        for budget in range(1, decided_at + 3):
            assert jump_classify(a0, budget) == stepped_classify(a0, budget), (a0, budget)


def test_classify_at_the_cap_keeps_no_orbit():
    """1.33M steps to the cycle, decided from a handful of +3 runs."""
    a0 = 999999999999
    budget = n1.default_budget(a0)
    tracemalloc.start()
    try:
        trace = n1.classify(a0, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert (trace.classification, trace.cycle) == (OrbitClass.PERIODIC_MULT3, (1334703, 3))


def test_classification_theorem_small_range():
    for a0 in range(2, 400):
        trace = n1.classify(a0, n1.default_budget(a0))
        periodic = trace.classification is OrbitClass.PERIODIC_MULT3
        assert periodic == (a0 % 3 == 0), a0
        if periodic:
            assert trace.cycle_values() == {3, 6, 9}


# -- claims ------------------------------------------------------------------------------

def test_claim1():
    assert n1.check_claim1(5, 500) is None
    assert n1.orbit(7, 5)[-1] == 2
    assert n1.check_claim1(2, 500) is None    # a_5 of 7 onwards
    assert n1.check_claim1(5, -2) is None     # a window below 0 checks nothing
    with pytest.raises(PreconditionFailedError):
        n1.check_claim1(3, 10)
    with pytest.raises(PreconditionFailedError):
        n1.check_claim1(3, -2)                # the precondition comes first


def claim2_certificate(x):
    """(t, first square, m) recomputed from the orbit; m steps reach the square's root."""
    vals = n1.orbit(x, 2 * math.isqrt(x) + 6)
    k = next(i for i, v in enumerate(vals) if n1.is_perfect_square(v))
    return math.isqrt(x - 1), vals[k], k + 1


def test_claim2_examples():
    assert n1.check_claim2(12) is None
    assert claim2_certificate(12)[:2] == (3, 36)
    assert n1.check_claim2(10) is None
    assert claim2_certificate(10)[1] == 16
    with pytest.raises(PreconditionFailedError):
        n1.check_claim2(11)
    with pytest.raises(PreconditionFailedError):
        n1.check_claim2(9)


def test_claim2_first_square_offset():
    for x in range(10, 2000):
        if x % 3 == 2:
            continue
        assert n1.check_claim2(x) is None, x
        t, square, m = claim2_certificate(x)
        assert square in ((t + 1) ** 2, (t + 2) ** 2, (t + 3) ** 2), x
        assert m <= 2 * math.isqrt(x) + 6, x


def test_claim2_failure_witnesses(monkeypatch):
    monkeypatch.setattr(n1, "confirm_plus3_run", lambda start, nsteps: -1)
    bound = 2 * math.isqrt(12) + 6
    assert n1.check_claim2(12) == ("no square within bound", 12 + 3 * (bound + 1))
    monkeypatch.setattr(n1, "confirm_plus3_run", lambda start, nsteps: 1)
    assert n1.check_claim2(12) == ("unexpected first square", 15)


def hit_index(check, a0):
    """The least budget within which check(a0, budget) holds: the first hit m."""
    return next(budget for budget in range(51) if check(a0, budget) is None)


def test_claim3():
    assert hit_index(n1.check_claim3, 6) == 2
    assert hit_index(n1.check_claim3, 9) == 1
    assert n1.check_claim3(12, 50) is None
    with pytest.raises(PreconditionFailedError):
        n1.check_claim3(5, 50)


def test_claim3_budget_exhausted_reports_tail():
    assert n1.check_claim3(12, 2) == (12, 15, 18)
    assert n1.check_claim3(12, 8) == tuple(n1.orbit(12, 8)[-6:])


def test_claim3_stops_stepping_at_the_first_hit(monkeypatch):
    calls = []

    def counted_runs(a0):
        for run in real_runs(a0):
            calls.append(run)
            yield run

    monkeypatch.setattr(n1, "runs", counted_runs)
    assert n1.check_claim3(999, n1.default_budget(999)) is None
    # 999 climbs to 33^2, then 33, 36, 6, 9, 3: the hit is in the fourth run
    assert calls == [(999, 0, 1089), (33, 31, 36), (6, 33, 9), (3, 35, 9)]
    assert n1.check_claim3(999, 35) is None
    assert n1.check_claim3(999, 34) is not None


def test_claim3a():
    """The small multiples of 3 (n1.small_claims) reach 3 within 10 steps."""
    assert [hit_index(n1.check_claim3, a0) for a0 in (3, 6, 9)] == [3, 2, 1]


def test_claim4():
    assert hit_index(n1.check_claim4, 4) == 1
    assert hit_index(n1.check_claim4, 7) == 5
    assert hit_index(n1.check_claim4, 10) == 4
    with pytest.raises(PreconditionFailedError):
        n1.check_claim4(6, 50)


def test_claim4a():
    """The small residue-1 values (n1.small_claims) reach residue 2 within 10 steps."""
    assert [hit_index(n1.check_claim4, a0) for a0 in (4, 7)] == [1, 5]


# -- mod-3 lemmas ---------------------------------------------------------------------------

def test_default_budget():
    assert n1.default_budget(999) == 4 * 999 + 1000
    assert n1.default_budget(2) == 1008


def test_mod3_lemmas():
    for scan in (n1.lemma_square_mod3_ne2, n1.lemma_three_squares_mod3,
                 n1.lemma_square_mod3_zero):
        assert list(scan(10 ** 4)) == [None] * (10 ** 4 + 4)   # three residues, then 0..10^4


def test_three_squares_worked_example():
    t = 3
    assert {((t + 1) ** 2) % 3, ((t + 2) ** 2) % 3, ((t + 3) ** 2) % 3} == {0, 1}


def test_orbit_lemmas():
    assert n1.lemma_mult3_propagates(6, 100) is None
    assert n1.lemma_nonmult3_propagates(5, 100) is None
    assert n1.lemma_all_gt1(2, 500) is None
    with pytest.raises(PreconditionFailedError):
        n1.lemma_mult3_propagates(5, 10)
    with pytest.raises(PreconditionFailedError):
        n1.lemma_nonmult3_propagates(6, 10)
    with pytest.raises(PreconditionFailedError):
        n1.lemma_all_gt1(1, 10)


def test_orbit_lemmas_need_a_start_of_at_least_1():
    # on the walk 0 is a fixed point and a negative start raises ValueError
    with pytest.raises(PreconditionFailedError):
        n1.lemma_mult3_propagates(0, 10)
    with pytest.raises(PreconditionFailedError):
        n1.lemma_nonmult3_propagates(-1, 10)


def stepped_orbit(a0, budget):
    vals = [a0]
    for _ in range(budget):
        vals.append(step(vals[-1]))
    return vals


# Small starts and squares reach 3 or a residue-2 value within the budgets drawn,
# large ones rarely do.  The examples put a first hit or repeat at m = 1 and at
# m = budget.
orbit_starts = st.one_of(st.integers(2, 3000), st.integers(2, 60).map(lambda s: s * s),
                         st.integers(2, 10**12))


@given(orbit_starts, st.one_of(st.integers(1, 40), st.integers(1, 400)))
@example(3, 3)
@example(9, 1)
@example(4, 1)
@example(999, 35)
@example(999, 34)
def test_orbit_scans_match_single_steps(a0, budget):
    """detect_cycle, claims 3 and 4 and the orbit lemmas against a loop of the tests' step."""
    vals = stepped_orbit(a0, budget)
    repeat = next(((vals.index(v), j) for j, v in enumerate(vals) if v in vals[:j]), None)
    assert n1.detect_cycle(a0, budget) == (None if repeat is None
                                           else (repeat[0], repeat[1] - repeat[0]))

    def first_hit(hit):
        return next(((m, vals[m]) for m in range(1, budget + 1) if hit(vals[m])), None)

    def reaches(hit):
        return None if first_hit(hit) else tuple(vals[-6:])

    assert n1.lemma_all_gt1(a0, budget) == first_hit(lambda v: v <= 1)
    if a0 % 3 == 0:
        assert n1.check_claim3(a0, budget) == reaches(lambda v: v == 3)
        assert n1.lemma_mult3_propagates(a0, budget) == first_hit(lambda v: v % 3 != 0)
    else:
        assert n1.lemma_nonmult3_propagates(a0, budget) == first_hit(lambda v: v % 3 == 0)
    if a0 % 3 == 1:
        assert n1.check_claim4(a0, budget) == reaches(lambda v: v % 3 == 2)


def broken_walk(v):
    """The walk of a broken step rule that drops 6 to 5 and 5 to 1."""
    while True:
        yield v
        v = {6: 5, 5: 1}.get(v) or n1.n1_step(v)


real_runs = n1.runs


def broken_runs(a0):
    """The runs of broken_walk's rule: a mutant of n1.runs whose runs end at 6 or 5.

    A run that reaches 6 (or 5) ends there, and the next run starts at 5
    (or 1) one step later, where broken_walk goes.
    """
    breaks, i = {6: 5, 5: 1}, 0
    while True:
        for u, j, last in real_runs(a0):
            end = next((b for b in breaks
                        if (b - u) % 3 == 0 and u <= b and (last is None or b <= last)), None)
            yield u, i + j, last if end is None else end
            if end is not None:
                a0, i = breaks[end], i + j + (end - u) // 3 + 1
                break
        else:
            return


def test_broken_runs_are_the_runs_of_the_broken_walk():
    for a0 in range(1, 60):
        values = list(islice(broken_walk(a0), 40))
        for u, j, last in islice(broken_runs(a0), 8):
            if j >= len(values):
                break
            span = values[j:] if last is None else values[j:j + (last - u) // 3 + 1]
            assert span == list(range(u, u + 3 * len(span), 3)), (a0, u, j, last)
            if last is not None and j + (last - u) // 3 + 1 < len(values):
                assert values[j + (last - u) // 3 + 1] != last + 3, (a0, u, j, last)


def test_orbit_lemma_failures_report_the_first_break(monkeypatch):
    monkeypatch.setattr(n1, "runs", broken_runs)
    assert n1.lemma_mult3_propagates(3, 100) == (2, 5)      # 3, 6, 5
    assert n1.lemma_all_gt1(3, 100) == (3, 1)               # 3, 6, 5, 1
    assert n1.lemma_all_gt1(3, 2) is None                   # the break lies past the budget
    # 2, 5, 1; 3, 6, 5, 1; 4, 2, 5, 1; 5, 1; 6, 5, 1: starts 3 and 4 break at m = 3
    assert [n1.lemma_all_gt1(a0, 3) for a0 in range(2, 7)] == [(2, 1), (3, 1), (3, 1),
                                                               (1, 1), (2, 1)]
    assert [n1.lemma_all_gt1(a0, 2) for a0 in range(2, 7)] == [(2, 1), None, None,
                                                               (1, 1), (2, 1)]
    assert [n1.lemma_mult3_propagates(a0, 1) for a0 in (3, 6)] == [None, (1, 5)]


# -- the run-based first hit against the stepped scan ------------------------------------

def stepped_walk(a0):
    while True:
        yield a0
        a0 = step(a0)


def stepped_first_hit(a0, budget, hit):
    """The first (m, a_m) with 1 <= m <= budget and hit(a_m), or None, one stepped value at a time."""
    later = islice(stepped_walk(a0), 1, budget + 1)
    return next(((m, v) for m, v in enumerate(later, 1) if hit(v)), None)


# The five predicates the checks ask first_hit for, as its keywords and as value tests.
CLAIM3 = ({"residues": (0,), "high": 3}, lambda v: v == 3)
CLAIM4 = ({"residues": (2,)}, lambda v: v % 3 == 2)
FIRST_HIT_TARGETS = (CLAIM3, CLAIM4,
                     ({"residues": (1, 2)}, lambda v: v % 3 != 0),   # mult3_propagates
                     ({"residues": (0,)}, lambda v: v % 3 == 0),     # nonmult3_propagates
                     ({"high": 1}, lambda v: v <= 1))                # all_gt1


def test_first_hit_by_runs_equals_the_stepped_scan():
    """(m, a_m) exactly: at the claims' starts and budget, at short budgets and at 10^30."""
    for (target, hit), starts in ((CLAIM3, range(3, 10 ** 4 + 1, 3)),
                                  (CLAIM4, range(4, 10 ** 4 + 1, 3))):
        for a0 in starts:
            budget = n1.default_budget(a0)
            assert n1.first_hit(a0, budget, **target) == stepped_first_hit(a0, budget, hit), a0
    for a0 in range(1, 1001):
        for budget in (1, 2, 7, 300):
            for target, hit in FIRST_HIT_TARGETS:
                assert (n1.first_hit(a0, budget, **target)
                        == stepped_first_hit(a0, budget, hit)), (a0, budget, target)
    rng = random.Random(42)
    for _ in range(100):
        # half anywhere below 10^30, half a few steps below a square, so runs end in range
        a0 = rng.choice((rng.randrange(1, 10 ** 30),
                         max(1, rng.randrange(2, 10 ** 15) ** 2 - rng.randrange(300))))
        budget = rng.randrange(1, 10 ** 3 + 1)
        for target, hit in FIRST_HIT_TARGETS:
            assert (n1.first_hit(a0, budget, **target)
                    == stepped_first_hit(a0, budget, hit)), (a0, budget, target)


def test_first_hit_stops_at_the_first_repeated_run(monkeypatch):
    """A never-breaking lemma reads its descent and one pass of the 3, 6, 9 cycle's runs.

    At budget 10^6, reading the cycle's runs to the budget takes about
    333,000 runs per call; the counting wrapper gives up at 1,000.
    """
    read = 0

    def counting(a0):
        nonlocal read
        for run in real_runs(a0):
            read += 1
            assert read <= 1000, "first_hit reads past the repeated run"
            yield run

    monkeypatch.setattr(n1, "runs", counting)
    # 999 climbs to 33^2, then 33, 36, 6, 9, 3, 6, 9, 3: the run from 3 repeats at index 38
    for a0, expected in ((3, 2), (6, 3), (9, 3), (999, 5)):
        for target in ({"residues": (1, 2)}, {"high": 1}):
            read = 0
            assert n1.first_hit(a0, 10 ** 6, **target) is None
            assert read == expected, (a0, target, read)


def test_first_hit_checks_decide_without_the_walk(monkeypatch):
    """Claims 3 and 4 and the orbit lemmas read runs; only a failure's witness walks."""
    def no_walk(a0):
        raise AssertionError("walk read")

    monkeypatch.setattr(n1, "walk", no_walk)
    for a0 in (3, 6, 999, 10 ** 12 - 1):
        assert n1.check_claim3(a0, n1.default_budget(a0)) is None
        assert n1.lemma_mult3_propagates(a0, 300) is None
        assert n1.lemma_all_gt1(a0, 300) is None
    for a0 in (4, 7, 1000, 10 ** 12):
        assert n1.check_claim4(a0, n1.default_budget(a0)) is None
        assert n1.lemma_nonmult3_propagates(a0, 300) is None
        assert n1.lemma_all_gt1(a0, 300) is None


# -- the kernels against naive oracles that share no code with them ---------------------

def first_square_by_scan(start, nsteps):
    """Offset of the first perfect square among start, start+3, ..., or -1."""
    return next((i for i in range(nsteps) if n1.is_perfect_square(start + 3 * i)), -1)


def first_non_plus3_step(start, nsteps):
    """Index of the first of nsteps orbit steps that is not a +3 step, or -1."""
    vals = n1.orbit_fill(start, nsteps)
    return next((i for i in range(nsteps) if vals[i + 1] != vals[i] + 3), -1)


# starts anywhere, and starts a few steps below a perfect square so runs do hit one
run_starts = st.one_of(
    st.integers(2, 10**9),
    st.builds(lambda s, d: max(2, s * s - d), st.integers(2, 10**5), st.integers(0, 300)))


@given(run_starts, st.integers(0, 300))
def test_confirm_plus3_run_matches_scan_and_stepping(start, nsteps):
    found = n1.confirm_plus3_run(start, nsteps)
    assert found == first_square_by_scan(start, nsteps)
    assert found == first_non_plus3_step(start, nsteps)


@given(st.one_of(
    st.integers(2, 10**12),
    st.builds(lambda s, d: max(2, s * s - d), st.integers(2, 10**6), st.integers(0, 3 * 10**4))),
    st.integers(0, 10**4))
def test_confirm_plus3_run_matches_scan_on_long_windows(start, nsteps):
    assert n1.confirm_plus3_run(start, nsteps) == first_square_by_scan(start, nsteps)


@pytest.mark.parametrize("start,nsteps,expected", [
    (13, 10, 1),        # 13, 16: a square one step in
    (16, 10, 0),        # the start itself is a square
    (13, 2, 1),         # the square is the last value of the window
    (13, 1, -1),        # ... and one step past it
    (2, 10**5, -1),     # residue-2 runs never meet a square
    (5, 0, -1),         # an empty run is confirmed
])
def test_confirm_plus3_run_boundaries(start, nsteps, expected):
    assert n1.confirm_plus3_run(start, nsteps) == expected
    assert first_square_by_scan(start, nsteps) == expected
    assert first_non_plus3_step(start, nsteps) == expected


def test_confirm_plus3_run_on_pinned_windows():
    assert n1.confirm_plus3_run(200, 101) == -1      # 200, 203, ..., 500 (residue 2)
    assert n1.confirm_plus3_run(203, 50) == -1
    assert n1.confirm_plus3_run(503, 10) == -1
    assert n1.confirm_plus3_run(500, 20) == -1
    assert n1.confirm_plus3_run(2, 30) == -1
    assert n1.confirm_plus3_run(2, 300) == -1
    # residue 1: 904, 907, ..., 946 lies between 30^2 = 900 and 31^2 = 961
    assert n1.confirm_plus3_run(904, 15) == -1
    assert n1.confirm_plus3_run(946, 10) == 5        # 961 = 946 + 3 * 5
    assert n1.confirm_plus3_run(949, 5) == 4
    # residue 0: 1071, 1074, 1077 lies between 30^2 = 900 and 33^2 = 1089
    assert n1.confirm_plus3_run(1071, 3) == -1
    assert n1.confirm_plus3_run(1077, 10) == 4       # 1089 = 1077 + 3 * 4
    assert n1.confirm_plus3_run(1080, 2) == -1       # 1083 is the window's last value
    assert n1.confirm_plus3_run(1083, 3) == 2


def run_end_root_by_search(v):
    """The least s >= 0 with s*s >= v and s*s = v (mod 3), searched up to ceil(sqrt(v)) + 10."""
    top = math.isqrt(v) + 11
    return next((s for s in range(max(0, top - 21), top + 1)
                 if s * s >= v and s * s % 3 == v % 3), None)


def test_run_end_root_matches_search_on_every_small_value():
    for v in range(10**4 + 1):
        assert n1.run_end_root(v) == run_end_root_by_search(v), v


@given(st.one_of(st.integers(0, 10**30),
                 st.builds(lambda s, d: max(0, s * s - d), st.integers(0, 10**15), st.integers(-3, 9))))
def test_run_end_root_matches_search_on_large_values(v):
    assert n1.run_end_root(v) == run_end_root_by_search(v)


@given(st.integers(0, 10**12), st.integers(0, 4 * 10**12))
def test_confirm_plus3_run_tests_at_most_three_candidate_roots(start, nsteps):
    """Each call iterates at most three roots, whatever the window's length.

    The kernel's range is the only one on confirm_plus3_run's path, so a
    counting range in n1 counts the candidates it tests.  A scan of every
    root in the window tests about sqrt(3 * nsteps).
    """
    tested = 0

    def counting_range(*args):
        nonlocal tested
        for s in range(*args):
            tested += 1
            yield s

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(n1, "range", counting_range, raising=False)
        found = n1.confirm_plus3_run(start, nsteps)
    assert tested <= 3, (start, nsteps, tested)
    if found >= 0:
        assert found < nsteps and n1.is_perfect_square(start + 3 * found)


@given(st.one_of(st.integers(2, 10**9), st.integers(2**64 - 10**6, 2**70)),
       st.integers(0, 300))
def test_orbit_fill_matches_single_steps(a0, k):
    assert n1.orbit_fill(a0, k) == stepped_orbit(a0, k)


def test_walk_is_lazy_and_fixes_0():
    assert list(islice(n1.walk(7), 6)) == [7, 10, 13, 16, 4, 2]
    assert list(islice(n1.walk(0), 3)) == [0, 0, 0]
    steps = n1.walk(-1)
    assert next(steps) == -1
    with pytest.raises(ValueError):
        next(steps)
