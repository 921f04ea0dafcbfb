"""The claim suite: every lemma, claim and theorem check as one table.

``CLAIMS`` is the battery: one ordered row per claim, holding its id, its
sweep, the sweep's keyword params (the record prints them) and whether the
sweep draws from an rng.  The params hold every size the suite checks but
three fixed ones: RANDOM_MAX_A, RANDOM_MAX_B and ENUMERATION_BOARDS.  The
row is the only place the suite writes a claim's id and params; ``imocheck
a2 --verify``, which does not load this module, writes its own a2.verify
record.  ``run_suite`` runs the rows in order with the run's seed; a seeded
row draws from its own rng, seeded by that seed and its id, so a row's
record depends only on its id, its params and the seed.  It prints one
line per claim to stdout; to stderr each row's wall time, then ``rng`` and
16 hex digits of a sha256 over the seeded rows' final rng states, which
pass records do not show.  A row that raises gets a fail record with the
exception class as witness and one stderr line, the other rows still run,
and the exit code is 3.  Tests run the same runner on a small table.

An instance check (one start, one pair of rects, one tiling) returns None
when the instance holds and a witness (for a tiling, the problem string)
when it fails.  A sweep yields one such result per instance and
report.first_failure consumes it, so steps is the instance count on a pass
and the instances that held before the failure on a fail.  The instance is
not always the obvious one: the enumeration count counts tilings, the fixed
orbits orbit steps and the cycle shape multiples of 3.  All checks are
exact; there are no epsilons anywhere.

Claim 1's residue-2 starts are one orbit, so the row n1.claim1 and
n1.divergence's claim-1 double check read every start off one walk from
2 (n1_claim1); every other N1 check takes each start alone.

The per-tiling theorem check lives in tiling.py beside its board table:
the random theorem sweep runs tiling.check_tiling_theorem on each Tiling,
and the exhaustive sweep counts each board's verdicts with
tiling.count_tiling_theorem, listing a board's tilings through
check_tiling_theorem only to name a failing one.  Tests check the count
against the Tiling route.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from bisect import bisect_left
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from . import a2, n1, tilefile, tiling
from .rational import Rational, ZERO, finite_sum, render
from .report import ClaimReport, first_failure

# A sweep's result: per instance, None when it holds or the witness that it fails.
Witnesses = Iterator[tuple | None]


def _per_start(starts: Iterable[int], check: Callable[[int], tuple | None]) -> Witnesses:
    """A per-start check over the starts; a failing witness leads with the start."""
    return (None if (w := check(a0)) is None else (a0,) + w for a0 in starts)


# -- A2 ---------------------------------------------------------------------------

def a2_base_case() -> Witnesses:
    """a_1 = 1/2, one instance; a failure's witness is (1, a_1)."""
    a1 = a2.extend(a2.A2Sequence.initial()).values[1]
    yield None if a1 == Rational(1, 2) else (1, render(a1))


def _random_pair(rng: random.Random) -> tuple[int, int]:
    return rng.randint(-99, 99), rng.randint(1, 30)


def a2_sum_lemmas(rng: random.Random, instances: int, max_n: int) -> Witnesses:
    """Re-indexing, remove-zero, distributivity, subtraction and negation of sums.

    Each trial draws n, then f, g and r as unreduced (p, q) pairs, and builds
    f - g, r * f and -f as pairs; only r * sum(f), f_1 + sum(f_2..) and the
    comparisons go through Rational.
    """
    for trial in range(instances):
        n = rng.randint(1, max_n)
        fs = [_random_pair(rng) for _ in range(n)]
        gs = [_random_pair(rng) for _ in range(n)]
        rp, rq = _random_pair(rng)
        sum_f = finite_sum(fs)
        checks = (
            ("reindex", finite_sum(reversed(fs)) == sum_f),
            ("remove_zero", sum_f == Rational(*fs[0]) + finite_sum(fs[1:])),
            ("distrib_left",
             Rational(rp, rq) * sum_f == finite_sum([(rp * p, rq * q) for p, q in fs])),
            ("subtractf", finite_sum([(p * s - u * q, q * s) for (p, q), (u, s) in zip(fs, gs)])
             == sum_f - finite_sum(gs)),
            ("negf", finite_sum([(-p, q) for p, q in fs]) == -sum_f),
        )
        bad = next((name for name, ok in checks if not ok), None)
        yield None if bad is None else (trial, bad, n)


def a2_subtraction_identity(max_n: int) -> Witnesses:
    """(n+1) * sum_{k<n+1} a_k/(n+1-k) - n * sum_{k<n} a_k/(n-k) is exactly zero.

    Both inner sums are computed independently by finite_sum over the
    sequence's numerators A_k; the common positive scale S (a_k = A_k / S)
    does not change whether the difference is zero.
    """
    a = a2.build(max_n).numerators

    def difference(n: int) -> Rational:
        return ((n + 1) * finite_sum(zip(a, range(n + 1, 0, -1)))
                - n * finite_sum(zip(a, range(n, 0, -1))))

    return (None if difference(n) == ZERO else (n,) for n in range(2, max_n + 1))


def a2_coefficient_positivity(max_n: int) -> Witnesses:
    """n/(n-i) - (n+1)/(n+1-i) equals i/((n-i)(n+1-i)) and is positive."""
    def holds(n: int, i: int) -> bool:
        lhs = Rational(n, n - i) - Rational(n + 1, n + 1 - i)
        return lhs == Rational(i, (n - i) * (n + 1 - i)) and lhs > ZERO

    return (None if holds(n, i) else (n, i) for n in range(2, max_n + 1) for i in range(1, n))


# -- C1 ---------------------------------------------------------------------------

def c1_counting(coord_max: int) -> Witnesses:
    """Closed-form green/yellow counts against a square-by-square count of tiling.green.

    below[x][y] counts the green squares of (0, x, 0, y), one square at a time;
    a rect's count is four entries by inclusion-exclusion.
    """
    below = [[0] * (coord_max + 1) for _ in range(coord_max + 1)]
    for x in range(coord_max):
        for y in range(coord_max):
            below[x + 1][y + 1] = (below[x][y + 1] + below[x + 1][y] - below[x][y]
                                   + tiling.green((x, y)))

    def holds(r: tiling.Rect) -> bool:
        x1, x2, y1, y2 = r
        brute_green = below[x2][y2] - below[x1][y2] - below[x2][y1] + below[x1][y1]
        k = (x2 - x1) * (y2 - y1)
        cg, cy = tiling.count_green(r), tiling.count_yellow(r)
        return cg == brute_green and cy == k - brute_green and cg + cy == k

    return (None if holds(r) else r for r in tiling.rects_inside(coord_max, coord_max))


def c1_classification_link(coord_max: int) -> Witnesses:
    """Green rects have one extra green square, yellow one extra yellow, mixed tie."""
    def witness(r: tiling.Rect) -> tuple | None:
        cg, cy = tiling.count_green(r), tiling.count_yellow(r)
        cls = tiling.classify_rect(r)
        ok = ((cls is tiling.RectClass.GREEN and cg == cy + 1)
              or (cls is tiling.RectClass.YELLOW and cy == cg + 1)
              or (cls is tiling.RectClass.MIXED and cg == cy))
        return None if ok else (r, cls.value, cg, cy)

    return map(witness, tiling.rects_inside(coord_max, coord_max))


def c1_corner_lemma(max_side: int) -> Witnesses:
    """Odd-by-odd boards are green rectangles."""
    boards = ((0, a, 0, b) for a in range(1, max_side + 1, 2)
              for b in range(1, max_side + 1, 2))
    return (None if tiling.classify_rect(r) is tiling.RectClass.GREEN else (r,)
            for r in boards)


def c1_parity_lemma(coord_max: int) -> Witnesses:
    """A green rect inside a green rect has its four gaps all even or all odd.

    Pairs built green and nested, as test_parity_row_checks_the_nested_filters_pairs_in_order pins.
    The greens keep rects_inside's order, sorted by x1, so the ones that can lie inside ro are
    the slice whose x1 lies in [ro.x1, ro.x2), in the nested filter's order.
    """
    greens = [r for r in tiling.rects_inside(coord_max, coord_max)
              if tiling.classify_rect(r) is tiling.RectClass.GREEN]
    x1s = [r[0] for r in greens]
    return (None if tiling.distance_parity(tiling.side_distances(ri, ro)) is not None
            else (ri, ro)
            for ro in greens for ri in greens[bisect_left(x1s, ro[0]):bisect_left(x1s, ro[1])]
            if ri[1] <= ro[1] and ro[2] <= ri[2] and ri[3] <= ro[3])


def _odd_boards(area_cap: int) -> Iterator[tuple[int, int]]:
    for a in range(1, area_cap + 1, 2):
        for b in range(1, area_cap // a + 1, 2):
            yield a, b


def c1_exhaustive_theorem(area_cap: int) -> Witnesses:
    """Witness + green tile on every tiling of every odd-by-odd board under the cap.

    Counts each board's verdicts with tiling.count_tiling_theorem, which
    checks the chain without visiting the tilings one by one.  Their total
    must equal tiling.count_tilings_reference, the independent square-set
    counter; totals that differ fail with both as witness.  A board whose
    count holds a failure lists its tilings with
    tiling.enumerate_tilings and runs tiling.check_tiling_theorem on each, in
    enumeration order, until report.first_failure stops at the first
    failing one, so steps and the witness name that tiling.  When the
    Tiling route finds no failure there, the two routes disagree, and the
    row fails with the count as witness.  Tests check the count against the
    Tiling route on small boards, and the acceptance test re-checks these
    tilings as Tilings.
    """
    for a, b in _odd_boards(area_cap):
        counts = tiling.count_tiling_theorem(a, b)
        reference = tiling.count_tilings_reference(a, b)
        if counts == {None: reference}:
            yield from repeat(None, reference)
            continue
        if (counted := sum(counts.values())) != reference:
            yield a, b, "the count and the reference total disagree", counted, reference
        for t in tiling.enumerate_tilings(a, b):
            problem = tiling.check_tiling_theorem(t)
            yield None if problem is None else (a, b, problem, sorted(t.tiles))
        yield a, b, "the count and the Tiling route disagree", sorted(counts.items(), key=str)


ENUMERATION_BOARDS = ((1, 1), (2, 1), (1, 3), (2, 2), (2, 3), (3, 3))


def c1_enumeration_count(boards: int) -> Witnesses:
    """Enumerator totals against the independent square-set recursive counter.

    Checks the first ``boards`` of ENUMERATION_BOARDS.  The instances are
    the enumerated tilings, so a failure counts the tilings of the boards
    before the failing one.
    """
    for a, b in ENUMERATION_BOARDS[:boards]:
        enumerated = sum(1 for _ in tiling.enumerate_tilings(a, b))
        reference = tiling.count_tilings_reference(a, b)
        if enumerated != reference:
            yield a, b, enumerated, reference
        else:
            yield from repeat(None, enumerated)


# The random C1 boards have odd sides up to 17 x 11.
RANDOM_MAX_A, RANDOM_MAX_B = 17, 11


def random_odd_board(rng: random.Random, min_side: int = 1) -> tuple[int, int]:
    a = rng.randrange(min_side, RANDOM_MAX_A + 1, 2)
    return a, rng.randrange(min_side, RANDOM_MAX_B + 1, 2)


def c1_random_theorem(rng: random.Random, count: int, pinwheels: int) -> Witnesses:
    """Guillotine tilings, then pinwheels, of odd-by-odd boards, each at a drawn board and seed.

    A failure's witness (kind, i, a, b, seed, problem) names the tiling's c1-gen call.
    """
    for kind, generate, n, min_side in (("guillotine", tiling.gen_guillotine, count, 1),
                                         ("pinwheel", tiling.random_pinwheel, pinwheels, 3)):
        for i in range(n):
            (a, b), seed = random_odd_board(rng, min_side), rng.getrandbits(63)
            problem = tiling.check_tiling_theorem(generate(a, b, seed))
            yield None if problem is None else (kind, i, a, b, seed, problem)


def c1_roundtrip(rng: random.Random, samples: int) -> Witnesses:
    """parse/serialize round-trips on generated tilings; serialize is canonical."""
    for _ in range(samples):
        (a, b), seed = random_odd_board(rng), rng.getrandbits(63)
        t = tiling.gen_guillotine(a, b, seed)
        text = tilefile.serialize_tiling(t)
        back = tilefile.parse_tiling(text)
        ok = back == t and tilefile.serialize_tiling(back) == text
        yield None if ok else (a, b, seed)


# -- N1 ---------------------------------------------------------------------------

def n1_step_image(limit: int) -> Witnesses:
    """Totality: each step lands on isqrt(x) or x + 3 and stays above 1."""
    isqrt, xs = math.isqrt, range(2, limit + 1)
    return (None if (nxt == x + 3 or nxt == isqrt(x)) and nxt > 1 else (x, nxt)
            for x, nxt in zip(xs, map(n1.n1_step, xs)))


def n1_residue_preservation(limit: int) -> Witnesses:
    """x = 0 (mod 3) exactly when its successor is."""
    xs = range(2, limit + 1)
    return (None if (x % 3 == 0) == (nxt % 3 == 0) else (x, nxt)
            for x, nxt in zip(xs, map(n1.n1_step, xs)))


def n1_fixed_orbits(a0: int) -> Witnesses:
    """The worked orbits: a0 = 7 descends through 16 to 2; 3 cycles through 3, 6, 9.

    The instances are orbit steps: 5 for the orbit of a0, then 6 for the
    orbit of 3; the detect_cycle checks on 3 and 6 can fail but add no
    steps.  A failure's witness leads with its start.
    """
    for start, m, expected in ((a0, 5, [7, 10, 13, 16, 4, 2]), (3, 6, [3, 6, 9, 3, 6, 9, 3])):
        got = n1.orbit(start, m)
        if got != expected:
            yield (start, *got)
        else:
            yield from repeat(None, m)
    for start in (3, 6):
        cycle = n1.detect_cycle(start, 10)
        if cycle != (0, 3):
            yield start, "detect_cycle", cycle


def n1_classification(max_a0: int) -> Witnesses:
    """For every 2 <= a0 <= max_a0, PeriodicMult3 exactly when 3 divides a0.

    No start may end in BudgetExceeded at n1.default_budget.
    """
    def witness(a0: int) -> tuple | None:
        cls = n1.classify(a0, n1.default_budget(a0)).classification
        ok = (cls is not n1.OrbitClass.BUDGET_EXCEEDED
              and (cls is n1.OrbitClass.PERIODIC_MULT3) == (a0 % 3 == 0))
        return None if ok else (a0, cls.value)

    return map(witness, range(2, max_a0 + 1))


def n1_cycle_shape(max_a0: int) -> Witnesses:
    """Every multiple of 3 up to max_a0 cycles through exactly {3, 6, 9}.

    A start with no cycle certificate within n1.default_budget fails with
    the cycle None.
    """
    def witness(a0: int) -> tuple | None:
        trace = n1.classify(a0, n1.default_budget(a0))
        cycle = None if trace.cycle is None else tuple(sorted(trace.cycle_values()))
        return None if cycle == (3, 6, 9) else (a0, cycle)

    return map(witness, range(3, max_a0 + 1, 3))


def n1_claim1(max_a0: int, window: int) -> Witnesses:
    """n1.check_claim1 on every residue-2 start, up to the first failure, off one walk from 2.

    The starts 2, 5, 8, ... are a_0, a_1, ... of the orbit of 2 up to its
    first break M, so one scan from 2 decides them all: start j breaks at
    M - j exactly when j <= M <= j + window.  A window below 0 checks nothing.
    """
    starts = range(2, max_a0 + 1, 3)
    broken = window >= 0 and starts and n1.check_claim1(2, window + len(starts) - 1)
    if not broken:
        return repeat(None, len(starts))
    m, *values = broken
    j = max(0, m - window)
    return chain(repeat(None, j), [(starts[j], m - j, *values)])


def n1_claim2(max_x: int) -> Witnesses:
    """The descent certificate for every eligible x up to the limit."""
    return _per_start((x for x in range(10, max_x + 1) if x % 3 != 2), n1.check_claim2)


def n1_claim3(max_a0: int) -> Witnesses:
    return _per_start(range(3, max_a0 + 1, 3),
                      lambda a0: n1.check_claim3(a0, n1.default_budget(a0)))


def n1_claim4(max_a0: int) -> Witnesses:
    return _per_start(range(4, max_a0 + 1, 3),
                      lambda a0: n1.check_claim4(a0, n1.default_budget(a0)))


def n1_small_claims() -> Witnesses:
    """The small-value sub-claims, within 10 steps: 3, 6 and 9 reach 3; 4 and 7 reach residue 2."""
    cases = [(n1.check_claim3, "claim3a", a0) for a0 in (3, 6, 9)]
    cases += [(n1.check_claim4, "claim4a", a0) for a0 in (4, 7)]
    return (None if check(a0, 10) is None else (name, a0) for check, name, a0 in cases)


def n1_divergence(max_a0: int, window: int) -> Witnesses:
    """Residue-2 starts: the first window of orbit values increases, square-free.

    Every start goes through the +3-run confirmation kernel and claim 1's direct scan of the
    same window, read off the one walk from 2 (n1_claim1), which stops at its first failing start.
    """
    for a0, direct in zip(range(2, max_a0 + 1, 3), n1_claim1(max_a0, window - 1)):
        if n1.confirm_plus3_run(a0, window) != -1:
            yield (a0,)
        else:
            yield None if direct is None else (a0, "direct scan")


def n1_mult3(max_a0: int, budget: int) -> Witnesses:
    return _per_start(range(3, max_a0 + 1, 3), lambda a0: n1.lemma_mult3_propagates(a0, budget))


def n1_nonmult3(max_a0: int, budget: int) -> Witnesses:
    return _per_start((a0 for a0 in range(2, max_a0 + 1) if a0 % 3),
                      lambda a0: n1.lemma_nonmult3_propagates(a0, budget))


def n1_gt1(max_a0: int, budget: int) -> Witnesses:
    return _per_start(range(2, max_a0 + 1), lambda a0: n1.lemma_all_gt1(a0, budget))


# -- the table and its runner -------------------------------------------------------

class Claim(NamedTuple):
    """One row: a claim id, its sweep, the sweep's params and whether it is seeded.

    A seeded row's sweep takes a random.Random as its first argument, seeded
    by the run's seed and the row's id, so its draws do not depend on the
    other rows.  The rng is not a param, so records do not print it; run
    appends its final state to rng_states when given one.  The default
    params dict is shared by the rows, so nothing writes to params.
    """

    id: str
    sweep: Callable[..., Iterable[tuple | None]]
    params: dict[str, Any] = {}
    seeded: bool = False

    def run(self, seed: int, rng_states: list | None = None) -> ClaimReport:
        rng = (random.Random(f"{seed} {self.id}"),) if self.seeded else ()
        rep = first_failure(self.id, self.params, self.sweep(*rng, **self.params))
        if rng_states is not None:
            rng_states += (r.getstate() for r in rng)
        return rep


# The rows run and print in this order; a seeded row draws from its own rng, so the
# order changes no record.
CLAIMS: tuple[Claim, ...] = (
    Claim("a2.base_case", a2_base_case),
    Claim("a2.verify", a2.verify, {"n_max": 200}),
    Claim("a2.sum_lemmas", a2_sum_lemmas, {"instances": 500, "max_n": 12}, seeded=True),
    Claim("a2.subtraction_identity", a2_subtraction_identity, {"max_n": 50}),
    Claim("a2.coefficient_positivity", a2_coefficient_positivity, {"max_n": 50}),
    Claim("c1.counting", c1_counting, {"coord_max": 12}),
    Claim("c1.classification_link", c1_classification_link, {"coord_max": 12}),
    Claim("c1.corner_lemma", c1_corner_lemma, {"max_side": 15}),
    Claim("c1.parity_lemma_exhaustive", c1_parity_lemma, {"coord_max": 9}),
    Claim("c1.theorem_exhaustive", c1_exhaustive_theorem, {"area_cap": 16}),
    Claim("c1.enumeration_count", c1_enumeration_count, {"boards": 6}),
    Claim("c1.theorem_random", c1_random_theorem, {"count": 1000, "pinwheels": 50},
          seeded=True),
    Claim("c1.roundtrip", c1_roundtrip, {"samples": 25}, seeded=True),
    Claim("n1.square_mod3_ne2", n1.lemma_square_mod3_ne2, {"scan_limit": 10 ** 4}),
    Claim("n1.three_squares_mod3", n1.lemma_three_squares_mod3, {"scan_limit": 10 ** 4}),
    Claim("n1.square_mod3_zero", n1.lemma_square_mod3_zero, {"scan_limit": 10 ** 4}),
    Claim("n1.step_image", n1_step_image, {"limit": 10 ** 5}),
    Claim("n1.residue_preservation", n1_residue_preservation, {"limit": 10 ** 5}),
    Claim("n1.fixed_orbits", n1_fixed_orbits, {"a0": 7}),
    Claim("n1.classification", n1_classification, {"max_a0": 10 ** 4}),
    Claim("n1.cycle_shape", n1_cycle_shape, {"max_a0": 10 ** 4}),
    Claim("n1.claim1", n1_claim1, {"max_a0": 1000, "window": 200}),
    Claim("n1.claim2_certificate", n1_claim2, {"max_x": 10 ** 4}),
    Claim("n1.claim3", n1_claim3, {"max_a0": 1000}),
    Claim("n1.claim4", n1_claim4, {"max_a0": 1000}),
    Claim("n1.small_claims", n1_small_claims),
    Claim("n1.divergence", n1_divergence, {"max_a0": 10 ** 4, "window": 1000}),
    Claim("n1.mult3_propagates", n1_mult3, {"max_a0": 1000, "budget": 300}),
    Claim("n1.nonmult3_propagates", n1_nonmult3, {"max_a0": 1000, "budget": 300}),
    Claim("n1.all_gt1", n1_gt1, {"max_a0": 1000, "budget": 300}),
)


def _human_line(rep: ClaimReport) -> str:
    tag = "PASS" if rep.outcome else "FAIL"
    extras = " ".join(f"{k}={v}" for k, v in rep.params.items())
    line = f"{tag} {rep.claim_id} {extras}".rstrip()
    if not rep.outcome and rep.witness:
        line += f" witness={rep.witness}"
    return line


def run_suite(seed: int, records: bool, out: TextIO, err: TextIO,
              claims: Sequence[Claim] = CLAIMS) -> int:
    """Run the rows in order, each with the run's ``seed``.

    Exit code 0 when every claim passes, 1 when one fails, 3 when a row
    raised (which takes precedence).
    """
    diagnostics = err if records else out
    print(f"suite seed={seed}", file=diagnostics)
    failures = 0
    raised = False
    rng_states: list = []
    for claim in claims:
        t0 = time.perf_counter()
        try:
            rep = claim.run(seed, rng_states)
        except Exception as exc:
            raised = True
            kind = type(exc).__name__
            message = " ".join(str(exc).split())
            print(f"imocheck: claim {claim.id} raised {kind}: {message}", file=err)
            rep = first_failure(claim.id, {}, [(kind,)])
        elapsed = time.perf_counter() - t0
        print(rep.record_line() if records else _human_line(rep), file=out)
        failures += not rep.outcome
        print(f"time {claim.id} {elapsed:.3f}s", file=err)
    print(f"rng {hashlib.sha256(repr(rng_states).encode()).hexdigest()[:16]}", file=err)
    print(f"{len(claims) - failures}/{len(claims)} claims passed", file=diagnostics)
    if raised:
        return 3
    return 0 if failures == 0 else 1
