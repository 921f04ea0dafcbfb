"""The claim suite: every lemma, claim and theorem check as one battery.

Each function returns ClaimReports; ``run_suite`` executes the whole battery
with a single seed, prints one line per claim (human text or record lines)
and aggregates the exit code.  All checks are exact; there are no epsilons
anywhere.

Per-tiling theorem checks have two entry points with the same problem
strings.  check_tiling_theorem takes any Tiling (random, pinwheel, parsed
files).  check_raw_tiling_theorem takes a raw tile sequence plus the
board's tiling.board_table and runs the whole chain in one pass over the
tiles, with validity as a union of square bit masks; c1.theorem_exhaustive
runs it on the enumerator's tuples.  tests/test_suite.py checks the two
against each other on every tiling of every board of area at most 12 and on
mutated tile lists.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TextIO

from . import a2, backend, n1, tiling
from .errors import TheoremViolationError
from .rational import Rational, ZERO, finite_sum
from .report import ClaimReport, failed, passed


@dataclass
class SuiteConfig:
    a2_max_index: int = 200
    c1_area_cap: int = 16
    c1_random_count: int = 1000
    c1_pinwheel_count: int = 50
    n1_max_a0: int = 10_000
    n1_budget_scale: int = 4
    n1_budget_offset: int = 1000
    seed: int = 20170901
    records: bool = False

    def validate(self) -> None:
        caps = (self.a2_max_index, self.c1_area_cap, self.c1_random_count,
                self.c1_pinwheel_count, self.n1_max_a0)
        if any(c < 1 for c in caps):
            raise ValueError("all suite caps must be positive")
        if self.n1_budget_scale < 0 or self.n1_budget_offset < 0:
            raise ValueError("budget formula parameters must be non-negative")
        if self.n1_budget_scale == 0 and self.n1_budget_offset == 0:
            raise ValueError("budget formula must yield at least one step")
        if self.c1_area_cap > tiling.ENUM_AREA_CAP:
            raise ValueError(f"c1 area cap above the enumeration guard "
                             f"{tiling.ENUM_AREA_CAP}")

    def budget_for(self, a0: int) -> int:
        return self.n1_budget_scale * a0 + self.n1_budget_offset


# -- A2 battery ----------------------------------------------------------------

def a2_base_case_report() -> ClaimReport:
    seq = a2.extend(a2.A2Sequence.initial())
    if seq.values[1] == Rational(1, 2):
        return passed("a2.base_case", steps=1)
    return failed("a2.base_case", witness=(a2.render_lines(seq)[1],))


def _random_rational(rng: random.Random) -> Rational:
    return Rational(rng.randint(-99, 99), rng.randint(1, 30))


def a2_sum_lemma_report(rng: random.Random, instances: int = 500,
                        max_n: int = 12) -> ClaimReport:
    """Re-indexing, remove-zero, distributivity, subtraction and negation of sums."""
    params = {"instances": instances, "max_n": max_n}
    for trial in range(instances):
        n = rng.randint(1, max_n)
        fs = [_random_rational(rng) for _ in range(n)]
        gs = [_random_rational(rng) for _ in range(n)]
        r = _random_rational(rng)
        f = fs.__getitem__
        g = gs.__getitem__
        checks = (
            ("reindex", finite_sum(lambda i: f(n - 1 - i), 0, n) == finite_sum(f, 0, n)),
            ("remove_zero", finite_sum(f, 0, n) == f(0) + finite_sum(f, 1, n)),
            ("distrib_left", r * finite_sum(f, 0, n) == finite_sum(lambda i: r * f(i), 0, n)),
            ("subtractf", finite_sum(lambda i: f(i) - g(i), 0, n)
             == finite_sum(f, 0, n) - finite_sum(g, 0, n)),
            ("negf", finite_sum(lambda i: -f(i), 0, n) == -finite_sum(f, 0, n)),
        )
        for name, ok in checks:
            if not ok:
                return failed("a2.sum_lemmas", params, (trial, name, n), trial)
    return passed("a2.sum_lemmas", params, steps=instances)


def a2_subtraction_identity_report(max_n: int = 50) -> ClaimReport:
    """(n+1) * sum_{k<n+1} a_k/(n+1-k) - n * sum_{k<n} a_k/(n-k) is exactly zero.

    Both inner sums are computed independently by finite_sum over the exact
    sequence values.
    """
    seq = a2.build(max_n)
    a = seq.values
    params = {"max_n": max_n}
    for n in range(2, max_n + 1):
        lhs = ((n + 1) * finite_sum(lambda k: a[k] / (n + 1 - k), 0, n + 1)
               - n * finite_sum(lambda k: a[k] / (n - k), 0, n))
        if lhs != ZERO:
            return failed("a2.subtraction_identity", params, (n,), n)
    return passed("a2.subtraction_identity", params, steps=max_n - 1)


def a2_coefficient_positivity_report(max_n: int = 50) -> ClaimReport:
    """n/(n-i) - (n+1)/(n+1-i) equals i/((n-i)(n+1-i)) and is positive."""
    params = {"max_n": max_n}
    checked = 0
    for n in range(2, max_n + 1):
        for i in range(1, n):
            lhs = Rational(n, n - i) - Rational(n + 1, n + 1 - i)
            rhs = Rational(i, (n - i) * (n + 1 - i))
            if lhs != rhs or not lhs > ZERO:
                return failed("a2.coefficient_positivity", params, (n, i), checked)
            checked += 1
    return passed("a2.coefficient_positivity", params, steps=checked)


def a2_battery(cfg: SuiteConfig, rng: random.Random) -> Iterator[ClaimReport]:
    yield a2_base_case_report()
    yield a2.verify(cfg.a2_max_index)
    yield a2_sum_lemma_report(rng)
    yield a2_subtraction_identity_report()
    yield a2_coefficient_positivity_report()


# -- C1 battery ----------------------------------------------------------------

def _all_rects(coord_max: int) -> Iterator[tiling.Rect]:
    for x1 in range(coord_max):
        for x2 in range(x1 + 1, coord_max + 1):
            for y1 in range(coord_max):
                for y2 in range(y1 + 1, coord_max + 1):
                    yield (x1, x2, y1, y2)


def c1_counting_report(coord_max: int = 12) -> ClaimReport:
    """Closed-form green/yellow counts against brute-force square enumeration."""
    params = {"coord_max": coord_max}
    checked = 0
    for r in _all_rects(coord_max):
        brute_green = sum(1 for s in tiling.squares(r) if tiling.green(s))
        cg, cy = tiling.count_green(r), tiling.count_yellow(r)
        if cg != brute_green or cy != tiling.area(r) - brute_green or cg + cy != tiling.area(r):
            return failed("c1.counting", params, r, checked)
        checked += 1
    return passed("c1.counting", params, steps=checked)


def c1_classification_link_report(coord_max: int = 12) -> ClaimReport:
    """Green rects have one extra green square, yellow one extra yellow, mixed tie."""
    params = {"coord_max": coord_max}
    checked = 0
    for r in _all_rects(coord_max):
        cg, cy = tiling.count_green(r), tiling.count_yellow(r)
        cls = tiling.classify_rect(r)
        ok = ((cls is tiling.RectClass.GREEN and cg == cy + 1)
              or (cls is tiling.RectClass.YELLOW and cy == cg + 1)
              or (cls is tiling.RectClass.MIXED and cg == cy))
        if not ok:
            return failed("c1.classification_link", params, (r, cls.value, cg, cy), checked)
        checked += 1
    return passed("c1.classification_link", params, steps=checked)


def c1_corner_lemma_report(max_side: int = 15) -> ClaimReport:
    """Odd-by-odd boards are green rectangles."""
    params = {"max_side": max_side}
    checked = 0
    for a in range(1, max_side + 1, 2):
        for b in range(1, max_side + 1, 2):
            if tiling.classify_rect((0, a, 0, b)) is not tiling.RectClass.GREEN:
                return failed("c1.corner_lemma", params, ((0, a, 0, b),), checked)
            checked += 1
    return passed("c1.corner_lemma", params, steps=checked)


def c1_parity_lemma_report(coord_max: int = 9) -> ClaimReport:
    """Exhaustive green-inside-green distance parity over small coordinates."""
    params = {"coord_max": coord_max}
    greens = [r for r in _all_rects(coord_max)
              if tiling.classify_rect(r) is tiling.RectClass.GREEN]
    checked = 0
    for ro in greens:
        for ri in greens:
            if tiling.inside(ri, ro):
                if not tiling.parity_lemma_check(ri, ro).outcome:
                    return failed("c1.parity_lemma_exhaustive", params, (ri, ro), checked)
                checked += 1
    return passed("c1.parity_lemma_exhaustive", params, steps=checked)


def check_tiling_theorem(t: tiling.Tiling) -> str | None:
    """The full per-tiling chain; None when everything holds.

    Validity, witness existence, green-tile existence, the green tile itself
    satisfying the distance parity, and the disjoint-union square counts.
    """
    if not tiling.is_valid_tiling(t):
        return "invalid tiling"
    try:
        tiling.witness(t)
    except TheoremViolationError:
        return "no parity witness"
    try:
        g = tiling.find_green_tile(t)
    except TheoremViolationError:
        return "no green tile"
    if tiling.distance_parity(tiling.side_distances(g, t.board)) is None:
        return "green tile fails distance parity"
    if sum(tiling.count_green(r) for r in t.tiles) != tiling.count_green(t.board):
        return "green square counts do not add up"
    if sum(tiling.count_yellow(r) for r in t.tiles) != tiling.count_yellow(t.board):
        return "yellow square counts do not add up"
    return None


def check_raw_tiling_theorem(table: tiling.BoardTable, tiles: Iterable[tiling.Rect]
                             ) -> tuple[str | None, tiling.Rect | None, tiling.Rect | None]:
    """check_tiling_theorem on a raw tile sequence, in one pass over a board table.

    Returns (problem, first parity witness, first green tile); the problem
    strings are check_tiling_theorem's, and the two tiles are the ones
    tiling.witness and tiling.find_green_tile pick (None when the tiling is
    invalid or has no such tile).  Validity is the literal square-set
    definition evaluated on bit masks: a tile missing from the table is
    invalid or outside the board, a tile sharing a bit with the union so far
    overlaps it (a repeated tile included), and the union must end as the
    full board.
    """
    facts = table.facts
    occ = 0
    greens = yellows = 0
    first_witness = first_green = None
    for r in sorted(tiles, key=tiling.lex_key):
        f = facts.get(r)
        if f is None:
            return "invalid tiling", None, None
        mask, parity, is_green, cg, cy = f
        if occ & mask:
            return "invalid tiling", None, None
        occ |= mask
        if first_witness is None and parity is not None:
            first_witness = r
        if first_green is None and is_green:
            first_green = r
        greens += cg
        yellows += cy
    if occ != table.full:
        return "invalid tiling", None, None
    if first_witness is None:
        problem = "no parity witness"
    elif first_green is None:
        problem = "no green tile"
    elif facts[first_green][1] is None:
        problem = "green tile fails distance parity"
    elif greens != table.count_green:
        problem = "green square counts do not add up"
    elif yellows != table.count_yellow:
        problem = "yellow square counts do not add up"
    else:
        problem = None
    return problem, first_witness, first_green


def _odd_boards(area_cap: int) -> Iterator[tuple[int, int]]:
    for a in range(1, area_cap + 1, 2):
        for b in range(1, area_cap // a + 1, 2):
            yield a, b


def c1_exhaustive_theorem_report(area_cap: int = 16) -> ClaimReport:
    """Witness + green tile on every tiling of every odd-by-odd board under the cap.

    Runs check_raw_tiling_theorem on the enumerator's tuples with one
    BoardTable per board, so no Tiling is built; the acceptance test checks
    the same tilings through check_tiling_theorem's own primitives.
    """
    params = {"area_cap": area_cap}
    checked = 0
    for a, b in _odd_boards(area_cap):
        table = tiling.board_table(a, b)
        for tiles in backend.enum_tilings(a, b):
            problem = check_raw_tiling_theorem(table, tiles)[0]
            if problem is not None:
                return failed("c1.theorem_exhaustive", params,
                              (a, b, problem, sorted(tiles)), checked)
            checked += 1
    return passed("c1.theorem_exhaustive", params, steps=checked)


def c1_enumeration_count_report() -> ClaimReport:
    """Enumerator totals against the independent square-set recursive counter."""
    boards = [(1, 1), (2, 1), (1, 3), (2, 2), (2, 3), (3, 3)]
    params = {"boards": len(boards)}
    total = 0
    for a, b in boards:
        enumerated = sum(1 for _ in tiling.enumerate_tilings(a, b))
        reference = tiling.count_tilings_reference(a, b)
        if enumerated != reference:
            return failed("c1.enumeration_count", params, (a, b, enumerated, reference))
        total += enumerated
    return passed("c1.enumeration_count", params, steps=total)


def random_odd_board(rng: random.Random, max_a: int = 17, max_b: int = 11,
                     min_side: int = 1) -> tuple[int, int]:
    a = rng.randrange(min_side, max_a + 1, 2)
    b = rng.randrange(min_side, max_b + 1, 2)
    return a, b


def c1_random_theorem_report(rng: random.Random, count: int = 1000,
                             pinwheels: int = 50) -> ClaimReport:
    """Seeded guillotine tilings plus pinwheel fixtures, all of odd-by-odd boards."""
    params = {"count": count, "pinwheels": pinwheels}
    for i in range(count):
        a, b = random_odd_board(rng)
        t = tiling.gen_guillotine(a, b, rng.getrandbits(63))
        problem = check_tiling_theorem(t)
        if problem is not None:
            return failed("c1.theorem_random", params, ("guillotine", i, a, b, problem), i)
    for i in range(pinwheels):
        a, b = random_odd_board(rng, min_side=3)
        cx1, cx2 = sorted(rng.sample(range(1, a), 2))
        cy1, cy2 = sorted(rng.sample(range(1, b), 2))
        t = tiling.pinwheel(a, b, cx1, cx2, cy1, cy2)
        problem = check_tiling_theorem(t)
        if problem is not None:
            return failed("c1.theorem_random", params, ("pinwheel", i, a, b, problem),
                          count + i)
    return passed("c1.theorem_random", params, steps=count + pinwheels)


def c1_roundtrip_report(rng: random.Random, samples: int = 25) -> ClaimReport:
    """parse/serialize round-trips on generated tilings; serialize is canonical."""
    params = {"samples": samples}
    for i in range(samples):
        a, b = random_odd_board(rng)
        t = tiling.gen_guillotine(a, b, rng.getrandbits(63))
        text = tiling.serialize_tiling(t)
        back = tiling.parse_tiling(text)
        if back != t or tiling.serialize_tiling(back) != text:
            return failed("c1.roundtrip", params, (a, b), i)
    return passed("c1.roundtrip", params, steps=samples)


def c1_battery(cfg: SuiteConfig, rng: random.Random) -> Iterator[ClaimReport]:
    yield c1_counting_report()
    yield c1_classification_link_report()
    yield c1_corner_lemma_report()
    yield c1_parity_lemma_report()
    yield c1_exhaustive_theorem_report(cfg.c1_area_cap)
    yield c1_enumeration_count_report()
    yield c1_random_theorem_report(rng, cfg.c1_random_count, cfg.c1_pinwheel_count)
    yield c1_roundtrip_report(rng)


# -- N1 battery ----------------------------------------------------------------

def n1_step_image_report(limit: int = 10 ** 5) -> ClaimReport:
    """Totality: each step lands on isqrt(x) or x + 3 and stays above 1."""
    params = {"limit": limit}
    for x in range(2, limit + 1):
        nxt = n1.n1_step(x)
        if nxt not in (n1.isqrt(x), x + 3) or nxt <= 1:
            return failed("n1.step_image", params, (x, nxt), x)
    return passed("n1.step_image", params, steps=limit - 1)


def n1_residue_preservation_report(limit: int = 10 ** 5) -> ClaimReport:
    """x = 0 (mod 3) exactly when its successor is."""
    params = {"limit": limit}
    for x in range(2, limit + 1):
        if (x % 3 == 0) != (n1.n1_step(x) % 3 == 0):
            return failed("n1.residue_preservation", params, (x, n1.n1_step(x)), x)
    return passed("n1.residue_preservation", params, steps=limit - 1)


def n1_fixed_orbit_report() -> ClaimReport:
    """The worked orbits: 7 descends through 16 to 2; 3 cycles through 3, 6, 9."""
    if n1.orbit(7, 5) != [7, 10, 13, 16, 4, 2]:
        return failed("n1.fixed_orbits", {"a0": 7}, tuple(n1.orbit(7, 5)))
    if n1.orbit(3, 6) != [3, 6, 9, 3, 6, 9, 3]:
        return failed("n1.fixed_orbits", {"a0": 3}, tuple(n1.orbit(3, 6)))
    if n1.detect_cycle(3, 10) != (0, 3) or n1.detect_cycle(6, 10) != (0, 3):
        return failed("n1.fixed_orbits", {"a0": 3}, ("detect_cycle",))
    return passed("n1.fixed_orbits", {"a0": 7}, steps=11)


def n1_classification_reports(max_a0: int,
                              budget_for: Callable[[int], int]) -> list[ClaimReport]:
    """One sweep, two claims: the classification theorem and the cycle shape.

    For every 2 <= a0 <= max_a0 the outcome must be PeriodicMult3 exactly
    when a0 is a multiple of 3, with no BudgetExceeded; every cycle's value
    set must be exactly {3, 6, 9}.  The classification counts every start,
    the cycle shape every periodic one.
    """
    params = {"max_a0": max_a0}
    class_fail = None
    shape_fail = None
    starts = cycles = 0
    for a0 in range(2, max_a0 + 1):
        trace = n1.classify(a0, budget_for(a0))
        starts += 1
        periodic = trace.classification is n1.OrbitClass.PERIODIC_MULT3
        exceeded = trace.classification is n1.OrbitClass.BUDGET_EXCEEDED
        if class_fail is None and (exceeded or periodic != (a0 % 3 == 0)):
            class_fail = (a0, trace.classification.value)
        if periodic:
            cycles += 1
            if shape_fail is None and trace.cycle_values() != {3, 6, 9}:
                shape_fail = (a0, tuple(sorted(trace.cycle_values())))
    reports = []
    if class_fail is None:
        reports.append(passed("n1.classification", params, steps=starts))
    else:
        reports.append(failed("n1.classification", params, class_fail, starts))
    if shape_fail is None:
        reports.append(passed("n1.cycle_shape", params, steps=cycles))
    else:
        reports.append(failed("n1.cycle_shape", params, shape_fail, cycles))
    return reports


def n1_claim1_report(max_a0: int = 1000, window: int = 200) -> ClaimReport:
    params = {"max_a0": max_a0, "window": window}
    checked = 0
    for a0 in range(2, max_a0 + 1):
        if a0 % 3 != 2:
            continue
        rep = n1.check_claim1(a0, 0, window)
        if not rep.outcome:
            return failed("n1.claim1", params, rep.witness, checked)
        checked += 1
    return passed("n1.claim1", params, steps=checked)


def n1_claim2_report(max_x: int = 10 ** 4) -> ClaimReport:
    """The descent certificate for every eligible x up to the limit."""
    params = {"max_x": max_x}
    checked = 0
    for x in range(10, max_x + 1):
        if x % 3 == 2:
            continue
        rep = n1.check_claim2(x)
        if not rep.outcome:
            return failed("n1.claim2_certificate", params, (x,) + rep.witness, checked)
        checked += 1
    return passed("n1.claim2_certificate", params, steps=checked)


def n1_claim3_report(max_a0: int, budget_for: Callable[[int], int]) -> ClaimReport:
    params = {"max_a0": max_a0}
    for a0 in range(3, max_a0 + 1, 3):
        rep = n1.check_claim3(a0, 0, budget_for(a0))
        if not rep.outcome:
            return failed("n1.claim3", params, (a0,) + rep.witness)
    return passed("n1.claim3", params, steps=max_a0 // 3)


def n1_claim4_report(max_a0: int, budget_for: Callable[[int], int]) -> ClaimReport:
    params = {"max_a0": max_a0}
    checked = 0
    for a0 in range(2, max_a0 + 1):
        if a0 % 3 != 1:
            continue
        rep = n1.check_claim4(a0, 0, budget_for(a0))
        if not rep.outcome:
            return failed("n1.claim4", params, (a0,) + rep.witness, checked)
        checked += 1
    return passed("n1.claim4", params, steps=checked)


def n1_small_claims_report() -> ClaimReport:
    """The small-value sub-claims: a_n in {3, 6, 9} reaches 3; {4, 7} reach residue 2."""
    for a0 in (3, 6, 9):
        if not n1.check_claim3a(a0, 0, 10).outcome:
            return failed("n1.small_claims", witness=("claim3a", a0))
    for a0 in (4, 7):
        if not n1.check_claim4a(a0, 0, 10).outcome:
            return failed("n1.small_claims", witness=("claim4a", a0))
    return passed("n1.small_claims", steps=5)


def n1_divergence_report(max_a0: int = 10 ** 4, window: int = 1000) -> ClaimReport:
    """Residue-2 starts: the first window of orbit values increases, square-free.

    The full range goes through the +3-run confirmation kernel; small starts
    are double-checked by a direct orbit scan.
    """
    params = {"max_a0": max_a0, "window": window}
    checked = 0
    for a0 in range(2, max_a0 + 1):
        if a0 % 3 != 2:
            continue
        if backend.confirm_plus3_run(a0, window) != -1:
            return failed("n1.divergence", params, (a0,), checked)
        if a0 <= 500:
            vals = n1.orbit(a0, window - 1)
            increasing = all(u < v for u, v in zip(vals, vals[1:]))
            if not increasing or any(n1.is_perfect_square(v) for v in vals):
                return failed("n1.divergence", params, (a0, "direct scan"), checked)
        checked += 1
    return passed("n1.divergence", params, steps=checked)


def n1_propagation_reports(max_a0: int = 1000, budget: int = 300) -> list[ClaimReport]:
    params = {"max_a0": max_a0, "budget": budget}
    for a0 in range(3, max_a0 + 1, 3):
        rep = n1.lemma_mult3_propagates(a0, budget)
        if not rep.outcome:
            return [failed("n1.mult3_propagates", params, (a0,) + rep.witness)]
    out = [passed("n1.mult3_propagates", params, steps=max_a0 // 3)]
    checked = 0
    for a0 in range(2, max_a0 + 1):
        if a0 % 3 == 0:
            continue
        rep = n1.lemma_nonmult3_propagates(a0, budget)
        if not rep.outcome:
            out.append(failed("n1.nonmult3_propagates", params, (a0,) + rep.witness,
                              checked))
            return out
        checked += 1
    out.append(passed("n1.nonmult3_propagates", params, steps=checked))
    return out


def n1_gt1_report(max_a0: int = 1000, budget: int = 300) -> ClaimReport:
    params = {"max_a0": max_a0, "budget": budget}
    for a0 in range(2, max_a0 + 1):
        rep = n1.lemma_all_gt1(a0, budget)
        if not rep.outcome:
            return failed("n1.all_gt1", params, (a0,) + rep.witness)
    return passed("n1.all_gt1", params, steps=max_a0 - 1)


def n1_battery(cfg: SuiteConfig) -> Iterator[ClaimReport]:
    yield n1.lemma_square_mod3_ne2()
    yield n1.lemma_three_squares_mod3()
    yield n1.lemma_square_mod3_zero()
    yield n1_step_image_report()
    yield n1_residue_preservation_report()
    yield n1_fixed_orbit_report()
    yield from n1_classification_reports(cfg.n1_max_a0, cfg.budget_for)
    yield n1_claim1_report()
    yield n1_claim2_report()
    yield n1_claim3_report(1000, cfg.budget_for)
    yield n1_claim4_report(1000, cfg.budget_for)
    yield n1_small_claims_report()
    yield n1_divergence_report()
    yield from n1_propagation_reports()
    yield n1_gt1_report()


# -- runner ----------------------------------------------------------------------

def run_suite(cfg: SuiteConfig, out: TextIO | None = None,
              err: TextIO | None = None) -> int:
    """Run the battery; exit code 0 iff every claim passes."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    cfg.validate()
    rng = random.Random(cfg.seed)
    seed_line = f"suite seed={cfg.seed}"
    print(seed_line, file=err if cfg.records else out)
    failures = 0
    count = 0
    for rep in _full_battery(cfg, rng):
        count += 1
        if cfg.records:
            print(rep.record_line(), file=out)
        else:
            tag = "PASS" if rep.outcome else "FAIL"
            extras = " ".join(f"{k}={v}" for k, v in rep.params.items())
            line = f"{tag} {rep.claim_id} {extras}".rstrip()
            if not rep.outcome and rep.witness:
                line += f" witness={rep.witness}"
            print(line, file=out)
        if not rep.outcome:
            failures += 1
    summary = f"{count - failures}/{count} claims passed"
    print(summary, file=err if cfg.records else out)
    return 0 if failures == 0 else 1


def _full_battery(cfg: SuiteConfig, rng: random.Random) -> Iterator[ClaimReport]:
    yield from a2_battery(cfg, rng)
    yield from c1_battery(cfg, rng)
    yield from n1_battery(cfg)
