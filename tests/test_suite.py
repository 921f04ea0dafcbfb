import dataclasses
import io
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from imocheck import cli, n1, report, suite, tiling
from imocheck.errors import TheoremViolationError
from imocheck.report import ClaimReport
from test_cli import RECORD_RE

DATA = Path(__file__).parent / "data"


def _run(claim_id, rng=None, **params):
    """The suite.CLAIMS row ``claim_id``, run with ``params`` over the row's own."""
    row = next(c for c in suite.CLAIMS if c.id == claim_id)
    return dataclasses.replace(row, params={**row.params, **params}).run(rng)


def test_record_line_grammar():
    rep = ClaimReport("x.y", {"a0": 7, "n": 0}, True, ("w1", (0, 1, 0, 1)), 12)
    line = rep.record_line()
    assert re.fullmatch(r"CLAIM \S+( \S+=\S+)* outcome=(pass|fail)", line)
    assert line.startswith("CLAIM x.y a0=7 n=0 steps=12 witness=")
    assert line.endswith("outcome=pass")


def test_claim_report_is_immutable_and_equal_by_its_fields():
    rep = ClaimReport("x.y", {"n": 3}, False, (2, "positivity"), 1)
    assert rep == ClaimReport("x.y", {"n": 3}, False, (2, "positivity"), 1)
    assert rep != ClaimReport("x.y", {"n": 3}, False, (2, "positivity"), 2)
    with pytest.raises(AttributeError):
        rep.outcome = True


def test_a2_reports_pass():
    rng = random.Random(0)
    assert _run("a2.base_case").outcome
    assert _run("a2.sum_lemmas", rng, instances=60, max_n=12).outcome
    assert _run("a2.subtraction_identity", max_n=20).outcome
    assert _run("a2.coefficient_positivity", max_n=20).outcome


def test_c1_reports_pass():
    rng = random.Random(1)
    assert _run("c1.counting", coord_max=8).outcome
    assert _run("c1.classification_link", coord_max=8).outcome
    assert _run("c1.corner_lemma", max_side=9).outcome
    assert _run("c1.parity_lemma_exhaustive", coord_max=6).outcome
    assert _run("c1.theorem_exhaustive", area_cap=9).outcome
    assert _run("c1.theorem_random", rng, count=25, pinwheels=5).outcome
    assert _run("c1.roundtrip", rng, samples=5).outcome


def test_n1_reports_pass():
    assert _run("n1.classification", max_a0=300).outcome
    assert _run("n1.cycle_shape", max_a0=300).outcome
    assert _run("n1.claim1", max_a0=100, window=50).outcome
    assert _run("n1.claim2_certificate", max_x=300).outcome
    assert _run("n1.claim3", max_a0=100).outcome
    assert _run("n1.claim4", max_a0=100).outcome
    assert _run("n1.small_claims").outcome
    assert _run("n1.divergence", max_a0=300, window=200).outcome
    assert _run("n1.mult3_propagates", max_a0=100, budget=50).outcome
    assert _run("n1.nonmult3_propagates", max_a0=100, budget=50).outcome
    assert _run("n1.all_gt1", max_a0=100, budget=50).outcome


def test_base_case_failure_is_one_record_line(monkeypatch):
    from imocheck import a2
    monkeypatch.setattr(a2, "extend", lambda seq: a2.A2Sequence(3 * seq.scale, tuple(
        3 * a for a in seq.numerators) + (seq.scale,)))              # appends a_1 = 1/3
    line = _run("a2.base_case").record_line()
    assert line == "CLAIM a2.base_case steps=0 witness=1;1/3 outcome=fail"
    assert RECORD_RE.match(line)


def test_n1_steps_count_the_starts_checked():
    assert _run("n1.classification", max_a0=100).steps == 99       # 2..100
    assert _run("n1.cycle_shape", max_a0=100).steps == 33          # 3, 6, ..., 99
    assert _run("n1.claim1", max_a0=100, window=50).steps == 33    # 2, 5, ..., 98
    assert _run("n1.claim4", max_a0=100).steps == 33               # 4, 7, ..., 100
    assert _run("n1.divergence", max_a0=100, window=50).steps == 33
    mult3 = _run("n1.mult3_propagates", max_a0=100, budget=50)
    nonmult3 = _run("n1.nonmult3_propagates", max_a0=100, budget=50)
    assert (mult3.steps, nonmult3.steps) == (33, 66)


def test_small_claims_failure_counts_the_cases_before_it(monkeypatch):
    claim3 = n1.check_claim3
    monkeypatch.setattr(n1, "check_claim3",
                        lambda a0, budget: ("broken",) if a0 == 6 else claim3(a0, budget))
    rep = _run("n1.small_claims")
    assert (rep.outcome, rep.witness, rep.steps) == (False, ("claim3a", 6), 1)   # 3 held


def test_fixed_orbits_failure_in_the_orbit_of_3_keeps_a0_7(monkeypatch):
    orbit = n1.orbit
    monkeypatch.setattr(n1, "orbit",
                        lambda a0, m: [3, 6, 9, 3, 6, 9, 4] if a0 == 3 else orbit(a0, m))
    rep = _run("n1.fixed_orbits")
    assert (rep.outcome, rep.params, rep.witness, rep.steps) == (
        False, {"a0": 7}, (3, 3, 6, 9, 3, 6, 9, 4), 5)          # the orbit of 7 held
    assert rep.record_line() == (
        "CLAIM n1.fixed_orbits a0=7 steps=5 witness=3;3;6;9;3;6;9;4 outcome=fail")


def test_fixed_orbits_failure_in_detect_cycle_counts_both_orbits(monkeypatch):
    monkeypatch.setattr(n1, "detect_cycle", lambda a0, budget: None)
    rep = _run("n1.fixed_orbits")
    assert (rep.outcome, rep.params, rep.witness, rep.steps) == (
        False, {"a0": 7}, (3, "detect_cycle", None), 11)
    assert rep.record_line() == (
        "CLAIM n1.fixed_orbits a0=7 steps=11 witness=3;detect_cycle;None outcome=fail")


def test_enumeration_count_failure_counts_the_tilings_before_it(monkeypatch):
    reference = tiling.count_tilings_reference
    monkeypatch.setattr(tiling, "count_tilings_reference",
                        lambda a, b: 9 if (a, b) == (2, 2) else reference(a, b))
    rep = _run("c1.enumeration_count")
    assert (rep.outcome, rep.witness) == (False, (2, 2, 8, 9))
    assert rep.steps == 1 + 2 + 4   # the tilings of 1x1, 2x1 and 1x3
    rep = _run("c1.enumeration_count", boards=3)   # stops before the 2x2 board
    assert (rep.outcome, rep.steps) == (True, 1 + 2 + 4)


def test_check_tiling_theorem_flags_bad_input():
    from imocheck.tiling import Tiling
    bad = Tiling((0, 2, 0, 1), frozenset([(0, 1, 0, 1)]))
    assert tiling.check_tiling_theorem(bad) == "invalid tiling"


def test_check_tiling_theorem_lets_programming_errors_through(monkeypatch):
    from imocheck import tiling

    def broken_witness(t):
        raise TypeError("a bug, not a theorem failure")

    monkeypatch.setattr(tiling, "witness", broken_witness)
    with pytest.raises(TypeError):
        tiling.check_tiling_theorem(tiling.gen_guillotine(3, 3, 0))


def test_first_failure_counts_the_instances_before_it():
    consumed = []

    def witnesses():
        for w in [None, None, (7,), None]:
            consumed.append(w)
            yield w

    rep = report.first_failure("x.y", {"n": 4}, witnesses())
    assert (rep.outcome, rep.witness, rep.steps, rep.params) == (False, (7,), 2, {"n": 4})
    assert len(consumed) == 3   # the sweep stops at the failure
    rep = report.first_failure("x.y", {}, iter([None] * 5))
    assert (rep.outcome, rep.witness, rep.steps) == (True, (), 5)


def test_failing_sweeps_lead_with_the_start_and_count_the_starts_before_it(monkeypatch):
    monkeypatch.setattr(n1, "default_budget", lambda a0: 1)
    rep = _run("n1.claim3", max_a0=30)          # 3 needs three steps to return to 3
    assert (rep.outcome, rep.witness[0], rep.steps) == (False, 3, 0)
    rep = _run("n1.claim4", max_a0=30)          # 4 -> 2 holds, 7 -> 10 does not
    assert (rep.outcome, rep.witness[0], rep.steps) == (False, 7, 1)
    rep = _run("n1.classification", max_a0=100)   # 2 holds, 3 does not
    assert (rep.outcome, rep.witness, rep.steps) == (False, (3, "BudgetExceeded"), 1)
    rep = _run("n1.cycle_shape", max_a0=100)      # no start cycles in one step
    assert (rep.outcome, rep.witness, rep.steps) == (False, (3, None), 0)
    assert rep.record_line() == (
        "CLAIM n1.cycle_shape max_a0=100 steps=0 witness=3;None outcome=fail")


def test_run_suite_small_config(small_claims):
    out, err = io.StringIO(), io.StringIO()
    assert suite.run_suite(7, True, out, err, small_claims) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 30
    assert all(line.startswith("CLAIM ") for line in lines)
    errs = err.getvalue().splitlines()
    assert errs[0] == "suite seed=7" and errs[-1] == "30/30 claims passed"
    assert len(errs[1:-1]) == 30          # one time line per claim id
    for claim, line in zip(suite.CLAIMS, errs[1:-1]):
        assert re.fullmatch(rf"time {re.escape(claim.id)} \d+\.\d{{3}}s", line)


def test_default_table_matches_golden_records():
    """The default table at the default seed reproduces the committed record stream."""
    out, err = io.StringIO(), io.StringIO()
    assert suite.run_suite(cli.DEFAULT_SEED, True, out, err) == 0
    golden = (DATA / f"suite_records_{cli.DEFAULT_SEED}.txt").read_text()
    assert out.getvalue() == golden


def test_default_table_matches_golden_human_output():
    """Human mode at the default seed reproduces the committed PASS/FAIL lines."""
    out, err = io.StringIO(), io.StringIO()
    assert suite.run_suite(cli.DEFAULT_SEED, False, out, err) == 0
    golden = (DATA / f"suite_human_{cli.DEFAULT_SEED}.txt").read_text()
    assert out.getvalue() == golden


def _raises(*args, **params):
    raise TypeError("a bug in a report\nfunction")


def test_a_raising_row_does_not_end_the_battery(small_claims):
    rows = small_claims
    middle = len(rows) // 2
    broken = dataclasses.replace(rows[middle], sweep=_raises)
    table = rows[:middle] + (broken,) + rows[middle + 1:]
    out, err = io.StringIO(), io.StringIO()
    assert suite.run_suite(7, True, out, err, table) == 3
    lines = out.getvalue().splitlines()
    assert len(lines) == 30
    records = {line.split()[1]: line for line in lines}
    assert records[broken.id] == f"CLAIM {broken.id} steps=0 witness=TypeError outcome=fail"
    for claim in rows[middle + 1:]:
        assert records[claim.id].endswith("outcome=pass")
    raised = [line for line in err.getvalue().splitlines() if "raised" in line]
    assert raised == [f"imocheck: claim {broken.id} raised TypeError: "
                      "a bug in a report function"]
    assert "29/30 claims passed" in err.getvalue()


def test_a_failing_claim_exits_1_and_a_raise_takes_precedence():
    failing = suite.Claim("x.fail", lambda: iter([(1,)]))
    raising = suite.Claim("x.raise", _raises)
    sink = io.StringIO()
    assert suite.run_suite(1, True, sink, sink, (failing,)) == 1
    assert suite.run_suite(1, True, sink, sink, (raising, failing)) == 3


def test_a_sweep_that_raises_midway_gives_one_record_with_no_steps():
    def sweep():
        yield None
        yield None
        raise ValueError("the third instance is broken")

    out, err = io.StringIO(), io.StringIO()
    assert suite.run_suite(1, True, out, err, (suite.Claim("x.lazy", sweep),)) == 3
    assert out.getvalue().splitlines() == ["CLAIM x.lazy steps=0 witness=ValueError outcome=fail"]


def test_keyboard_interrupt_ends_the_battery():
    def interrupted():
        raise KeyboardInterrupt
    table = (suite.Claim("x.stop", interrupted),)
    with pytest.raises(KeyboardInterrupt):
        suite.run_suite(1, True, io.StringIO(), io.StringIO(), table)


def _theorem_oracle(board, tiles):
    """check_tiling_theorem on a Tiling, plus the witness and green tile it scans."""
    t = tiling.Tiling(board, frozenset(tiles))
    problem = tiling.check_tiling_theorem(t)
    if problem == "invalid tiling":
        return problem, None, None
    try:
        first_witness = tiling.witness(t)[0]
    except TheoremViolationError:
        first_witness = None
    try:
        first_green = tiling.find_green_tile(t)
    except TheoremViolationError:
        first_green = None
    return problem, first_witness, first_green


def _mutants(a, b, tiles, n):
    """A tile dropped, shifted, grown into its neighbours, and sticking out of the board."""
    i = n % len(tiles)
    x1, x2, y1, y2 = tiles[i]
    rest = tiles[:i] + tiles[i + 1:]
    yield "dropped", rest
    yield "shifted", rest + ((x1 + 1, x2 + 1, y1, y2),)
    yield "sticking_out", rest + ((x1, x2, y1, b + 1),)
    if len(tiles) > 1:   # some side of the tile borders another tile
        grown = ((x1, x2 + 1, y1, y2) if x2 < a else (x1 - 1, x2, y1, y2) if x1 > 0
                 else (x1, x2, y1, y2 + 1) if y2 < b else (x1, x2, y1 - 1, y2))
        yield "grown", rest + (grown,)


def test_raw_chain_agrees_with_tiling_chain_on_small_boards():
    """Every tiling of every board of area <= 12, odd, even and mixed, and mutants of each.

    The raw route is checked against the Tiling route on each enumerated
    tiling, and the count route's totals against the raw route's verdicts.
    """
    seen = set()
    for a in range(1, 13):
        for b in range(1, 12 // a + 1):
            board = (0, a, 0, b)
            table = tiling.board_table(a, b)
            problems = Counter()
            for n, tiles in enumerate(tiling.enum_tilings(a, b)):
                tiles = tiles[::-1] if n % 2 else tiles   # the chain sorts its input
                got = tiling.check_raw_tiling_theorem(table, board, tiles)
                assert got == _theorem_oracle(board, tiles), (a, b, tiles)
                problems[got[0]] += 1
                seen.add(got[0])
                for kind, mutant in _mutants(a, b, tiles, n):
                    got = tiling.check_raw_tiling_theorem(table, board, mutant)
                    assert got == _theorem_oracle(board, mutant), (a, b, kind, mutant)
                    assert got[0] == "invalid tiling", (a, b, kind, mutant)
            assert tiling.count_tiling_theorem(table, a, b) == problems, (a, b)
    assert seen == {None, "no parity witness", "no green tile",
                    "green tile fails distance parity"}


def test_count_route_pins_the_verdicts_of_the_4x4_board():
    """No tiling of the even 4x4 board passes; 70,878 tilings and 60,576 without a witness."""
    assert tiling.count_tiling_theorem(tiling.board_table(4, 4), 4, 4) == {
        "no parity witness": 60576, "green tile fails distance parity": 9998,
        "no green tile": 304}


def test_count_route_places_at_most_a_twentieth_of_the_fold_routes_tiles_on_3x5(monkeypatch):
    """The memo keeps the count from placing the tiles of 31,484 tilings one by one.

    Both searches draw every tile they place from tiling._placements.
    """
    placements = tiling._placements
    drawn = 0

    def counting(occ, a, b):
        nonlocal drawn
        for placement in placements(occ, a, b):
            drawn += 1
            yield placement

    monkeypatch.setattr(tiling, "_placements", counting)
    tiling.count_tiling_theorem(tiling.board_table(3, 5), 3, 5)
    counted, drawn = drawn, 0
    tiling.enum_tilings(3, 5)
    assert 0 < 20 * counted <= drawn, (counted, drawn)


def _exhaustive_row(claims):
    return next(c for c in claims if c.id == "c1.theorem_exhaustive")


def _dropping_green_sum(kernel):
    """``kernel`` with a ``place`` that zeroes the green sum, index 2 of the count's state."""
    def run(a, b, place, leaf, state):
        def place_dropping(s, r):
            placed = place(s, r)
            return placed[:2] + (0,) + placed[3:]
        return kernel(a, b, place_dropping, leaf, state)
    return run


def test_exhaustive_row_catches_a_fold_state_that_drops_the_green_sum(monkeypatch, small_claims):
    """Unit-square tiles count no green square: the count and the raw route both see it.

    1x1 holds, since its one tile is the board, whose entry keeps its count.
    """
    board_table = tiling.board_table

    def without_unit_greens(a, b):
        table = board_table(a, b)
        for r, f in table.items():
            if tiling.area(r) == 1 and r != (0, a, 0, b):
                table[r] = f[:3] + (0,) + f[4:]
        return table

    monkeypatch.setattr(tiling, "board_table", without_unit_greens)
    rep = _exhaustive_row(small_claims).run(None)
    assert not rep.outcome and rep.steps == 1
    assert rep.witness == (1, 3, "green square counts do not add up",
                           [(0, 1, 0, 1), (0, 1, 1, 2), (0, 1, 2, 3)])
    assert rep.record_line().endswith(" steps=1 witness=1;3;greensquarecountsdonotaddup;"
                                      "[(0,1,0,1),(0,1,1,2),(0,1,2,3)] outcome=fail")


def test_exhaustive_row_fails_when_only_the_count_sees_a_failure(monkeypatch, small_claims):
    monkeypatch.setattr(tiling, "count_tilings", _dropping_green_sum(tiling.count_tilings))
    rep = _exhaustive_row(small_claims).run(None)
    assert not rep.outcome and rep.steps == 1   # the raw route held the one tiling of 1x1
    assert rep.witness == (1, 1, "the count and the raw route disagree",
                           [("green square counts do not add up", 1)])


def _raw_only_exhaustive_theorem(area_cap):
    """The exhaustive sweep without the count: the raw route on every tiling of every board."""
    for a, b in suite._odd_boards(area_cap):
        board, table = (0, a, 0, b), tiling.board_table(a, b)
        for tiles in tiling.enum_tilings(a, b):
            problem = tiling.check_raw_tiling_theorem(table, board, tiles)[0]
            yield None if problem is None else (a, b, problem, sorted(tiles))


def test_exhaustive_row_names_a_later_failure_as_the_fold_only_sweep_did(
        monkeypatch, small_claims):
    board_table = tiling.board_table
    centre = (1, 2, 1, 2)   # a green unit square; only 3x3 has it among the small boards

    def without_centre_parity(a, b):
        table = board_table(a, b)
        if centre in table:
            table[centre] = (table[centre][0], None) + table[centre][2:]
        return table

    monkeypatch.setattr(tiling, "board_table", without_centre_parity)
    row = _exhaustive_row(small_claims)
    rep = row.run(None)
    assert not rep.outcome and rep.witness[:3] == (3, 3, "green tile fails distance parity")
    before = sum(tiling.count_tilings_reference(a, b) for a, b in suite._odd_boards(9)
                 if (a, b) < (3, 3))
    assert rep.steps > before   # past the first board and the first tiling of its board
    assert rep == dataclasses.replace(row, sweep=_raw_only_exhaustive_theorem).run(None)


def test_exhaustive_row_lists_no_tiling_when_every_count_holds(monkeypatch, small_claims):
    row = _exhaustive_row(small_claims)
    steps = row.run(None).steps

    def refuse(a, b):
        raise AssertionError(f"listed the tilings of {a}x{b}")

    monkeypatch.setattr(tiling, "enum_tilings", refuse)
    rep = row.run(None)
    assert rep.outcome and rep.steps == steps


def test_exhaustive_row_catches_a_board_table_without_parities(monkeypatch, small_claims):
    board_table = tiling.board_table
    monkeypatch.setattr(tiling, "board_table", lambda a, b: {
        r: (f[0], None) + f[2:] for r, f in board_table(a, b).items()})
    rep = _exhaustive_row(small_claims).run(None)
    assert not rep.outcome and rep.steps == 0
    assert rep.witness == (1, 1, "no parity witness", [(0, 1, 0, 1)])


def test_raw_chain_rejects_a_repeated_tile():
    # A Tiling holds a frozenset, which would drop the repeat; the raw chain sees it.
    for a, b in [(1, 1), (2, 1), (3, 3), (1, 5)]:
        table, board = tiling.board_table(a, b), (0, a, 0, b)
        for tiles in tiling.enum_tilings(a, b):
            for r in tiles:
                assert tiling.check_raw_tiling_theorem(table, board, tiles + (r,))[0] \
                    == "invalid tiling"

