import ast
import hashlib
import importlib
import io
import os
import pkgutil
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import imocheck
from imocheck import cli, n1, report, suite, tilefile, tiling
from imocheck.rational import Rational
from imocheck.report import ClaimReport
from conftest import SMALL_PARAMS
from test_cli import RECORD_RE
from test_n1 import broken_walk, real_runs

DATA = Path(__file__).parent / "data"


def _run(claim_id, seed=cli.DEFAULT_SEED, **params):
    """The suite.CLAIMS row ``claim_id``, run at ``seed`` with ``params`` over the row's own."""
    row = next(c for c in suite.CLAIMS if c.id == claim_id)
    return row._replace(params={**row.params, **params}).run(seed)


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
    assert _run("a2.base_case").outcome
    assert _run("a2.sum_lemmas", 0, instances=60, max_n=12).outcome
    assert _run("a2.subtraction_identity", max_n=20).outcome
    assert _run("a2.coefficient_positivity", max_n=20).outcome


def test_c1_reports_pass():
    assert _run("c1.counting", coord_max=8).outcome
    assert _run("c1.classification_link", coord_max=8).outcome
    assert _run("c1.corner_lemma", max_side=9).outcome
    assert _run("c1.parity_lemma_exhaustive", coord_max=6).outcome
    assert _run("c1.theorem_exhaustive", area_cap=9).outcome
    assert _run("c1.theorem_random", 1, count=25, pinwheels=5).outcome
    assert _run("c1.roundtrip", 1, samples=5).outcome


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


def test_the_rng_rows_make_the_fraction_era_draws():
    """The three seeded rows draw what they drew when A2 built Fractions, each from its own rng.

    Each reference loop only draws, from the row's own random.Random(f"{seed} {id}"):
    per trial of a2.sum_lemmas, n and then (p, q) for each f, each g and for
    r; per tiling of the C1 rows, its board and then its 63-bit seed, each
    pinwheel's as each guillotine's, since both generators take a seed.  The
    row's rng must stand where the loop's does after the row.
    """
    rows = [c for c in suite.CLAIMS if c.seeded]
    assert [c.id for c in rows] == ["a2.sum_lemmas", "c1.theorem_random", "c1.roundtrip"]
    sums, theorem, roundtrip = (c.params for c in rows)

    def sum_lemma_draws(ref):
        for _ in range(sums["instances"]):
            n = ref.randint(1, sums["max_n"])
            for _ in range(2 * n + 1):                   # each f, each g, then r
                Rational(ref.randint(-99, 99), ref.randint(1, 30))

    def theorem_draws(ref):
        for _ in range(theorem["count"]):
            ref.randrange(1, 18, 2), ref.randrange(1, 12, 2), ref.getrandbits(63)
        for _ in range(theorem["pinwheels"]):
            ref.randrange(3, 18, 2), ref.randrange(3, 12, 2), ref.getrandbits(63)

    def roundtrip_draws(ref):
        for _ in range(roundtrip["samples"]):
            ref.randrange(1, 18, 2), ref.randrange(1, 12, 2), ref.getrandbits(63)

    for row, draws in zip(rows, (sum_lemma_draws, theorem_draws, roundtrip_draws)):
        ref = random.Random(f"{cli.DEFAULT_SEED} {row.id}")
        draws(ref)
        after = []

        def sweep(rng, **params):
            yield from row.sweep(rng, **params)
            after.append(rng.getstate())

        assert row._replace(sweep=sweep).run(cli.DEFAULT_SEED).outcome, row.id
        assert after == [ref.getstate()], row.id


def _drop_a_tile_on_call(monkeypatch, name, call):
    """Patch tiling.<name> to drop a tile on its call-th call; return [(args, tiling)] per call."""
    calls = []
    generate = getattr(tiling, name)

    def patched(a, b, seed):
        t = generate(a, b, seed)
        calls.append(((a, b, seed), t))
        return t._replace(tiles=t.tiles - {min(t.tiles)}) if len(calls) == call else t

    monkeypatch.setattr(tiling, name, patched)
    return calls


def _c1_gen_output(capsys, a, b, seed, *flags):
    assert cli.main(["c1-gen", "--a", str(a), "--b", str(b), *flags, "--seed", str(seed)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name, call, kind, i, steps", [
    ("gen_guillotine", 3, "guillotine", 2, 2),
    ("random_pinwheel", 2, "pinwheel", 1, 1000 + 1),    # every guillotine, then pinwheel 0
], ids=["guillotine", "pinwheel"])
def test_random_theorem_names_a_broken_tiling_by_its_c1_gen_call(monkeypatch, capsys,
                                                                  name, call, kind, i, steps):
    """A generator that drops a tile on one call: the row fails there, and the witness's board
    and seed are the args of that call, so c1-gen at them prints the tiling it broke."""
    calls = _drop_a_tile_on_call(monkeypatch, name, call)
    rep = _run("c1.theorem_random")
    assert len(calls) == call
    (a, b, seed), t = calls[-1]
    assert (rep.outcome, rep.steps, rep.witness) == (
        False, steps, (kind, i, a, b, seed, "invalid tiling"))
    monkeypatch.undo()
    assert _c1_gen_output(capsys, a, b, seed, "--kind", kind) == tilefile.serialize_tiling(t)


def test_roundtrip_names_a_broken_serialization_by_its_c1_gen_call(monkeypatch, capsys):
    """serialize_tiling dropping its last line on the 2nd sample: the row fails there, and
    c1-gen at the witness's board and seed prints that sample's tiling whole."""
    calls = _drop_a_tile_on_call(monkeypatch, "gen_guillotine", 0)    # records, drops nothing
    serialize, serialized = tilefile.serialize_tiling, []

    def dropping(t):
        serialized.append(t)
        text = serialize(t)
        return "".join(text.splitlines(True)[:-1]) if len(serialized) == 3 else text

    monkeypatch.setattr(tilefile, "serialize_tiling", dropping)
    rep = _run("c1.roundtrip")
    assert len(calls) == 2 and serialized[-1] == calls[-1][1]
    (a, b, seed), t = calls[-1]
    assert (rep.outcome, rep.steps, rep.witness) == (False, 1, (a, b, seed))
    monkeypatch.undo()
    assert _c1_gen_output(capsys, a, b, seed) == tilefile.serialize_tiling(t)


def test_sum_lemmas_row_fails_on_a_finite_sum_that_drops_every_remainder(monkeypatch):
    """A sum of the terms' integer parts only: the first trial fails.

    At seed 0 its f_1 is not an integer, so f_1 kept whole no longer adds
    up; at the default seed f_1 is an integer, and r * sum(f) fails instead.
    """
    monkeypatch.setattr(suite, "finite_sum", lambda terms: Rational(sum(p // q for p, q in terms)))
    rep = _run("a2.sum_lemmas", 0)
    assert (rep.outcome, rep.witness, rep.steps) == (False, (0, "remove_zero", 4), 0)
    rep = _run("a2.sum_lemmas")
    assert (rep.outcome, rep.witness, rep.steps) == (False, (0, "distrib_left", 4), 0)


def test_counting_row_prefix_count_equals_square_enumeration_inside_9x9(monkeypatch):
    """With closed forms that enumerate squares, the row holds on every rect inside [0, 9]^2.

    It holds on a rect exactly when its prefix count equals
    sum(green(s) for s in squares(r)): both counts then read that sum.
    """
    def enumerated(r):
        return sum(tiling.green(s) for s in tiling.squares(r))

    monkeypatch.setattr(tiling, "count_green", enumerated)
    monkeypatch.setattr(tiling, "count_yellow", lambda r: tilefile.area(r) - enumerated(r))
    rep = _run("c1.counting", coord_max=9)
    assert (rep.outcome, rep.steps) == (True, 45 * 45)


def test_counting_row_fails_at_the_first_rect_holding_a_recoloured_square(monkeypatch):
    """green() with (3, 5) flipped: the prefix count reads it, the closed forms do not."""
    green = tiling.green
    monkeypatch.setattr(tiling, "green", lambda s: (not green(s)) if s == (3, 5) else green(s))
    rects = list(tiling.rects_inside(12, 12))
    first = next(i for i, r in enumerate(rects) if (3, 5) in tiling.squares(r))
    rep = _run("c1.counting")
    assert (rep.outcome, rep.witness, rep.steps) == (False, rects[first], first)
    assert (first, rects[first]) == (239, (0, 4, 0, 6))   # 3 x-spans of 78 y-spans, then 5


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


# -- claim 1's residue-2 starts, read off one walk from 2 -----------------------------

real_walk = n1.walk

# Every max_a0 the claim-1 tests use.
CLAIM1_MAX_A0 = (2, 5, 8, 60, 100, 300, 1000)


def _walk_sending_to_7(target):
    """The walk of a broken step rule that sends target, a residue-2 value, to 7."""
    def walk(v):
        while True:
            yield v
            v = 7 if v == target else n1.n1_step(v)
    return walk


late_walk = _walk_sending_to_7(302)    # a_100 of the orbit of 2
far_walk = _walk_sending_to_7(2102)    # a_700 of the orbit of 2


def _claim1_reports(max_a0, window):
    """The n1.claim1 row's report, and that of n1.check_claim1 run on each of its starts."""
    rep = _run("n1.claim1", max_a0=max_a0, window=window)
    per_start = suite._per_start(range(2, max_a0 + 1, 3),
                                 lambda a0: n1.check_claim1(a0, window))
    return rep, report.first_failure("n1.claim1", rep.params, per_start)


def _assert_claim1_reports_agree(windows):
    for max_a0 in CLAIM1_MAX_A0:
        for window in windows:
            rep, per_start = _claim1_reports(max_a0, window)
            assert rep == per_start, (max_a0, window)


@pytest.mark.parametrize("sizes", ["suite", "small"])
def test_claim1_row_equals_its_per_start_checks(sizes):
    """The row at the suite's or SMALL_PARAMS' sizes, and at every max_a0 and window below them.

    A start's check at a smaller window scans a prefix of what it scans at
    the row's window, so the row must pass at each one, down to -3.
    """
    row = next(c for c in suite.CLAIMS if c.id == "n1.claim1")
    params = {**row.params, **(SMALL_PARAMS["n1.claim1"] if sizes == "small" else {})}
    for max_a0 in (m for m in CLAIM1_MAX_A0 if m <= params["max_a0"]):
        rep, per_start = _claim1_reports(max_a0, params["window"])
        assert rep == per_start and rep.outcome, max_a0
        for window in range(-3, params["window"]):
            rep = _run("n1.claim1", max_a0=max_a0, window=window)
            assert (rep.outcome, rep.steps) == (True, per_start.steps), (max_a0, window)


@pytest.mark.parametrize("max_a0,window", [(10 ** 4, 1000), (2000, 100), (300, 200), (300, 50)])
def test_divergence_double_check_equals_claim1_per_start(monkeypatch, max_a0, window):
    """The row fails at the first start whose claim-1 check over window - 1 fails.

    Under the real walk, broken_walk, late_walk and far_walk, at the suite's
    and SMALL_PARAMS' sizes, at a window that ends before the late break, and
    at max_a0 2000 and window 100, where far_walk first fails the start 1805.
    The per-start checks cost starts * window steps, seconds under the real
    walk at the suite's size, so there the pass record stands in for them.
    """
    starts = range(2, max_a0 + 1, 3)
    for walk in (real_walk, broken_walk, late_walk, far_walk):
        monkeypatch.setattr(n1, "walk", walk)
        rep = _run("n1.divergence", max_a0=max_a0, window=window)
        if walk is real_walk and len(starts) * window > 2 * 10 ** 5:
            assert rep.record_line() == (f"CLAIM n1.divergence max_a0={max_a0} window={window} "
                                         f"steps={len(starts)} outcome=pass")
            continue
        per_start = report.first_failure("", {}, suite._per_start(
            starts, lambda a0: n1.check_claim1(a0, window - 1)))
        if per_start.outcome:
            assert (rep.outcome, rep.steps) == (True, len(starts)), walk
        else:
            assert (rep.outcome, rep.steps, rep.witness) == (
                False, per_start.steps, (per_start.witness[0], "direct scan")), walk


def test_claim1_row_equals_its_per_start_checks_under_a_broken_walk(monkeypatch):
    """The same first failing start, steps and witness, at every window from -3 to 200.

    Claim 1's walk follows the broken rule (2, 5, 1 breaks at m = 1); the
    windows put a break exactly at the window and past it.
    """
    monkeypatch.setattr(n1, "walk", broken_walk)
    _assert_claim1_reports_agree(range(-3, 201))


def test_claim1_names_the_first_start_whose_window_reaches_an_early_break(monkeypatch):
    """Under the broken rule, start 2 breaks at index 1 and start 5 at index 0."""
    monkeypatch.setattr(n1, "walk", broken_walk)
    first = {window: _run("n1.claim1", max_a0=60, window=window) for window in (-1, 0, 1)}
    assert {window: (rep.outcome, rep.witness, rep.steps) for window, rep in first.items()} == {
        1: (False, (2, 1, 5, 1), 0), 0: (False, (5, 0, 5, 1), 1), -1: (True, (), 20)}


def test_claim1_names_the_first_start_whose_window_reaches_a_late_break(monkeypatch):
    """Under late_walk, start 2 + 3j breaks at index 100 - j, for every window from -3 to 200.

    At window 50 the first failing start is 152, whose window ends at 302,
    not 302 itself.
    """
    monkeypatch.setattr(n1, "walk", late_walk)
    _assert_claim1_reports_agree(range(-3, 201))
    rep = _run("n1.claim1", max_a0=1000, window=50)
    assert (rep.outcome, rep.witness, rep.steps) == (False, (152, 50, 302, 7), 50)


def test_claim1_draws_one_scan_of_the_orbit_of_2_from_the_walk(monkeypatch):
    """At max_a0 = 10**4 the row draws at most window + 3333 + 2 values for its 3,333 starts."""
    drawn = 0

    def counting(a0):
        nonlocal drawn
        for v in real_walk(a0):
            drawn += 1
            yield v

    monkeypatch.setattr(n1, "walk", counting)
    assert _run("n1.claim1", max_a0=10 ** 4, window=200).steps == 3333
    assert 0 < drawn <= 200 + 3333 + 2, drawn


def test_per_start_all_gt1_reads_at_most_3100_runs(monkeypatch):
    """At the suite's sizes, the runs the n1.all_gt1 row reads from n1.runs.

    Each start reads its descent and, on a multiple of 3, one pass of the
    3, 6, 9 cycle, whatever the budget: 3,061 runs for 999 starts.
    """
    read = 0

    def counting(a0):
        nonlocal read
        for run in real_runs(a0):
            read += 1
            yield run

    monkeypatch.setattr(n1, "runs", counting)
    assert _run("n1.all_gt1", max_a0=1000, budget=300).steps == 999
    assert 0 < read <= 3100, read


def test_a_broken_step_rule_fails_the_step_image_and_fixed_orbit_rows(monkeypatch, small_claims):
    """n1_step sending 16 to 5: the walk iterates n1_step, so the fixed orbit from 7 breaks.

    The other rows that reach 16 see a 5 that keeps a nonzero residue and lies
    above 1, so they pass, as do the rows that never reach 16.
    """
    step = n1.n1_step
    monkeypatch.setattr(n1, "n1_step", lambda x: 5 if x == 16 else step(x))
    records = {c.id: c.run(cli.DEFAULT_SEED).record_line() for c in small_claims}
    assert {cid for cid, line in records.items() if line.endswith("outcome=fail")} == {
        "n1.step_image", "n1.fixed_orbits"}
    assert records["n1.step_image"] == (
        "CLAIM n1.step_image limit=1000 steps=14 witness=16;5 outcome=fail")
    assert records["n1.fixed_orbits"] == (
        "CLAIM n1.fixed_orbits a0=7 steps=0 witness=7;7;10;13;16;5;8 outcome=fail")


def test_run_suite_small_config(small_claims):
    out, err = io.StringIO(), io.StringIO()
    assert suite.run_suite(7, True, out, err, small_claims) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 30
    assert all(line.startswith("CLAIM ") for line in lines)
    errs = err.getvalue().splitlines()
    assert errs[0] == "suite seed=7" and errs[-1] == "30/30 claims passed"
    assert len(errs[1:-2]) == 30          # one time line per claim id
    for claim, line in zip(suite.CLAIMS, errs[1:-2]):
        assert re.fullmatch(rf"time {re.escape(claim.id)} \d+\.\d{{3}}s", line)
    final_states = []                     # each seeded row's rng, after the row drew it all
    for claim in small_claims:
        if claim.seeded:
            rng = random.Random(f"7 {claim.id}")
            assert all(w is None for w in claim.sweep(rng, **claim.params)), claim.id
            final_states.append(rng.getstate())
    assert errs[-2] == f"rng {hashlib.sha256(repr(final_states).encode()).hexdigest()[:16]}"


# The stderr rng line of each golden seed: pass records print no draw, and the two
# seeds' record streams are byte-identical, so only this line tells the seeds apart.
GOLDEN_RNG = {cli.DEFAULT_SEED: "rng 6ba36809cf25b84b", 1: "rng 8fda14641e546ef1"}


def test_default_table_matches_golden_records():
    """The default table reproduces the committed record streams and the golden rng lines.

    Two runs at the default seed, then seed 1, in one process, so that any
    state a run leaves behind in the process would show in a later record.
    """
    for seed in (cli.DEFAULT_SEED, cli.DEFAULT_SEED, 1):
        out, err = io.StringIO(), io.StringIO()
        assert suite.run_suite(seed, True, out, err) == 0
        assert out.getvalue() == (DATA / f"suite_records_{seed}.txt").read_text(), seed
        assert err.getvalue().splitlines()[-2] == GOLDEN_RNG[seed], seed


def test_no_module_of_the_package_binds_a_mutable_container():
    """No dict, list, set or bytearray at module level, so no state outlives a run."""
    for info in pkgutil.iter_modules(imocheck.__path__):
        module = importlib.import_module(f"imocheck.{info.name}")
        found = [name for name, value in vars(module).items()
                 if isinstance(value, (dict, list, set, bytearray))
                 and not (name.startswith("__") and name.endswith("__"))]
        assert found == [], module.__name__


FLOAT_CALLS = {"float", "math.sqrt", "math.log", "math.exp", "math.pow", "time.perf_counter"}


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _floats_in(node, where, found):
    """Append (where, float literal or float-valued call) for each one below node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        where = f"{where}.{node.name}"
    elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        found.append((where, node.value))
    elif isinstance(node, ast.Call) and _dotted(node.func) in FLOAT_CALLS:
        found.append((where, _dotted(node.func)))
    for child in ast.iter_child_nodes(node):
        _floats_in(child, where, found)


def test_floats_appear_only_in_the_generators_coin_flips_and_the_runners_clock():
    """Every check is exact; the README names the only floats the package holds.

    gen_guillotine's cut draws pick a tiling but decide no verdict, and
    run_suite's clock only feeds the stderr time lines.
    """
    found = []
    for path in sorted(Path(imocheck.__file__).parent.glob("*.py")):
        _floats_in(ast.parse(path.read_text()), path.stem, found)
    assert found == [("suite.run_suite", "time.perf_counter"),
                     ("suite.run_suite", "time.perf_counter"),
                     ("tiling.gen_guillotine.cut", 0.25), ("tiling.gen_guillotine.cut", 0.5)]


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
    broken = rows[middle]._replace(sweep=_raises)
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


# -- rows share nothing ---------------------------------------------------------

N1_TRACE_ROWS = ("n1.classification", "n1.cycle_shape")


def _recording_classify(monkeypatch, change=lambda a0, trace: trace):
    """Patch n1.classify to record each start it is called on; change may alter a trace."""
    calls = []
    classify = n1.classify

    def recording(a0, budget):
        calls.append(a0)
        return change(a0, classify(a0, budget))

    monkeypatch.setattr(n1, "classify", recording)
    return calls


def _trace_rows(small_claims):
    return tuple(c for c in small_claims if c.id in N1_TRACE_ROWS)


@pytest.mark.parametrize("change, classified, record", [
    (lambda a0, trace: trace, list(range(2, 61)),
     "CLAIM n1.classification max_a0=60 steps=59 outcome=pass"),
    # 4 claims a cycle, so classification stops there.
    (lambda a0, trace: trace._replace(classification=n1.OrbitClass.PERIODIC_MULT3)
     if a0 == 4 else trace, [2, 3, 4],
     "CLAIM n1.classification max_a0=60 steps=2 witness=4;PeriodicMult3 outcome=fail"),
], ids=["plain", "classification_fails_at_4"])
def test_cycle_shape_classifies_every_multiple_of_3_itself(monkeypatch, small_claims, change,
                                                           classified, record):
    """cycle_shape classifies 3..60 after classification, whatever that row reached."""
    calls = _recording_classify(monkeypatch, change)
    out = io.StringIO()
    status = suite.run_suite(7, True, out, io.StringIO(), _trace_rows(small_claims))
    assert status == (0 if record.endswith("pass") else 1)
    assert calls == classified + list(range(3, 61, 3))
    assert out.getvalue().splitlines() == [
        record, "CLAIM n1.cycle_shape max_a0=60 steps=20 outcome=pass"]


def _entry_states(table, states):
    """The table, each seeded row's sweep appending (id, rng state on entry) to states."""
    def recording(claim):
        def sweep(rng, **params):
            states.append((claim.id, rng.getstate()))
            return claim.sweep(rng, **params)
        return claim._replace(sweep=sweep)

    return tuple(recording(c) if c.seeded else c for c in table)


def test_rows_give_the_same_records_in_any_order(small_claims):
    """Every row reversed: each id's record and each seeded row's first draw state hold.

    Pass records print no draw, so the rng states show what the records cannot.
    """
    def records(table):
        out, states = io.StringIO(), []
        assert suite.run_suite(7, True, out, io.StringIO(), _entry_states(table, states)) == 0
        return {line.split()[1]: line for line in out.getvalue().splitlines()}, dict(states)

    forward = records(small_claims)
    assert (len(forward[0]), len(forward[1])) == (30, 3)
    assert records(small_claims[::-1]) == forward


def test_a_seeded_row_run_alone_draws_what_it_draws_in_the_full_table(small_claims):
    """Claim.run(7) on its own starts each seeded row's rng where run_suite(7, ...) does."""
    in_table, alone = [], []
    table = _entry_states(small_claims, in_table)
    assert suite.run_suite(7, True, io.StringIO(), io.StringIO(), table) == 0
    for claim in _entry_states(small_claims, alone):
        if claim.seeded:
            assert claim.run(7).outcome, claim.id
    assert [i for i, _ in in_table] == ["a2.sum_lemmas", "c1.theorem_random", "c1.roundtrip"]
    assert alone == in_table
    assert len({state for _, state in in_table}) == 3


HASH_SEED_PROBE = """
import hashlib, sys
from imocheck import suite
states = []


def probe(rng, **params):
    states.append(rng.getstate())
    return iter(())


for claim in suite.CLAIMS:
    if claim.seeded:
        for seed in map(int, sys.argv[1:]):
            claim._replace(sweep=probe).run(seed)
print(hashlib.sha256(repr(states).encode()).hexdigest())
"""


def test_seeded_rows_draw_the_same_under_any_hash_seed():
    """Each seeded row's rng state on entry, at both golden seeds, under PYTHONHASHSEED 0 and 1.

    Pass records print no draw, so the golden record streams cannot see
    whether str seeding depends on hash().
    """
    digests = {
        subprocess.run([sys.executable, "-c", HASH_SEED_PROBE, str(cli.DEFAULT_SEED), "1"],
                       capture_output=True, text=True, timeout=30, check=True,
                       env={**os.environ, "PYTHONHASHSEED": hash_seed}).stdout
        for hash_seed in ("0", "1")}
    assert len(digests) == 1 and len(digests.pop().strip()) == 64


def test_a_row_run_outside_run_suite_classifies_every_start_itself(monkeypatch):
    assert _run("n1.classification", max_a0=60).outcome
    calls = _recording_classify(monkeypatch, lambda a0, trace: trace._replace(
        cycle=(0, 2)) if a0 == 30 else trace)     # 30 reaches 6: the period 6, 9, not 6, 9, 3
    rep = _run("n1.cycle_shape", max_a0=60)
    assert (rep.outcome, rep.witness, rep.steps) == (False, (30, (6, 9)), 9)
    assert calls == list(range(3, 31, 3))


def test_a_second_run_suite_keeps_no_trace_of_the_first(monkeypatch, small_claims):
    """With classify raising on 30, both rows that classify fail, each on its own call."""
    first = io.StringIO()
    assert suite.run_suite(7, True, first, io.StringIO(), small_claims) == 0

    def raising_on_30(a0, trace):
        if a0 == 30:
            raise ArithmeticError("a0 = 30")
        return trace

    _recording_classify(monkeypatch, raising_on_30)
    out = io.StringIO()
    assert suite.run_suite(7, True, out, io.StringIO(), small_claims) == 3
    expected = [f"CLAIM {line.split()[1]} steps=0 witness=ArithmeticError outcome=fail"
                if line.split()[1] in N1_TRACE_ROWS else line
                for line in first.getvalue().splitlines()]
    assert out.getvalue().splitlines() == expected


# -- the parity row's pairs -------------------------------------------------------

def test_parity_row_checks_the_nested_filters_pairs_in_order(monkeypatch):
    """The row's pairs are green and nested because it builds them so; no check repeats that."""
    gaps = tiling.side_distances
    checked = []

    def recording(ri, ro):
        checked.append((ri, ro))
        return gaps(ri, ro)

    monkeypatch.setattr(tiling, "side_distances", recording)
    for coord_max in range(10):
        greens = [r for r in tiling.rects_inside(coord_max, coord_max)
                  if tiling.classify_rect(r) is tiling.RectClass.GREEN]
        checked.clear()
        assert _run("c1.parity_lemma_exhaustive", coord_max=coord_max).outcome
        assert checked == [(ri, ro) for ro in greens for ri in greens
                           if tilefile.inside(ri, ro)], coord_max
    assert len(checked) == 7575


@pytest.mark.parametrize("broken,record", [
    (lambda ds: None,
     "CLAIM c1.parity_lemma_exhaustive coord_max=9 steps=0 witness=(0,1,0,1);(0,1,0,1) "
     "outcome=fail"),
    (lambda ds: None if ds == (1, 1, 1, 1) else tilefile.distance_parity(ds),
     "CLAIM c1.parity_lemma_exhaustive coord_max=9 steps=79 witness=(1,2,1,2);(0,3,0,3) "
     "outcome=fail"),
], ids=["every-gap", "gaps-1-1-1-1"])
def test_parity_row_fails_at_the_first_pair_whose_gaps_break(monkeypatch, broken, record):
    """With the parity test broken on every gap or on (1, 1, 1, 1), the row names that pair."""
    monkeypatch.setattr(tiling, "distance_parity", broken)
    assert _run("c1.parity_lemma_exhaustive").record_line() == record


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


def _tiling_route(board, tiles):
    return tiling.check_tiling_theorem(tiling.Tiling(board, frozenset(tiles)))


def test_count_agrees_with_tiling_route_on_small_boards():
    """Every tiling of every board of area <= 12, odd, even and mixed, and mutants of each.

    The count's verdict totals are checked against the Tiling route's
    verdicts on each enumerated tiling, and every mutant is invalid to it.
    """
    seen = set()
    for a in range(1, 13):
        for b in range(1, 12 // a + 1):
            board = (0, a, 0, b)
            problems = Counter()
            for n, tiles in enumerate(tiling.enum_tilings(a, b)):
                problems[_tiling_route(board, tiles)] += 1
                for kind, mutant in _mutants(a, b, tiles, n):
                    assert _tiling_route(board, mutant) == "invalid tiling", (a, b, kind, mutant)
            assert tiling.count_tiling_theorem(a, b) == problems, (a, b)
            seen |= problems.keys()
    assert seen == {None, "no parity witness", "no green tile",
                    "green tile fails distance parity"}


def test_count_route_pins_the_verdicts_of_the_4x4_board():
    """No tiling of the even 4x4 board passes; 70,878 tilings and 60,576 without a witness."""
    assert tiling.count_tiling_theorem(4, 4) == {
        "no parity witness": 60576, "green tile fails distance parity": 9998,
        "no green tile": 304}


def test_count_reads_the_first_green_tiles_parity_as_the_tiling_route_does(monkeypatch):
    """With correct facts every green tile of a board passes or fails alike; a fault splits them.

    Both routes lose the parity of 3x3's green centre square, so the verdict
    of a tiling with it depends on which of its green tiles is read.
    """
    distance_parity = tiling.distance_parity
    _patch_distance_parity(monkeypatch,
                           lambda ds: None if ds == (1, 1, 1, 1) else distance_parity(ds))
    problems = Counter(_tiling_route((0, 3, 0, 3), tiles) for tiles in tiling.enum_tilings(3, 3))
    assert problems == {None: 306, "green tile fails distance parity": 14, "no parity witness": 2}
    assert tiling.count_tiling_theorem(3, 3) == problems


def test_count_route_places_at_most_a_twentieth_of_enum_tilings_tiles_on_3x5(monkeypatch):
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
    tiling.count_tiling_theorem(3, 5)
    counted, drawn = drawn, 0
    tiling.enum_tilings(3, 5)
    assert 0 < 20 * counted <= drawn, (counted, drawn)


def _exhaustive_row(claims):
    return next(c for c in claims if c.id == "c1.theorem_exhaustive")


def _patch_distance_parity(monkeypatch, parity):
    """Both routes read it: tiling's table and green tile, and tilefile's witness."""
    for module in (tiling, tilefile):
        monkeypatch.setattr(module, "distance_parity", parity)


def test_exhaustive_row_catches_a_count_green_that_drops_unit_squares(monkeypatch, small_claims):
    """Unit-square tiles count no green square: the count and the Tiling route both see it.

    1x1 holds, since its one tile is the board, which counts no green square either.
    """
    count_green = tiling.count_green
    monkeypatch.setattr(tiling, "count_green",
                        lambda r: 0 if tilefile.area(r) == 1 else count_green(r))
    rep = _exhaustive_row(small_claims).run(7)
    assert not rep.outcome and rep.steps == 1
    assert rep.witness == (1, 3, "green square counts do not add up",
                           [(0, 1, 0, 1), (0, 1, 1, 2), (0, 1, 2, 3)])
    assert rep.record_line().endswith(" steps=1 witness=1;3;greensquarecountsdonotaddup;"
                                      "[(0,1,0,1),(0,1,1,2),(0,1,2,3)] outcome=fail")


def test_exhaustive_row_fails_when_only_the_count_sees_a_failure(monkeypatch, small_claims):
    """A table whose unit tiles, the board aside, count no green square: only the count reads it.

    1x1 holds, since its one tile is the board; three of the four tilings of 1x3 hold a unit tile.
    """
    board_table = tiling.board_table
    monkeypatch.setattr(tiling, "board_table", lambda a, b: {
        r: f[:2] + (0,) + f[3:] if tilefile.area(r) == 1 and r != (0, a, 0, b) else f
        for r, f in board_table(a, b).items()})
    rep = _exhaustive_row(small_claims).run(7)
    assert not rep.outcome and rep.steps == 5   # the Tiling route held 1x1 and all of 1x3
    assert rep.witness == (1, 3, "the count and the Tiling route disagree",
                           [("green square counts do not add up", 3), (None, 1)])


def test_exhaustive_row_names_a_board_table_only_fault_as_a_disagreement(
        monkeypatch, small_claims):
    """A table with no parities: the count sees no witness, the Tiling route never reads it."""
    board_table = tiling.board_table
    monkeypatch.setattr(tiling, "board_table", lambda a, b: {
        r: (None,) + f[1:] for r, f in board_table(a, b).items()})
    rep = _exhaustive_row(small_claims).run(7)
    assert not rep.outcome and rep.steps == 1
    assert rep.witness == (1, 1, "the count and the Tiling route disagree",
                           [("no parity witness", 1)])


def test_exhaustive_row_checks_the_counts_total_against_the_reference_counter(monkeypatch):
    """A search that drops every tile wider or taller than 3: every tiling it finds holds.

    1x5 is the first board with a tile longer than 3; the search finds 13 of its 16 tilings.
    """
    placements = tiling._placements
    monkeypatch.setattr(tiling, "_placements", lambda occ, a, b: (
        (r, mask) for r, mask in placements(occ, a, b) if r[1] - r[0] <= 3 and r[3] - r[2] <= 3))
    assert _run("c1.theorem_exhaustive").record_line() == (
        "CLAIM c1.theorem_exhaustive area_cap=16 steps=5 "
        "witness=1;5;thecountandthereferencetotaldisagree;13;16 outcome=fail")


def _tiling_only_exhaustive_theorem(area_cap):
    """The exhaustive sweep without the count: the Tiling route on every tiling of every board."""
    for a, b in suite._odd_boards(area_cap):
        for tiles in tiling.enum_tilings(a, b):
            problem = _tiling_route((0, a, 0, b), tiles)
            yield None if problem is None else (a, b, problem, sorted(tiles))


def test_exhaustive_row_names_a_later_failure_as_the_tiling_only_sweep_does(
        monkeypatch, small_claims):
    # (1, 1, 1, 1) are the gaps of the green centre square of 3x3, the first
    # board among the small ones with a tile that has them.
    distance_parity = tiling.distance_parity
    _patch_distance_parity(monkeypatch,
                           lambda ds: None if ds == (1, 1, 1, 1) else distance_parity(ds))
    row = _exhaustive_row(small_claims)
    rep = row.run(7)
    assert not rep.outcome and rep.witness[:3] == (3, 3, "green tile fails distance parity")
    before = sum(tiling.count_tilings_reference(a, b) for a, b in suite._odd_boards(9)
                 if (a, b) < (3, 3))
    assert rep.steps == 481 > before   # past the first board and the first tiling of its board
    assert rep == row._replace(sweep=_tiling_only_exhaustive_theorem).run(7)


def test_exhaustive_row_lists_no_tiling_when_every_count_holds(monkeypatch, small_claims):
    row = _exhaustive_row(small_claims)
    steps = row.run(7).steps

    def refuse(a, b):
        raise AssertionError(f"listed the tilings of {a}x{b}")

    monkeypatch.setattr(tiling, "enum_tilings", refuse)
    rep = row.run(7)
    assert rep.outcome and rep.steps == steps


def test_exhaustive_row_catches_a_board_table_without_parities(monkeypatch, small_claims):
    _patch_distance_parity(monkeypatch, lambda ds: None)
    rep = _exhaustive_row(small_claims).run(7)
    assert not rep.outcome and rep.steps == 0
    assert rep.witness == (1, 1, "no parity witness", [(0, 1, 0, 1)])
