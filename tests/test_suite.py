import io
import random
import re

import pytest

from imocheck import backend, suite, tiling
from imocheck.errors import TheoremViolationError
from imocheck.report import ClaimReport


def test_config_validation():
    suite.SuiteConfig().validate()
    with pytest.raises(ValueError):
        suite.SuiteConfig(c1_random_count=0).validate()
    with pytest.raises(ValueError):
        suite.SuiteConfig(n1_budget_scale=0, n1_budget_offset=0).validate()
    with pytest.raises(ValueError):
        suite.SuiteConfig(c1_area_cap=20).validate()
    cfg = suite.SuiteConfig(n1_budget_scale=0, n1_budget_offset=1)
    cfg.validate()
    assert cfg.budget_for(999) == 1


def test_record_line_grammar():
    rep = ClaimReport("x.y", {"a0": 7, "n": 0}, True, ("w1", (0, 1, 0, 1)), 12)
    line = rep.record_line()
    assert re.fullmatch(r"CLAIM \S+( \S+=\S+)* outcome=(pass|fail)", line)
    assert line.startswith("CLAIM x.y a0=7 n=0 steps=12 witness=")
    assert line.endswith("outcome=pass")


def test_a2_reports_pass():
    rng = random.Random(0)
    assert suite.a2_base_case_report().outcome
    assert suite.a2_sum_lemma_report(rng, instances=60).outcome
    assert suite.a2_subtraction_identity_report(20).outcome
    assert suite.a2_coefficient_positivity_report(20).outcome


def test_c1_reports_pass():
    rng = random.Random(1)
    assert suite.c1_counting_report(8).outcome
    assert suite.c1_classification_link_report(8).outcome
    assert suite.c1_corner_lemma_report(9).outcome
    assert suite.c1_parity_lemma_report(6).outcome
    assert suite.c1_exhaustive_theorem_report(9).outcome
    assert suite.c1_random_theorem_report(rng, 25, 5).outcome
    assert suite.c1_roundtrip_report(rng, 5).outcome


def test_n1_reports_pass():
    budget = lambda a0: 4 * a0 + 1000
    for rep in suite.n1_classification_reports(300, budget):
        assert rep.outcome
    assert suite.n1_claim1_report(100, 50).outcome
    assert suite.n1_claim2_report(300).outcome
    assert suite.n1_claim3_report(100, budget).outcome
    assert suite.n1_claim4_report(100, budget).outcome
    assert suite.n1_small_claims_report().outcome
    assert suite.n1_divergence_report(300, 200).outcome
    for rep in suite.n1_propagation_reports(100, 50):
        assert rep.outcome
    assert suite.n1_gt1_report(100, 50).outcome


def test_n1_steps_count_the_starts_checked():
    budget = lambda a0: 4 * a0 + 1000
    classification, cycle_shape = suite.n1_classification_reports(100, budget)
    assert (classification.steps, cycle_shape.steps) == (99, 33)   # 2..100; 3, 6, ..., 99
    assert suite.n1_claim1_report(100, 50).steps == 33             # 2, 5, ..., 98
    assert suite.n1_claim4_report(100, budget).steps == 33         # 4, 7, ..., 100
    assert suite.n1_divergence_report(100, 50).steps == 33
    mult3, nonmult3 = suite.n1_propagation_reports(100, 50)
    assert (mult3.steps, nonmult3.steps) == (33, 66)


def test_check_tiling_theorem_flags_bad_input():
    from imocheck.tiling import Tiling
    bad = Tiling((0, 2, 0, 1), frozenset([(0, 1, 0, 1)]))
    assert suite.check_tiling_theorem(bad) == "invalid tiling"


def test_check_tiling_theorem_lets_programming_errors_through(monkeypatch):
    from imocheck import tiling

    def broken_witness(t):
        raise TypeError("a bug, not a theorem failure")

    monkeypatch.setattr(tiling, "witness", broken_witness)
    with pytest.raises(TypeError):
        suite.check_tiling_theorem(tiling.gen_guillotine(3, 3, 0))


def test_run_suite_small_config():
    cfg = suite.SuiteConfig(a2_max_index=10, c1_random_count=10,
                            c1_pinwheel_count=2, n1_max_a0=60, records=True)
    out, err = io.StringIO(), io.StringIO()
    assert suite.run_suite(cfg, out, err) == 0
    lines = out.getvalue().splitlines()
    assert all(line.startswith("CLAIM ") for line in lines)
    assert f"seed={cfg.seed}" in err.getvalue()


def _theorem_oracle(board, tiles):
    """check_tiling_theorem on a Tiling, plus the witness and green tile it scans."""
    t = tiling.Tiling(board, frozenset(tiles))
    problem = suite.check_tiling_theorem(t)
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
    """Every tiling of every board of area <= 12, odd, even and mixed, and mutants of each."""
    seen = set()
    for a in range(1, 13):
        for b in range(1, 12 // a + 1):
            board = (0, a, 0, b)
            table = tiling.board_table(a, b)
            for n, tiles in enumerate(backend.enum_tilings(a, b)):
                tiles = tiles[::-1] if n % 2 else tiles   # the chain sorts its input
                got = suite.check_raw_tiling_theorem(table, tiles)
                assert got == _theorem_oracle(board, tiles), (a, b, tiles)
                seen.add(got[0])
                for kind, mutant in _mutants(a, b, tiles, n):
                    got = suite.check_raw_tiling_theorem(table, mutant)
                    assert got == _theorem_oracle(board, mutant), (a, b, kind, mutant)
                    assert got[0] == "invalid tiling", (a, b, kind, mutant)
    assert seen == {None, "no parity witness", "no green tile",
                    "green tile fails distance parity"}


def test_raw_chain_rejects_a_repeated_tile():
    # A Tiling holds a frozenset, which would drop the repeat; the raw chain sees it.
    for a, b in [(1, 1), (2, 1), (3, 3), (1, 5)]:
        table = tiling.board_table(a, b)
        for tiles in backend.enum_tilings(a, b):
            for r in tiles:
                assert suite.check_raw_tiling_theorem(table, tiles + (r,))[0] == "invalid tiling"

