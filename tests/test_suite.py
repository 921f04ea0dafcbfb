import io
import random
import re

import pytest

from imocheck import suite
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
