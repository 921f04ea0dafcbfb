import importlib.util
from pathlib import Path

import pytest

from imocheck import suite

# Sizes a test can afford, by row id; rows not named keep suite.CLAIMS's.
SMALL_PARAMS = {
    "a2.verify": {"n_max": 10},
    "a2.sum_lemmas": {"instances": 20},
    "a2.subtraction_identity": {"max_n": 10},
    "a2.coefficient_positivity": {"max_n": 10},
    "c1.counting": {"coord_max": 5},
    "c1.classification_link": {"coord_max": 5},
    "c1.corner_lemma": {"max_side": 5},
    "c1.parity_lemma_exhaustive": {"coord_max": 5},
    "c1.theorem_exhaustive": {"area_cap": 9},
    "c1.theorem_random": {"count": 10, "pinwheels": 3},
    "c1.roundtrip": {"samples": 5},
    "n1.square_mod3_ne2": {"scan_limit": 100},
    "n1.three_squares_mod3": {"scan_limit": 100},
    "n1.square_mod3_zero": {"scan_limit": 100},
    "n1.step_image": {"limit": 1000},
    "n1.residue_preservation": {"limit": 1000},
    "n1.classification": {"max_a0": 60},
    "n1.cycle_shape": {"max_a0": 60},
    "n1.claim1": {"max_a0": 60, "window": 50},
    "n1.claim2_certificate": {"max_x": 300},
    "n1.claim3": {"max_a0": 60},
    "n1.claim4": {"max_a0": 60},
    "n1.divergence": {"max_a0": 300, "window": 200},
    "n1.mult3_propagates": {"max_a0": 60, "budget": 50},
    "n1.nonmult3_propagates": {"max_a0": 60, "budget": 50},
    "n1.all_gt1": {"max_a0": 60, "budget": 50},
}


@pytest.fixture
def small_claims():
    """suite.CLAIMS, same rows and order, at SMALL_PARAMS sizes."""
    return tuple(c._replace(params={**c.params, **SMALL_PARAMS.get(c.id, {})})
                 for c in suite.CLAIMS)


@pytest.fixture(scope="session")
def perfbench_oracles():
    """The benchmark's output oracles, loaded by path; they share no code with imocheck."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
