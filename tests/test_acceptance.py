"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is exact (no epsilons).  Where a runtime limit is part of the
criterion it is asserted; current hardware passes each with an order of
magnitude to spare.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time
from contextlib import contextmanager

from imocheck import a2, n1, tilefile, tiling
from imocheck.rational import Rational, ZERO, finite_sum

SEED = 20170901


@contextmanager
def criterion(name, limit=None):
    t0 = time.perf_counter()
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.perf_counter() - t0
        tag = "PASS" if outcome["ok"] else "FAIL"
        print(f"ACCEPT {tag} {name} ({elapsed:.2f}s)")
        if outcome["ok"] and limit is not None:
            assert elapsed < limit, f"{name} took {elapsed:.2f}s, limit {limit}s"


def test_a2_base_case():
    with criterion("a2 base case a_1 = 1/2"):
        assert a2.build(1).values[1] == Rational(1, 2)


def test_a2_positivity_and_residuals():
    with criterion("a2 positivity and exact residuals to n=200", limit=10):
        seq = a2.build(200)
        for m in range(1, 201):
            assert seq.values[m] > ZERO, f"a_{m} not positive"
            assert a2.recurrence_residual(seq, m) == ZERO, f"residual at {m}"


def test_a2_closed_form_oracle_equivalence():
    with criterion("a2 closed form equals recurrence for 2 <= n <= 100"):
        seq = a2.build(100)
        for n in range(2, 101):
            prefix = a2.A2Sequence(seq.scale, seq.numerators[:n])
            assert a2.closed_form_next(prefix) == seq.values[n], f"n={n}"


def test_sum_lemmas_500_random_instances():
    with criterion("sum lemmas on 500 random instances, n <= 12"):
        rng = random.Random(SEED)
        for _ in range(500):
            n = rng.randint(1, 12)
            fs = [Rational(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(n)]
            gs = [Rational(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(n)]
            r = Rational(rng.randint(-99, 99), rng.randint(1, 30))
            sum_f = finite_sum(map(Rational.as_integer_ratio, fs))
            assert finite_sum(map(Rational.as_integer_ratio, reversed(fs))) == sum_f
            assert sum_f == fs[0] + finite_sum(map(Rational.as_integer_ratio, fs[1:]))
            assert r * sum_f == finite_sum(map(Rational.as_integer_ratio, [r * x for x in fs]))
            assert (finite_sum(map(Rational.as_integer_ratio, [x - y for x, y in zip(fs, gs)]))
                    == sum_f - finite_sum(map(Rational.as_integer_ratio, gs)))
            assert finite_sum(map(Rational.as_integer_ratio, [-x for x in fs])) == -sum_f


def _rects(coord_max):
    for x1 in range(coord_max):
        for x2 in range(x1 + 1, coord_max + 1):
            for y1 in range(coord_max):
                for y2 in range(y1 + 1, coord_max + 1):
                    yield (x1, x2, y1, y2)


def test_c1_counting_closed_forms():
    with criterion("c1 green/yellow counts vs brute force on [0,12]^2", limit=10):
        checked = 0
        for r in _rects(12):
            brute_green = sum(1 for s in tiling.squares(r) if (s[0] + s[1]) % 2 == 0)
            assert tiling.count_green(r) == brute_green, r
            assert tiling.count_yellow(r) == tilefile.area(r) - brute_green, r
            checked += 1
        assert checked == 6084


def test_c1_classification_link():
    with criterion("c1 classification/count link on [0,12]^2"):
        for r in _rects(12):
            cg, cy = tiling.count_green(r), tiling.count_yellow(r)
            cls = tiling.classify_rect(r)
            if cls is tiling.RectClass.GREEN:
                assert cg == cy + 1, r
            elif cls is tiling.RectClass.YELLOW:
                assert cy == cg + 1, r
            else:
                assert cg == cy, r


def test_c1_main_theorem_exhaustive():
    with criterion("c1 theorem on every tiling of odd boards, area <= 16", limit=60):
        boards = [(a, b)
                  for a in range(1, 17, 2) for b in range(1, 16 // a + 1, 2)]
        total = 0
        for a, b in boards:
            for t in tiling.enumerate_tilings(a, b):
                found = tiling.witness(t)
                assert found is not None, t
                rect, parity = found
                assert tiling.distance_parity(
                    tiling.side_distances(rect, t.board)) is parity
                green = tiling.find_green_tile(t)
                assert green is not None, t
                assert tiling.classify_rect(green) is tiling.RectClass.GREEN
                total += 1
        assert total > 100_000
        # enumeration counts against the independent recursive counter
        for a, b, known in [(2, 2, 8), (2, 3, 34)]:
            enumerated = sum(1 for _ in tiling.enumerate_tilings(a, b))
            assert enumerated == tiling.count_tilings_reference(a, b) == known


def test_c1_main_theorem_randomized():
    with criterion("c1 theorem on 1000 guillotine + 50 pinwheel tilings", limit=30):
        rng = random.Random(SEED)
        for _ in range(1000):
            a = rng.randrange(1, 18, 2)
            b = rng.randrange(1, 12, 2)
            t = tiling.gen_guillotine(a, b, rng.getrandbits(63))
            assert tiling.is_valid_tiling(t)
            assert tiling.witness(t) is not None, t
            assert tiling.find_green_tile(t) is not None, t
        for _ in range(50):
            a = rng.randrange(3, 18, 2)
            b = rng.randrange(3, 12, 2)
            cx1, cx2 = sorted(rng.sample(range(1, a), 2))
            cy1, cy2 = sorted(rng.sample(range(1, b), 2))
            t = tiling.pinwheel(a, b, cx1, cx2, cy1, cy2)
            assert tiling.is_valid_tiling(t)
            assert tiling.witness(t) is not None, t
            assert tiling.find_green_tile(t) is not None, t


def test_c1_parity_lemma_exhaustive():
    with criterion("c1 parity lemma, all green-in-green pairs on [0,9]^2"):
        greens = [r for r in _rects(9)
                  if tiling.classify_rect(r) is tiling.RectClass.GREEN]
        pairs = 0
        for ro in greens:
            for ri in greens:
                if tilefile.inside(ri, ro):
                    ds = (ri[0] - ro[0], ro[1] - ri[1], ri[2] - ro[2], ro[3] - ri[3])
                    assert len({d % 2 for d in ds}) == 1, (ri, ro)
                    pairs += 1
        assert pairs > 1000


def test_n1_mod3_lemmas():
    with criterion("n1 mod-3 lemmas, residues exhaustive + scans to 10^4"):
        for s in (0, 1, 2):
            assert (s * s) % 3 != 2
            assert ((s * s) % 3 == 0) == (s % 3 == 0)
            assert {((s + 1) ** 2) % 3, ((s + 2) ** 2) % 3, ((s + 3) ** 2) % 3} == {0, 1}
        for v in range(10 ** 4 + 1):
            assert (v * v) % 3 != 2, v
            assert ((v * v) % 3 == 0) == (v % 3 == 0), v
            assert {((v + 1) ** 2) % 3, ((v + 2) ** 2) % 3, ((v + 3) ** 2) % 3} == {0, 1}, v
        assert all(w is None for w in n1.lemma_square_mod3_ne2(10 ** 4))
        assert all(w is None for w in n1.lemma_three_squares_mod3(10 ** 4))
        assert all(w is None for w in n1.lemma_square_mod3_zero(10 ** 4))


def test_n1_fixed_orbits():
    with criterion("n1 fixed orbits: 7 reaches 2 via 16; 3 cycles 3,6,9"):
        assert n1.orbit(7, 5) == [7, 10, 13, 16, 4, 2]
        assert n1.orbit(3, 6) == [3, 6, 9, 3, 6, 9, 3]
        assert n1.detect_cycle(3, 10) == (0, 3)


def test_n1_classification_theorem():
    with criterion("n1 classification for all 2 <= a0 <= 10^4", limit=60):
        for a0 in range(2, 10 ** 4 + 1):
            trace = n1.classify(a0, n1.default_budget(a0))
            assert trace.classification is not n1.OrbitClass.BUDGET_EXCEEDED, a0
            periodic = trace.classification is n1.OrbitClass.PERIODIC_MULT3
            assert periodic == (a0 % 3 == 0), a0
            if periodic:
                assert trace.cycle_values() == {3, 6, 9}, a0


def test_n1_claim2_certificates():
    with criterion("n1 claim-2 descent certificates for x <= 10^4"):
        for x in range(10, 10 ** 4 + 1):
            if x % 3 == 2:
                continue
            assert n1.check_claim2(x) is None, x
            # the certificate recomputed from the orbit: the first square, m steps on
            t, bound = math.isqrt(x - 1), 2 * math.isqrt(x) + 6
            vals = n1.orbit(x, bound)
            m = next(i for i, v in enumerate(vals) if n1.is_perfect_square(v)) + 1
            assert vals[m - 1] in ((t + 1) ** 2, (t + 2) ** 2, (t + 3) ** 2), x
            assert m <= bound, x
            if x <= 2000:  # direct orbit confirmation of the descent
                assert n1.orbit(x, m)[-1] < x, x
