"""The output oracles: they accept correct responses and reject corrupted ones."""

import random

import pytest

import gen
import oracles
from imocheck import a2, n1


def test_gregory_reference_matches_the_recurrence_up_to_60():
    assert oracles.GregoryReference().terms(60) == list(a2.build(60).values)


def test_n1_reference_matches_classify():
    for a0 in range(2, 2500):
        t = n1.classify(a0, 4 * a0 + 1000)
        if t.classification is n1.OrbitClass.PERIODIC_MULT3:
            line = f"{t.classification.value} cycle=({t.cycle[0]},{t.cycle[1]})"
        else:
            line = f"{t.classification.value} m={t.mod2_index}"
        assert oracles.n1_reference(a0) == line, a0


def suite_response(seed):
    out = "".join(f"CLAIM {c} steps=1 outcome=pass\n" for c in oracles.SUITE_CLAIMS)
    n = len(oracles.SUITE_CLAIMS)
    err = f"backend=pure\nsuite seed={seed}\n{n}/{n} claims passed\n"
    return out.encode(), err.encode()


def test_suite_oracle():
    out, err = suite_response(4)
    assert oracles.check_suite(4, 0, out, err) == ([], 30, 0)
    extra = out + b"CLAIM n1.new_claim k=2 steps=3 outcome=pass\n"
    assert oracles.check_suite(4, 0, extra, err.replace(b"30/30", b"31/31"))[0] == []
    bad = out.replace(b"CLAIM c1.roundtrip steps=1 outcome=pass",
                      b"CLAIM c1.roundtrip steps=1 witness=(1,2) outcome=fail")
    problems, units, failed = oracles.check_suite(4, 0, bad, err)
    assert problems and units == 30 and failed == 2       # a bad record, and the id missing
    assert oracles.check_suite(4, 1, out, err)[2] == 30


def test_c1_oracle():
    req = next(r for r in next(gen.blocks("c1_check_files", 2)) if r.defect is None)
    a, b = req.board
    rect = next(t for t in sorted(req.tiles)
                if len({t[0] % 2, (a - t[1]) % 2, t[2] % 2, (b - t[3]) % 2}) == 1)
    ds = (rect[0], a - rect[1], rect[2], b - rect[3])
    label = "AllEven" if ds[0] % 2 == 0 else "AllOdd"
    line = f"witness ({','.join(map(str, rect))}) ds=({','.join(map(str, ds))}) {label}\n"
    assert oracles.check_c1(req.board, req.tiles, None, 0, line.encode(), b"") == []
    wrong_label = line.replace(label, "AllOdd" if label == "AllEven" else "AllEven")
    assert oracles.check_c1(req.board, req.tiles, None, 0, wrong_label.encode(), b"")
    shifted = line.replace(f"ds=({ds[0]},", f"ds=({ds[0] + 2},")
    assert oracles.check_c1(req.board, req.tiles, None, 0, shifted.encode(), b"")

    err = b"invalid tiling: tiles (0, 2, 0, 1) and (1, 3, 0, 1) overlap\n"
    assert oracles.check_c1(req.board, req.tiles, "overlap", 1, b"", err) == []
    assert oracles.check_c1(req.board, req.tiles, "gap", 1, b"", err)
    assert oracles.check_c1(req.board, req.tiles, "overlap", 0, b"", err)


def test_n1_oracle():
    assert oracles.check_n1(7, 0, b"DivergentViaMod1 m=5\n", b"") == []
    assert oracles.check_n1(7, 0, b"DivergentViaMod1 m=4\n", b"")
    assert oracles.check_n1(3, 0, b"PeriodicMult3 cycle=(0,3)\n", b"") == []
    assert oracles.check_n1(3, 0, b"PeriodicMult3 cycle=(1,3)\n", b"")
    assert oracles.check_n1(11, 0, b"DivergentMod2 m=0\n", b"") == []
    assert oracles.check_n1(11, 3, b"DivergentMod2 m=0\n", b"")


def test_a2_oracle():
    ref = oracles.GregoryReference()
    seq = a2.build(45)
    out = "".join(line + "\n" for line in a2.render_lines(seq)).encode()
    err = b"CLAIM a2.verify n_max=45 steps=45 outcome=pass\n"
    assert oracles.check_a2(ref, 45, 0, out, err) == []
    lines = out.decode().splitlines()
    num, den = lines[30].split("\t")[1].split("/")
    lines[30] = f"30\t{int(num) + 1}/{den}"
    corrupted = ("\n".join(lines) + "\n").encode()
    assert oracles.check_a2(ref, 45, 0, corrupted, err)
    assert oracles.check_a2(ref, 45, 0, out, err.replace(b"pass", b"fail"))


@pytest.mark.parametrize("defect", gen.DEFECTS)
def test_broken_tilings_show_their_defect_to_the_program(defect):
    from imocheck import tiling
    rng = random.Random(defect)
    req = gen.c1_request(rng, "grid", 40)
    tiles = gen.break_tiling(rng, req.board, req.tiles, defect)
    text = gen.serialize(rng, req.board, tiles, defect)
    problems = tiling.tiling_problems(tiling.parse_tiling(text))
    assert any(oracles.DEFECT_TEXT[defect] in p for p in problems)
