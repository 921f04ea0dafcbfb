"""The request generators: determinism per seed, and the tilings they write."""

import itertools
import random

import pytest

import gen

WORKLOADS = ("suite_default", "c1_check_files", "n1_a2_requests")


def first(workload, seed, n):
    stream = itertools.chain.from_iterable(gen.blocks(workload, seed, "work"))
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_argv_and_files(workload):
    a, b = first(workload, 7, 60), first(workload, 7, 60)
    assert [r.argv for r in a] == [r.argv for r in b]
    assert [r.text.encode() for r in a] == [r.text.encode() for r in b]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    a, b = first(workload, 7, 30), first(workload, 8, 30)
    assert [(r.argv, r.text) for r in a] != [(r.argv, r.text) for r in b]


def occupancy(board, tiles):
    """Per-square tile counts over the board, plus the squares that fall off it."""
    a, b = board
    grid = [[0] * b for _ in range(a)]
    off = 0
    for x1, x2, y1, y2 in tiles:
        for x in range(x1, x2):
            for y in range(y1, y2):
                if x < a and y < b:
                    grid[x][y] += 1
                else:
                    off += 1
    return [c for col in grid for c in col], off


def test_c1_files_are_odd_boards_with_spread_tile_counts_and_one_defect_each_in_ten():
    reqs = first("c1_check_files", 3, 90)
    assert sum(r.defect is not None for r in reqs) == 9
    for r in reqs:
        a, b = r.board
        assert a % 2 == 1 and b % 2 == 1 and a <= 41 and b <= 41
        counts, off = occupancy(r.board, r.tiles)
        if r.defect is None:
            assert counts == [1] * (a * b) and off == 0
        elif r.defect == "overlap":
            assert max(counts) == 2 and off == 0
        elif r.defect == "gap":
            assert min(counts) == 0 and max(counts) == 1 and off == 0
        else:
            assert counts == [1] * (a * b) and off > 0
        assert r.text.splitlines()[1] == f"board {a} {b}"
        assert len(r.text.splitlines()) == 2 + len(r.tiles)
    sizes = [len(r.tiles) for r in reqs if r.defect is None]
    assert min(sizes) <= 15 and max(sizes) >= 1000


@pytest.mark.parametrize("k", [1, 2, 10, 99, 441])
def test_guillotine_makes_exactly_k_tiles(k):
    tiles = []
    gen.guillotine(random.Random(k), (0, 21, 0, 21), k, tiles)
    assert len(tiles) == k
    counts, off = occupancy((21, 21), tiles)
    assert counts == [1] * 441 and off == 0


def test_n1_and_a2_inputs_are_in_range_and_balanced():
    block = next(gen.blocks("n1_a2_requests", 5))
    n1 = [r for r in block if r.kind == "n1"]
    assert sorted(r.value % 3 for r in n1) == [0] * 6 + [1] * 6 + [2] * 6
    assert all(10 ** 3 <= r.value < 10 ** 10 for r in n1)
    assert max(r.value for r in n1) == 10 ** 10 - 1
    a2 = [r for r in block if r.kind == "a2"]
    assert all(40 <= r.value <= 200 for r in a2)
    assert sorted(int((r.value - 40) / 16.1) for r in a2) == list(range(10))
