"""Seeded request streams for the three workloads.

Every workload is an endless stream of request blocks.  A block covers
each stratum of the input property that drives a request's cost exactly
once, in a seeded random order, and a run sends whole blocks only, so every
run has the same size distribution whatever the seed.  That keeps the
median and tail of a run steady while the concrete inputs change with the
seed.

The program only ever sees the argv lists and the tiling files made here;
nothing in this module imports the program.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Iterator

Rect = tuple[int, int, int, int]

MAX_SIDE = 41                      # c1 boards are odd, at most 41 x 41
C1_TILES = (10, MAX_SIDE * MAX_SIDE)
C1_STRATA = 10                     # log-spaced tile-count strata per block
C1_KINDS = ("guillotine", "grid", "pinwheel")
DEFECTS = ("overlap", "gap", "edge")   # one of each per c1 block of 30 (10%)

N1_A0 = (10 ** 3, 10 ** 10)
N1_STRATA = 6                      # log-spaced a0 strata, times 3 residues
A2_N = (40, 200)
A2_STRATA = 10


@dataclass
class Request:
    """One CLI call: ``python -m imocheck <argv>`` plus what its oracle needs."""

    kind: str                      # suite | c1 | n1 | a2
    argv: list[str]
    value: int = 0                 # suite seed, n1 a0 or a2 N
    board: tuple[int, int] = (0, 0)
    tiles: list[Rect] = field(default_factory=list)
    defect: str | None = None      # c1 only: None for a valid tiling
    text: str = ""                 # c1 only: the file content


def blocks(workload: str, seed: int, workdir: str = ".perfbench_work") -> Iterator[list[Request]]:
    """The endless block stream of a workload; the same seed gives the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"suite_default": _suite_block, "c1_check_files": _c1_block,
            "n1_a2_requests": _n1_a2_block}[workload]
    index = 0
    while True:
        block = make(rng)
        for req in block:
            if req.kind == "c1":
                req.argv = ["c1-check", os.path.join(workdir, f"c1_{index:05d}.tiling")]
            index += 1
        yield block


def _in_stratum(rng: random.Random, j: int) -> float:
    """A point in the middle half of stratum j of [0, 1) scaled by the stratum count.

    Keeping clear of the stratum edges keeps the sizes next to a run's
    median apart, so the median moves little from seed to seed.
    """
    return j + 0.25 + 0.5 * rng.random()


def _suite_block(rng: random.Random) -> list[Request]:
    s = rng.getrandbits(31)
    return [Request("suite", ["suite", "--records", "--seed", str(s)], value=s)]


def _n1_a2_block(rng: random.Random) -> list[Request]:
    """Three residues times N1_STRATA log-spaced a0 values, plus A2_STRATA values of N.

    The top residue-0 slot is always the range maximum 10^10 - 1: how deep a
    multiple of 3 descends before its first square decides how much memory
    the request takes, and that depth jumps about erratically with a0, so a
    fixed deepest request keeps every run's peak memory comparable.
    """
    lo, hi = math.log(N1_A0[0]), math.log(N1_A0[1])
    out = []
    for residue in range(3):
        for j in range(N1_STRATA):
            x = int(math.exp(lo + _in_stratum(rng, j) * (hi - lo) / N1_STRATA))
            a0 = x - x % 3 + residue      # strata keep clear of the range ends
            if residue == 0 and j == N1_STRATA - 1:
                a0 = N1_A0[1] - 1
            out.append(Request("n1", ["n1", "--a0", str(a0), "--classify"], value=a0))
    n_lo, n_hi = A2_N
    width = (n_hi - n_lo + 1) / A2_STRATA
    for j in range(A2_STRATA):
        n = n_lo + int(_in_stratum(rng, j) * width)
        out.append(Request("a2", ["a2", "--n", str(n), "--verify"], value=n))
    rng.shuffle(out)
    return out


def _c1_block(rng: random.Random) -> list[Request]:
    lo, hi = math.log(C1_TILES[0]), math.log(C1_TILES[1])
    out = []
    for kind in C1_KINDS:
        for j in range(C1_STRATA):
            k = int(math.exp(lo + _in_stratum(rng, j) * (hi - lo) / C1_STRATA))
            out.append(c1_request(rng, kind, k))
    rng.shuffle(out)
    for req, defect in zip(rng.sample(out, len(DEFECTS)), DEFECTS):
        req.tiles = break_tiling(rng, req.board, req.tiles, defect)
        req.defect = defect
    for req in out:
        req.text = serialize(rng, req.board, req.tiles, req.defect)
    return out


# -- tiling generators ------------------------------------------------------------

def _odd_side(x: float) -> int:
    s = max(1, min(MAX_SIDE, int(round(x))))
    return s if s % 2 else (s + 1 if s < MAX_SIDE else s - 1)


def odd_board(rng: random.Random, k: int, min_side: int = 1) -> tuple[int, int]:
    """Odd sides of at most MAX_SIDE whose area is at least k (k <= MAX_SIDE**2)."""
    side = math.sqrt(k * rng.uniform(1.0, 3.0))
    aspect = math.sqrt(rng.uniform(0.6, 1.6))
    a = max(_odd_side(side * aspect), min_side)
    b = max(_odd_side(side / aspect), min_side)
    while a * b < k:            # the smaller side is below MAX_SIDE here
        if a <= b:
            a += 2
        else:
            b += 2
    return a, b


def _rect_area(r: Rect) -> int:
    return (r[1] - r[0]) * (r[3] - r[2])


def guillotine(rng: random.Random, r: Rect, k: int, out: list[Rect]) -> None:
    """Append exactly k tiles tiling r by recursive straight cuts (1 <= k <= area)."""
    stack = [(r, k)]
    while stack:
        (x1, x2, y1, y2), k = stack.pop()
        if k == 1:
            out.append((x1, x2, y1, y2))
            continue
        w, h = x2 - x1, y2 - y1
        if w > 1 and (h == 1 or rng.random() < w / (w + h)):
            c = rng.randint(x1 + 1, x2 - 1)
            parts = ((x1, c, y1, y2), (c, x2, y1, y2))
        else:
            c = rng.randint(y1 + 1, y2 - 1)
            parts = ((x1, x2, y1, c), (x1, x2, c, y2))
        a1, a2 = _rect_area(parts[0]), _rect_area(parts[1])
        k1 = round(k * a1 / (a1 + a2))
        k1 = max(1, k - a2, min(k1, a1, k - 1))
        stack.append((parts[0], k1))
        stack.append((parts[1], k - k1))


def block_grid(rng: random.Random, a: int, b: int, k: int) -> list[Rect]:
    """A cols x rows grid of blocks with about k tiles and random cut lines."""
    cols = max(1, min(a, round(math.sqrt(k * a / b))))
    rows = max(1, min(b, round(k / cols)))
    xs = [0] + sorted(rng.sample(range(1, a), cols - 1)) + [a]
    ys = [0] + sorted(rng.sample(range(1, b), rows - 1)) + [b]
    return [(xs[i], xs[i + 1], ys[j], ys[j + 1]) for i in range(cols) for j in range(rows)]


def pinwheel_embedded(rng: random.Random, a: int, b: int, k: int) -> list[Rect]:
    """A five-region pinwheel (not a guillotine cut) with each region cut further."""
    cx1, cx2 = sorted(rng.sample(range(1, a), 2))
    cy1, cy2 = sorted(rng.sample(range(1, b), 2))
    regions = [(0, cx2, 0, cy1), (cx2, a, 0, cy2), (cx1, a, cy2, b),
               (0, cx1, cy1, b), (cx1, cx2, cy1, cy2)]
    areas = [_rect_area(r) for r in regions]
    shares = [max(1, min(ar, round(k * ar / (a * b)))) for ar in areas]
    out: list[Rect] = []
    for region, share in zip(regions, shares):
        guillotine(rng, region, share, out)
    return out


def c1_request(rng: random.Random, kind: str, k: int) -> Request:
    a, b = odd_board(rng, k, min_side=3 if kind == "pinwheel" else 1)
    if kind == "guillotine":
        tiles: list[Rect] = []
        guillotine(rng, (0, a, 0, b), k, tiles)
    elif kind == "grid":
        tiles = block_grid(rng, a, b, k)
    else:
        tiles = pinwheel_embedded(rng, a, b, k)
    return Request("c1", [], board=(a, b), tiles=tiles)


def break_tiling(rng: random.Random, board: tuple[int, int], tiles: list[Rect],
                 defect: str) -> list[Rect]:
    """A copy of a valid tiling with one defect: an overlap, a gap or a tile off the edge."""
    a, b = board
    tiles = list(tiles)
    if defect == "gap":
        tiles.pop(rng.randrange(len(tiles)))
        return tiles
    if defect == "overlap":
        # grow a tile by one line into its neighbour; the grown rect cannot
        # equal an existing tile, since that tile would overlap the original
        grow = [(i, d) for i, t in enumerate(tiles) for d in (1, 3)
                if t[d] < (a if d == 1 else b)]
    else:
        grow = [(i, d) for i, t in enumerate(tiles) for d in (1, 3)
                if t[d] == (a if d == 1 else b)]
    i, d = rng.choice(grow)
    t = list(tiles[i])
    t[d] += 1
    tiles[i] = (t[0], t[1], t[2], t[3])
    return tiles


def serialize(rng: random.Random, board: tuple[int, int], tiles: list[Rect],
              defect: str | None) -> str:
    """The tiling file: a comment, the board line, then tiles in a seeded order."""
    order = list(tiles)
    rng.shuffle(order)
    lines = [f"# perfbench tiles={len(tiles)} defect={defect or 'none'}",
             f"board {board[0]} {board[1]}"]
    lines += [f"tile {x1} {x2} {y1} {y2}" for x1, x2, y1, y2 in order]
    return "\n".join(lines) + "\n"
