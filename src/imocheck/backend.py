"""The hot kernels: orbit walking, +3-run confirmation and tiling enumeration.

One pure-Python implementation of each.  walk is the only loop over the N1
step rule; orbit_fill and n1's cycle and first-hit scans read it.
There is one tiling search, _placements' rule, run two ways: enum_tilings
lists every tiling, and count_tilings counts the tilings that end in each
verdict without visiting them one by one, by memoizing on the covered
squares and a small state.  C1's exhaustive theorem check counts; it lists
a board's tilings only when the count holds a failure, to name the first
failing one.  Orbit values are Python integers, exact at every size.  ``isqrt`` is the exact
floor square root.  The kernels look it up through ``math`` rather than
through this module's name, so wrapping ``backend.isqrt`` (for tracing, say)
sees only the callers outside the kernels.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Callable, Iterator, TypeVar

BACKEND_NAME = "pure"

Tile = tuple[int, int, int, int]
State = TypeVar("State")
Verdict = TypeVar("Verdict")

isqrt = math.isqrt


def walk(a0: int) -> Iterator[int]:
    """a_0, a_1, ... of x -> isqrt(x) if square else x + 3, without end; 0 is fixed."""
    sqrt = math.isqrt
    v = a0
    while True:
        yield v
        s = sqrt(v)
        v = s if s * s == v else v + 3


def orbit_fill(a0: int, k: int) -> list[int]:
    """Values a_0..a_k of the walk from a0."""
    return list(islice(walk(a0), k + 1))


def confirm_plus3_run(start: int, nsteps: int) -> int:
    """Confirm that nsteps orbit steps from ``start`` are all +3 steps.

    Equivalent to checking that none of start, start+3, ..., start+3*(nsteps-1)
    is a perfect square.  Returns -1 when confirmed, else the offset of the
    first perfect square in the run.  Instead of stepping, this scans the
    perfect squares falling inside the window, which is exact and costs
    about sqrt(3 * nsteps) square tests rather than nsteps.
    """
    if nsteps <= 0:
        return -1
    last = start + 3 * (nsteps - 1)
    s0 = math.isqrt(start)
    if s0 * s0 < start:
        s0 += 1
    r = start % 3
    for s in range(s0, math.isqrt(last) + 1):
        if s * s % 3 == r:
            return (s * s - start) // 3
    return -1


def _placements(occ: int, a: int, b: int) -> Iterator[tuple[Tile, int]]:
    """Each rectangle that can cover the lex-min uncovered square next, with its mask.

    The rectangles have that square as their lower-left corner and cover no
    square of ``occ``.  Occupancy is a bitmask with bit index x*b + y, so the
    lowest free bit is the lex-min uncovered square.
    """
    x, y = divmod((~occ & (occ + 1)).bit_length() - 1, b)
    for y2 in range(y + 1, b + 1):
        if occ >> (x * b + y2 - 1) & 1:
            break
        strip = ((1 << y2) - (1 << y)) << (x * b)
        mask = strip
        x2 = x + 1
        while True:
            yield (x, x2, y, y2), mask
            if x2 == a:
                break
            strip <<= b
            if occ & strip:
                break
            mask |= strip
            x2 += 1


def enum_tilings(a: int, b: int) -> list[tuple[Tile, ...]]:
    """Every tiling of the a x b board by valid integer rectangles, each exactly once.

    Canonical construction: repeatedly cover the lexicographically smallest
    uncovered square with every rectangle having that square as its
    lower-left corner (_placements).  Each tiling is reached exactly once,
    and its tiles are listed in order of their lower-left corners.
    """
    full = (1 << a * b) - 1
    results: list[tuple[Tile, ...]] = []

    def rec(occ: int, tiles: tuple[Tile, ...]) -> None:
        if occ == full:
            results.append(tiles)
            return
        for tile, mask in _placements(occ, a, b):
            rec(occ | mask, tiles + (tile,))

    rec(0, ())
    return results


def count_tilings(a: int, b: int, place: Callable[[State, Tile], State],
                  leaf: Callable[[State], Verdict], state: State) -> dict[Verdict, int]:
    """How many tilings of enum_tilings' search end in each ``leaf(state)`` value.

    Along each path of the search, ``place(state, tile)`` gives the state
    after a tile is placed; ``leaf(state)`` is a complete tiling's verdict.
    The search is enum_tilings', memoized on (occupancy, state): the
    tilings that complete a partial one depend only on the squares it
    covers, so a sub-search reached again with an equal state is counted
    once.  ``state`` must be hashable, and ``place`` and ``leaf`` pure.  It
    pays when the state forgets which tiles were placed; a state that
    remembers them makes every key distinct.  The memo lives for one call.
    """
    full = (1 << a * b) - 1
    memo: dict[tuple[int, State], dict[Verdict, int]] = {}

    def rec(occ: int, state: State) -> dict[Verdict, int]:
        key = (occ, state)
        counts = memo.get(key)
        if counts is None:
            if occ == full:
                counts = {leaf(state): 1}
            else:
                counts = {}
                for tile, mask in _placements(occ, a, b):
                    for verdict, n in rec(occ | mask, place(state, tile)).items():
                        counts[verdict] = counts.get(verdict, 0) + n
            memo[key] = counts
        return counts

    return rec(0, state)
