"""The hot kernels: orbit walking, +3-run confirmation and tiling enumeration.

One pure-Python implementation of each.  walk is the only loop over the N1
step rule; orbit_fill and n1's cycle and first-hit scans read it.  Orbit
values are Python integers, exact at every size.  ``isqrt`` is the exact
floor square root.  The kernels look it up through ``math`` rather than
through this module's name, so wrapping ``backend.isqrt`` (for tracing, say)
sees only the callers outside the kernels.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterator

BACKEND_NAME = "pure"

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
    s = math.isqrt(start)
    if s * s < start:
        s += 1
    while s * s <= last:
        if (s * s - start) % 3 == 0:
            return (s * s - start) // 3
        s += 1
    return -1


def enum_tilings(a: int, b: int) -> list[tuple[tuple[int, int, int, int], ...]]:
    """All tilings of the a x b board by valid integer rectangles.

    Canonical construction: repeatedly cover the lexicographically smallest
    uncovered square with every rectangle having that square as its
    lower-left corner.  Each tiling is produced exactly once; tiles appear
    in order of their lower-left corners.  Occupancy is a bitmask with bit
    index x*b + y, so the lowest free bit is the lex-min uncovered square.
    """
    total = a * b
    full = (1 << total) - 1
    results: list[tuple] = []
    tiles: list[tuple[int, int, int, int]] = []

    def colstrip(cx: int, ylo: int, yhi: int) -> int:
        return ((1 << yhi) - (1 << ylo)) << (cx * b)

    def rec(occ: int) -> None:
        if occ == full:
            results.append(tuple(tiles))
            return
        free = full & ~occ
        idx = (free & -free).bit_length() - 1
        x, y = divmod(idx, b)
        for y2 in range(y + 1, b + 1):
            if occ & (1 << (x * b + y2 - 1)):
                break
            mask = colstrip(x, y, y2)
            x2 = x + 1
            while True:
                tiles.append((x, x2, y, y2))
                rec(occ | mask)
                tiles.pop()
                if x2 == a:
                    break
                strip = colstrip(x2, y, y2)
                if occ & strip:
                    break
                mask |= strip
                x2 += 1

    rec(0)
    return results
