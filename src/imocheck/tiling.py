"""IMO 2017 shortlist C1: tilings of an odd-by-odd board by integer rectangles.

A rectangle is the quadruple (x1, x2, y1, y2) of its left, right, bottom and
top lines on natural coordinates; it is valid iff x1 < x2 and y1 < y2
(validity is checked, not encoded in the type).  Its unit squares are the
half-open product [x1, x2) x [y1, y2), each square named by its lower-left
corner.  Squares are colored green when x + y is even, yellow otherwise.

The checked theorem: in any tiling of a board with both sides odd, some tile
has distances to the four board sides that are all even or all odd.  The
proof chain runs through corner colors, green/yellow counting and the
parity-of-distances lemma, and every link is executable: the per-tiling
chain here, the claims over many instances in the suite.  classify_rect,
count_green and count_yellow read colours straight off the coordinates and
never call green(), so green() serves only the brute-force routes that
check them: the suite's counting row and the tests.

The file layer that c1-check runs (rects, Tiling, the validator
tiling_problems, witness and the text format) lives in tilefile.  This
module imports from it only the names it calls, so tiling.witness is
tilefile.witness; callers read area, the caps, lex_key and the text format
from tilefile.  The one exception is parse_tiling, which nothing here calls:
it stays bound because the benchmark's tracer wraps tiling.parse_tiling.

Two routes of the per-tiling theorem chain live here and end in one
verdict ladder.  check_tiling_theorem takes any Tiling and validates it
with tiling_problems.  count_tiling_theorem counts the verdicts of every
tiling of a board without visiting each tiling: it runs the chain on the
board's board_table as each tile is placed, keeping only what the ladder
reads (whether a witness was placed, the first green tile's parity and the
two sums), so its search memoizes on that and the covered squares.
The tests compare the count with the Tiling route's verdicts on every
tiling of every board of area at most 12.

There is one tiling search, _placements' rule, run two ways: enum_tilings
lists every tiling, and count_tiling_theorem counts the tilings that end
in each verdict.  C1's exhaustive theorem check counts, and checks the
count's totals against count_tilings_reference, the square-set counter
that shares no code with the search; it lists a board's tilings only when
the count holds a failure, to name the first failing one.
"""

from __future__ import annotations

import random
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .errors import PreconditionFailedError
from .tilefile import (Rect, Tiling, WitnessParity, _lex_tiles, distance_parity,
                       side_distances, tiling_problems, witness)
from .tilefile import parse_tiling  # not called here: the benchmark traces tiling.parse_tiling

Square = tuple[int, int]


def squares(r: Rect) -> set[Square]:
    """Unit squares of r: the product of [x1, x2) and [y1, y2).

    Invalid rects have no squares.
    """
    x1, x2, y1, y2 = r
    return {(x, y) for x in range(x1, x2) for y in range(y1, y2)}


# -- coloring and counting ----------------------------------------------------

def green(s: Square) -> bool:
    return (s[0] + s[1]) % 2 == 0


class RectClass(Enum):
    GREEN = "Green"
    YELLOW = "Yellow"
    MIXED = "Mixed"


def classify_rect(r: Rect) -> RectClass:
    """GREEN when the four corner squares' x + y are all even, YELLOW when all odd, else MIXED."""
    x1, x2, y1, y2 = r
    if not (x1 < x2 and y1 < y2):
        raise PreconditionFailedError(f"rect {r} needs x1 < x2 and y1 < y2")
    c = (x1 + y1) % 2
    if c == (x1 + y2 - 1) % 2 == (x2 - 1 + y1) % 2 == (x2 - 1 + y2 - 1) % 2:
        return RectClass.YELLOW if c else RectClass.GREEN
    return RectClass.MIXED


def count_green(r: Rect) -> int:
    """Number of green squares: (k+1) div 2 for a green start, k div 2 otherwise.

    k = (x2 - x1) * (y2 - y1) is the total square count, and the start (x1, y1)
    is green when x1 + y1 is even; a yellow start is the green-start formula
    for the rect shifted one square sideways, hence the swapped roles.
    """
    x1, x2, y1, y2 = r
    if not (x1 < x2 and y1 < y2):
        raise PreconditionFailedError(f"rect {r} needs x1 < x2 and y1 < y2")
    k = (x2 - x1) * (y2 - y1)
    return k // 2 if (x1 + y1) % 2 else (k + 1) // 2


def count_yellow(r: Rect) -> int:
    """Number of yellow squares: count_green's closed form with the roles swapped."""
    x1, x2, y1, y2 = r
    if not (x1 < x2 and y1 < y2):
        raise PreconditionFailedError(f"rect {r} needs x1 < x2 and y1 < y2")
    k = (x2 - x1) * (y2 - y1)
    return (k + 1) // 2 if (x1 + y1) % 2 else k // 2


# -- tilings -------------------------------------------------------------------

def is_valid_tiling(t: Tiling) -> bool:
    return not tiling_problems(t)


def find_green_tile(t: Tiling) -> Rect | None:
    """First tile (in (x1, y1, x2, y2) order) whose corners are all green, or None.

    On a valid tiling of an odd-by-odd board one always exists.
    """
    for r in _lex_tiles(t):
        if classify_rect(r) is RectClass.GREEN:
            return r
    return None


# -- generators and enumeration -------------------------------------------------

def gen_guillotine(a: int, b: int, seed: int) -> Tiling:
    """A valid tiling by recursive straight cuts drawn from random.Random(seed).

    Both generators take the seed c1-gen --seed takes, so c1-gen reprints any tiling they make.
    """
    if a < 1 or b < 1:
        raise PreconditionFailedError(f"board {a}x{b} needs positive sides")
    rng = random.Random(seed)
    out: list[Rect] = []

    def cut(x1: int, x2: int, y1: int, y2: int) -> None:
        w, h = x2 - x1, y2 - y1
        if (w == 1 and h == 1) or rng.random() < 0.25:
            out.append((x1, x2, y1, y2))
            return
        if w > 1 and (h == 1 or rng.random() < 0.5):
            c = rng.randint(x1 + 1, x2 - 1)
            cut(x1, c, y1, y2)
            cut(c, x2, y1, y2)
        else:
            c = rng.randint(y1 + 1, y2 - 1)
            cut(x1, x2, y1, c)
            cut(x1, x2, c, y2)

    cut(0, a, 0, b)
    return Tiling((0, a, 0, b), frozenset(out))


def pinwheel(a: int, b: int, cx1: int, cx2: int, cy1: int, cy2: int) -> Tiling:
    """The 5-tile pinwheel: four interlocking rects around a center rect.

    Not a grid decomposition, so it exercises the general tiling definition.
    """
    if not (0 < cx1 < cx2 < a and 0 < cy1 < cy2 < b):
        raise PreconditionFailedError(
            f"need 0 < {cx1} < {cx2} < {a} and 0 < {cy1} < {cy2} < {b}")
    rects = frozenset([
        (0, cx2, 0, cy1),
        (cx2, a, 0, cy2),
        (cx1, a, cy2, b),
        (0, cx1, cy1, b),
        (cx1, cx2, cy1, cy2),
    ])
    return Tiling((0, a, 0, b), rects)


def random_pinwheel(a: int, b: int, seed: int) -> Tiling:
    """A pinwheel, both sides >= 3, its cut pairs drawn from random.Random(seed), x pair first."""
    rng = random.Random(seed)
    cx1, cx2 = sorted(rng.sample(range(1, a), 2))
    cy1, cy2 = sorted(rng.sample(range(1, b), 2))
    return pinwheel(a, b, cx1, cx2, cy1, cy2)


def rects_inside(a: int, b: int) -> Iterator[Rect]:
    """Every valid rect inside the board (0, a, 0, b), in lexicographic order."""
    return ((x1, x2, y1, y2) for x1, x2 in combinations(range(a + 1), 2)
            for y1, y2 in combinations(range(b + 1), 2))


ENUM_AREA_CAP = 16


def _require_enumerable(a: int, b: int) -> None:
    """Enumeration is exponential, so the enumerator and the board table cap the area."""
    if a * b > ENUM_AREA_CAP:
        raise PreconditionFailedError(f"{a}x{b} exceeds the area cap {ENUM_AREA_CAP}")


def _placements(occ: int, a: int, b: int) -> Iterator[tuple[Rect, int]]:
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


def enum_tilings(a: int, b: int) -> list[tuple[Rect, ...]]:
    """Every tiling of the a x b board by valid integer rectangles, each exactly once.

    Canonical construction: repeatedly cover the lexicographically smallest
    uncovered square with every rectangle having that square as its
    lower-left corner (_placements).  Each tiling is reached exactly once,
    and its tiles are listed in order of their lower-left corners.
    """
    full = (1 << a * b) - 1
    results: list[tuple[Rect, ...]] = []

    def rec(occ: int, tiles: tuple[Rect, ...]) -> None:
        if occ == full:
            results.append(tiles)
            return
        for tile, mask in _placements(occ, a, b):
            rec(occ | mask, tiles + (tile,))

    rec(0, ())
    return results


def enumerate_tilings(a: int, b: int) -> Iterator[Tiling]:
    """Every tiling of the a x b board, each exactly once (canonical order)."""
    _require_enumerable(a, b)
    board = (0, a, 0, b)
    for tile_list in enum_tilings(a, b):
        yield Tiling(board, frozenset(tile_list))


def count_tilings_reference(a: int, b: int) -> int:
    """Independent tiling counter used as the enumeration oracle.

    Recurses on the set of uncovered squares with the literal squares()
    definition; shares no code or representation with the enumerator.
    """
    board_squares = frozenset(squares((0, a, 0, b)))

    @lru_cache(maxsize=None)
    def go(uncovered: frozenset) -> int:
        if not uncovered:
            return 1
        x, y = min(uncovered)
        n = 0
        for x2 in range(x + 1, a + 1):
            for y2 in range(y + 1, b + 1):
                sq = squares((x, x2, y, y2))
                if sq <= uncovered:
                    n += go(uncovered - sq)
        return n

    return go(board_squares)


# -- the per-tiling theorem chain --------------------------------------------------

# (distance parity, corners all green, green count, yellow count)
TileFacts = tuple[WitnessParity | None, bool, int, int]


def board_table(a: int, b: int) -> dict[Rect, TileFacts]:
    """Every valid rect inside the board (0, a, 0, b), mapped to its TileFacts.

    The board's own entry holds the board's green and yellow counts.
    """
    _require_enumerable(a, b)
    board = (0, a, 0, b)
    return {r: (distance_parity(side_distances(r, board)), classify_rect(r) is RectClass.GREEN,
                count_green(r), count_yellow(r))
            for r in rects_inside(a, b)}


# green_parity when no tile is green, or none is placed yet in count_tiling_theorem.
_NO_GREEN_YET = "no green tile yet"


def _chain_problem(has_witness: bool, green_parity: WitnessParity | None | str,
                   green_gap: int, yellow_gap: int) -> str | None:
    """The first link after validity that fails, or None: every route's verdict.

    green_parity is the first green tile's distance parity, or _NO_GREEN_YET.
    A gap is the tiles' summed green (or yellow) count minus the board's.
    """
    if not has_witness:
        return "no parity witness"
    if green_parity is _NO_GREEN_YET:
        return "no green tile"
    if green_parity is None:
        return "green tile fails distance parity"
    if green_gap:
        return "green square counts do not add up"
    if yellow_gap:
        return "yellow square counts do not add up"
    return None


def check_tiling_theorem(t: Tiling) -> str | None:
    """The full per-tiling chain on any Tiling; None when everything holds.

    Validity, witness existence, green-tile existence, the green tile itself
    satisfying the distance parity, and the disjoint-union square counts; a
    lookup that returns None is a verdict, not an error.
    """
    if not is_valid_tiling(t):
        return "invalid tiling"
    first_green = find_green_tile(t)
    green_parity = (_NO_GREEN_YET if first_green is None
                    else distance_parity(side_distances(first_green, t.board)))
    return _chain_problem(witness(t) is not None, green_parity,
                          sum(count_green(r) for r in t.tiles) - count_green(t.board),
                          sum(count_yellow(r) for r in t.tiles) - count_yellow(t.board))


def count_tiling_theorem(a: int, b: int) -> dict[str | None, int]:
    """How many tilings of the a x b board end in each of check_tiling_theorem's verdicts.

    The problem of a tiling (None when the chain holds) maps to its number
    of tilings; a verdict no tiling gets is absent.  The search is
    enum_tilings' and reads each placed tile's facts from board_table.  The
    tilings that complete a partial one depend only on the squares it
    covers, so a sub-search reached again in an equal state is counted
    once.  The sums are fixed by the covered squares while count_green and
    count_yellow are right; they stay in the key so that a fault in either
    still shows.  The memo lives for one call.
    """
    table = board_table(a, b)
    board_green, board_yellow = table[(0, a, 0, b)][2:]
    full = (1 << a * b) - 1
    memo: dict[tuple, dict[str | None, int]] = {}

    def rec(occ: int, has_witness: bool, green_parity: WitnessParity | None | str,
            greens: int, yellows: int) -> dict[str | None, int]:
        key = (occ, has_witness, green_parity, greens, yellows)
        counts = memo.get(key)
        if counts is None:
            if occ == full:
                counts = {_chain_problem(has_witness, green_parity, greens - board_green,
                                         yellows - board_yellow): 1}
            else:
                counts = {}
                for tile, mask in _placements(occ, a, b):
                    parity, is_green, cg, cy = table[tile]
                    first_parity = (parity if green_parity is _NO_GREEN_YET and is_green
                                    else green_parity)
                    for verdict, n in rec(occ | mask, has_witness or parity is not None,
                                          first_parity, greens + cg, yellows + cy).items():
                        counts[verdict] = counts.get(verdict, 0) + n
            memo[key] = counts
        return counts

    return rec(0, False, _NO_GREEN_YET, 0, 0)
