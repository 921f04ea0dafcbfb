"""The C1 tiling file layer: rects, tilings, the validator, the witness, the text format.

Everything `imocheck c1-check FILE` runs lives here, and it imports only the
standard library and errors, so a c1-check request compiles this module and
none of the enumeration, board table or theorem routes of tiling.py.  tiling.py
imports these names from here and uses the same objects, so there is one
validator and one witness.  A tiling with no witness is an answer: None.

A rectangle is the quadruple (x1, x2, y1, y2) of its left, right, bottom and
top lines on natural coordinates; it is valid iff x1 < x2 and y1 < y2.  Its
unit squares are the half-open product [x1, x2) x [y1, y2).  The validator,
tiling_problems, checks cover and non-overlap by counting areas and
sweeping the tiles in x, never materializing squares, so its cost depends
on the tile count and not on the board area.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .errors import PreconditionFailedError, TilingParseError

Rect = tuple[int, int, int, int]


def valid_rect(r: Rect) -> bool:
    x1, x2, y1, y2 = r
    return x1 < x2 and y1 < y2


def area(r: Rect) -> int:
    x1, x2, y1, y2 = r
    return (x2 - x1) * (y2 - y1) if x1 < x2 and y1 < y2 else 0


def inside(ri: Rect, ro: Rect) -> bool:
    """squares(ri) subset-of squares(ro), by coordinate comparison."""
    x1, x2, y1, y2 = ri
    if not (x1 < x2 and y1 < y2):
        return True
    u1, u2, v1, v2 = ro
    return u1 <= x1 and x2 <= u2 and v1 <= y1 and y2 <= v2   # these make ro valid too


class Tiling(NamedTuple):
    """A board rect (0, a, 0, b) plus the finite set of tiles claimed to tile it."""

    board: Rect
    tiles: frozenset[Rect]


def _overlapping_pair(rs: list[Rect]) -> tuple[Rect, Rect] | None:
    """Some pair of the valid rects rs that share a square, in sorted order, or None.

    An x-sweep with O(k log k) comparisons for k rects, whatever their size.
    Each rect starts at x1 and ends at x2; at equal x the ends go first,
    since half-open rects that merely touch share no square.  The
    y-intervals of the rects crossing the sweep line are kept sorted and,
    until the first overlap, pairwise disjoint, so a starting rect overlaps
    one of them exactly when it overlaps a neighbour of its insertion point.
    """
    events = sorted([(r[0], 1, r) for r in rs] + [(r[1], 0, r) for r in rs])
    active: list[tuple[int, int, Rect]] = []   # (y1, y2, rect), sorted
    for _, starts, r in events:
        entry = (r[2], r[3], r)
        i = bisect_left(active, entry)
        if not starts:
            del active[i]
        elif i and active[i - 1][1] > r[2]:
            return tuple(sorted((active[i - 1][2], r)))
        elif i < len(active) and active[i][0] < r[3]:
            return tuple(sorted((active[i][2], r)))
        else:
            active.insert(i, entry)
    return None


def tiling_problems(t: Tiling) -> list[str]:
    """Invariant violations, human-readable; empty list means valid.

    The one tiling validator: c1-check runs it on every file, and
    tiling.check_tiling_theorem on every Tiling it checks.  The tiles cover
    the board exactly when none overlap, each lies inside the board and
    their areas add up to the board's, so it counts areas instead of squares.
    """
    problems = []
    b = t.board
    if b[0] != 0 or b[2] != 0:
        problems.append(f"board {b} is not anchored at the origin")
    if not valid_rect(b):
        problems.append(f"board {b} is not a valid rectangle")
    valid = []
    covered = 0
    for r in sorted(t.tiles):
        if not valid_rect(r):
            problems.append(f"tile {r} is invalid (needs x1 < x2 and y1 < y2)")
            continue
        if not inside(r, b):
            problems.append(f"tile {r} is not inside the board")
        valid.append(r)
        covered += area(r)
    pair = _overlapping_pair(valid)   # invalid tiles have no squares to share
    if pair is not None:
        problems.append(f"tiles {pair[0]} and {pair[1]} overlap")
    if not problems and covered != area(b):
        problems.append(f"tiles cover {covered} of {area(b)} board squares")
    return problems


# scan order for witness/green-tile tie-breaking: (x1, y1, x2, y2)
lex_key = itemgetter(0, 2, 1, 3)


def _lex_tiles(t: Tiling) -> list[Rect]:
    return sorted(t.tiles, key=lex_key)


def side_distances(r: Rect, board: Rect) -> tuple[int, int, int, int]:
    """Distances of the tile to the four board sides: left, right, bottom, top."""
    return (r[0] - board[0], board[1] - r[1], r[2] - board[2], board[3] - r[3])


class WitnessParity(Enum):
    ALL_EVEN = "AllEven"
    ALL_ODD = "AllOdd"


def distance_parity(ds: tuple[int, ...]) -> WitnessParity | None:
    """ALL_EVEN when {d % 2 for d in ds} <= {0}, () too; ALL_ODD when it is {1}; else None."""
    parities = {d % 2 for d in ds}
    if parities <= {0}:
        return WitnessParity.ALL_EVEN
    if parities == {1}:
        return WitnessParity.ALL_ODD
    return None


def witness(t: Tiling) -> tuple[Rect, WitnessParity] | None:
    """First tile whose four side distances share a parity, with that parity, or None.

    Scans every tile directly for the distance property, in the same
    (x1, y1, x2, y2) order as tiling.find_green_tile.
    """
    for r in _lex_tiles(t):
        parity = distance_parity(side_distances(r, t.board))
        if parity is not None:
            return r, parity
    return None


# -- text format -----------------------------------------------------------------

# parse_tiling's input caps.  Every number in a file, board side or tile
# coordinate, is at most MAX_SIDE: a coordinate above it lies outside every
# board the parser accepts.  A file holds at most MAX_TILES tiles; the
# validator's sweep costs O(k log k) in the tile count k.
MAX_SIDE = 10 ** 6
MAX_TILES = 10 ** 5
_MAX_SIDE_DIGITS = len(str(MAX_SIDE))


def parse_tiling(text: str) -> Tiling:
    """Parse the tiling text format; malformed lines raise with their number.

    A number above MAX_SIDE or a tile past the MAX_TILES-th raises at its
    line, before the rest of the file is parsed.
    """
    board: Rect | None = None
    rects: set[Rect] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        digits = "".join(args)   # every token is decimal iff their concatenation is
        if args and not (digits.isascii() and digits.isdecimal()):
            raise TilingParseError(line_no, f"expected decimal naturals, got {args}")
        # int() refuses thousands of digits, leading zeros too, so it reads each
        # token stripped of them, and only once the length test has kept it
        values = []
        for tok in args:
            s = tok.lstrip("0")
            if len(s) <= _MAX_SIDE_DIGITS:
                values.append(int(s or "0"))
        if len(values) < len(args) or max(values, default=0) > MAX_SIDE:
            raise TilingParseError(line_no, f"a number above the cap {MAX_SIDE}")
        if keyword == "board":
            if board is not None:
                raise TilingParseError(line_no, "duplicate board line")
            if len(values) != 2:
                raise TilingParseError(line_no, "board needs exactly A B")
            board = (0, values[0], 0, values[1])
        elif keyword == "tile":
            if board is None:
                raise TilingParseError(line_no, "tile before board line")
            if len(values) != 4:
                raise TilingParseError(line_no, "tile needs exactly X1 X2 Y1 Y2")
            if len(rects) == MAX_TILES:
                raise TilingParseError(line_no, f"more than {MAX_TILES} tiles")
            rect = (values[0], values[1], values[2], values[3])
            if rect in rects:
                raise TilingParseError(line_no, f"duplicate tile {rect}")
            rects.add(rect)
        else:
            raise TilingParseError(line_no, f"unknown keyword {keyword!r}")
    if board is None:
        raise TilingParseError(1, "missing board line")
    return Tiling(board, frozenset(rects))


def serialize_tiling(t: Tiling) -> str:
    """Canonical text form: "board A B" then one "tile X1 X2 Y1 Y2" per tile.

    Tiles are emitted in lexicographic tuple order, so serialization is a
    canonical form: parse followed by serialize is the identity on its output.
    """
    if t.board[0] != 0 or t.board[2] != 0:
        raise PreconditionFailedError(f"board {t.board} is not anchored at the origin")
    lines = [f"board {t.board[1]} {t.board[3]}"]
    lines += [f"tile {x1} {x2} {y1} {y2}" for x1, x2, y1, y2 in sorted(t.tiles)]
    return "\n".join(lines) + "\n"
