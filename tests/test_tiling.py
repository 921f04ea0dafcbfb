from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from imocheck import tilefile, tiling
from imocheck.errors import PreconditionFailedError, TilingParseError
from imocheck.tiling import RectClass, Tiling, WitnessParity

# rects with coordinates in [0, 8]; roughly half are invalid, on purpose
any_rects = st.tuples(st.integers(0, 8), st.integers(0, 8),
                      st.integers(0, 8), st.integers(0, 8))
coord_pair = st.tuples(st.integers(0, 8), st.integers(0, 8)).map(sorted)
valid_rects = st.builds(lambda xs, ys: (xs[0], xs[1] + 1, ys[0], ys[1] + 1),
                        coord_pair, coord_pair)


# -- squares and set-level predicates -----------------------------------------

# The set-level predicates are defined literally over materialized square
# sets (cover, overlap_literal, inside_literal).  The package has only their
# interval forms: tilefile.inside, checked against inside_literal, and the
# validator tiling_problems, checked against the literal cover and
# overlap_literal definitions.  That keeps the set definitions authoritative.

def overlap_literal(r1, r2):
    return bool(tiling.squares(r1) & tiling.squares(r2))


def cover(rs, r):
    """Literal definition: the union of the tiles' squares equals r's squares."""
    u = set()
    for t in rs:
        u |= tiling.squares(t)
    return u == tiling.squares(r)


def inside_literal(ri, ro):
    return tiling.squares(ri) <= tiling.squares(ro)


def test_squares_examples():
    assert tiling.squares((0, 2, 0, 1)) == {(0, 0), (1, 0)}
    assert tiling.squares((3, 3, 0, 5)) == set()
    assert len(tiling.squares((0, 17, 0, 11))) == 187


@given(any_rects, any_rects)
def test_inside_agrees_with_square_sets(ri, ro):
    assert tiling.inside(ri, ro) == inside_literal(ri, ro)


def test_inside_examples():
    assert tiling.inside((1, 2, 1, 2), (0, 3, 0, 3))
    assert not tiling.inside((0, 3, 0, 3), (1, 2, 1, 2))
    assert tiling.inside((0, 2, 0, 2), (0, 2, 0, 2))


def overlap_free_literal(rs):
    return not any(overlap_literal(r1, r2) for r1, r2 in combinations(rs, 2))


def tiles_literal(rs, board):
    """The set definition of a tiling: the squares cover the board, none twice."""
    return cover(rs, board) and overlap_free_literal(rs)


def test_tiles_singleton():
    assert tiling.is_valid_tiling(Tiling((0, 1, 0, 1), frozenset({(0, 1, 0, 1)})))


@given(st.sets(valid_rects, max_size=4), st.integers(1, 9), st.integers(1, 9))
def test_tiles_agrees_with_literal_definition(rs, a, b):
    board = (0, a, 0, b)
    assert tiling.is_valid_tiling(Tiling(board, frozenset(rs))) == tiles_literal(rs, board)


# -- coloring, corners, counting ------------------------------------------------

def yellow(s):
    return not tiling.green(s)


def test_green_yellow():
    assert tiling.green((0, 0))
    assert yellow((0, 1))
    assert tiling.green((16, 10))


# corners and its precondition are the literal definitions that classify_rect
# reads off the coordinates; only the tests build corner sets.

def _require_valid(r):
    if not tilefile.valid_rect(r):
        raise PreconditionFailedError(f"rect {r} needs x1 < x2 and y1 < y2")


def corners(r):
    """The up-to-four corner squares of a valid rect."""
    _require_valid(r)
    x1, x2, y1, y2 = r
    return {(x1, y1), (x1, y2 - 1), (x2 - 1, y1), (x2 - 1, y2 - 1)}


def test_corners():
    assert corners((0, 1, 0, 1)) == {(0, 0)}
    assert corners((0, 17, 0, 11)) == {(0, 0), (0, 10), (16, 0), (16, 10)}
    assert corners((2, 4, 3, 5)) == {(2, 3), (2, 4), (3, 3), (3, 4)}
    with pytest.raises(PreconditionFailedError, match="needs x1 < x2 and y1 < y2"):
        corners((1, 1, 0, 2))


def test_classify_examples():
    assert tiling.classify_rect((0, 17, 0, 11)) is RectClass.GREEN
    assert tiling.classify_rect((1, 2, 0, 1)) is RectClass.YELLOW
    assert tiling.classify_rect((0, 2, 0, 1)) is RectClass.MIXED
    for invalid in ((1, 1, 0, 2), (0, 2, 3, 1)):
        with pytest.raises(PreconditionFailedError, match="needs x1 < x2 and y1 < y2"):
            tiling.classify_rect(invalid)


def _classify_rect_by_all(r):
    """classify_rect's literal definition, two all() passes over the corner squares."""
    cs = corners(r)
    if all(tiling.green(c) for c in cs):
        return RectClass.GREEN
    if all(yellow(c) for c in cs):
        return RectClass.YELLOW
    return RectClass.MIXED


def test_classify_rect_equals_the_all_based_definition_inside_12x12():
    for r in tiling.rects_inside(12, 12):
        assert tiling.classify_rect(r) is _classify_rect_by_all(r), r


def _distance_parity_by_all(ds):
    """distance_parity's earlier definition, two all() passes over the distances."""
    if all(d % 2 == 0 for d in ds):
        return WitnessParity.ALL_EVEN
    if all(d % 2 == 1 for d in ds):
        return WitnessParity.ALL_ODD
    return None


def test_distance_parity_equals_the_all_based_definition():
    assert tiling.distance_parity(()) is WitnessParity.ALL_EVEN
    for k in range(5):
        for ds in product(range(-3, 4), repeat=k):
            assert tiling.distance_parity(ds) is _distance_parity_by_all(ds), ds


def test_count_examples():
    assert (tiling.count_green((0, 3, 0, 3)), tiling.count_yellow((0, 3, 0, 3))) == (5, 4)
    assert (tiling.count_green((0, 1, 0, 1)), tiling.count_yellow((0, 1, 0, 1))) == (1, 0)
    assert (tiling.count_green((1, 3, 0, 2)), tiling.count_yellow((1, 3, 0, 2))) == (2, 2)
    for invalid in ((2, 2, 0, 1), (0, 1, 1, 0)):
        for count in (tiling.count_green, tiling.count_yellow):
            with pytest.raises(PreconditionFailedError, match="needs x1 < x2 and y1 < y2"):
                count(invalid)


@given(valid_rects)
def test_counts_match_brute_force(r):
    brute = sum(1 for s in tiling.squares(r) if tiling.green(s))
    assert tiling.count_green(r) == brute
    assert tiling.count_yellow(r) == tilefile.area(r) - brute


@given(valid_rects)
def test_classification_count_link(r):
    cg, cy = tiling.count_green(r), tiling.count_yellow(r)
    expected = {RectClass.GREEN: cy + 1, RectClass.YELLOW: cy - 1,
                RectClass.MIXED: cy}[tiling.classify_rect(r)]
    assert cg == expected


# -- witness machinery ------------------------------------------------------------

THREE_COLUMNS = Tiling((0, 3, 0, 3),
                       frozenset([(0, 1, 0, 3), (1, 2, 0, 3), (2, 3, 0, 3)]))
NINE_UNITS = Tiling((0, 3, 0, 3),
                    frozenset((x, x + 1, y, y + 1) for x in range(3) for y in range(3)))


def test_find_green_tile():
    board = Tiling((0, 5, 0, 7), frozenset([(0, 5, 0, 7)]))
    assert tiling.find_green_tile(board) == (0, 5, 0, 7)
    assert tiling.find_green_tile(THREE_COLUMNS) == (0, 1, 0, 3)
    assert tiling.find_green_tile(NINE_UNITS) == (0, 1, 0, 1)


def test_witness_examples():
    board = Tiling((0, 5, 0, 7), frozenset([(0, 5, 0, 7)]))
    assert tiling.witness(board) == ((0, 5, 0, 7), WitnessParity.ALL_EVEN)
    rect, parity = tiling.witness(THREE_COLUMNS)
    assert rect == (0, 1, 0, 3)
    assert parity is WitnessParity.ALL_EVEN
    assert tiling.side_distances(rect, (0, 3, 0, 3)) == (0, 2, 0, 0)


def test_witness_all_odd():
    # the 3x3 pinwheel's center square sits at distance 1 from every side
    t = tiling.pinwheel(3, 3, 1, 2, 1, 2)
    assert tiling.witness(t) == ((1, 2, 1, 2), WitnessParity.ALL_ODD)


def test_witness_pinwheel_cross_checked_by_scan():
    t = tiling.pinwheel(17, 11, 5, 12, 4, 8)
    rect, parity = tiling.witness(t)
    # independent scan over all five tiles in the tie-break order
    expected = None
    for r in sorted(t.tiles, key=lambda r: (r[0], r[2], r[1], r[3])):
        ds = (r[0], 17 - r[1], r[2], 11 - r[3])
        if len({d % 2 for d in ds}) == 1:
            expected = (r, ds[0] % 2 == 0)
            break
    assert expected is not None
    assert rect == expected[0]
    assert (parity is WitnessParity.ALL_EVEN) == expected[1]


def test_lookups_return_none_on_a_valid_tiling_without_one():
    """On the 2x1 board the answers are None, and the chain reports each as a verdict."""
    units = Tiling((0, 2, 0, 1), frozenset([(0, 1, 0, 1), (1, 2, 0, 1)]))
    domino = Tiling((0, 2, 0, 1), frozenset([(0, 2, 0, 1)]))
    assert tiling.is_valid_tiling(units) and tiling.is_valid_tiling(domino)
    assert tiling.witness(units) is None
    assert tiling.find_green_tile(domino) is None
    assert tiling.check_tiling_theorem(units) == "no parity witness"
    assert tiling.check_tiling_theorem(domino) == "no green tile"


def test_parity_lemma_check(monkeypatch):
    assert tiling.parity_lemma_check((0, 3, 0, 3), (0, 3, 0, 3)) is None
    assert tiling.parity_lemma_check((1, 2, 1, 2), (0, 3, 0, 3)) is None
    # with the parity test broken, the check fails with the four gaps
    monkeypatch.setattr(tiling, "distance_parity", lambda ds: None)
    assert tiling.parity_lemma_check((1, 2, 1, 2), (0, 3, 0, 3)) == (1, 1, 1, 1)


def test_parity_lemma_preconditions():
    with pytest.raises(PreconditionFailedError):
        tiling.parity_lemma_check((1, 2, 0, 1), (0, 3, 0, 3))  # ri yellow
    with pytest.raises(PreconditionFailedError):
        tiling.parity_lemma_check((0, 3, 0, 3), (1, 2, 1, 2))  # not inside
    for ri, ro in (((2, 1, 0, 1), (0, 3, 0, 3)), ((0, 1, 0, 1), (0, 3, 1, 1))):
        with pytest.raises(PreconditionFailedError, match="needs x1 < x2 and y1 < y2"):
            tiling.parity_lemma_check(ri, ro)   # an invalid rect, caught by classify_rect


# -- generators ---------------------------------------------------------------------

def test_guillotine_unit_board():
    t = tiling.gen_guillotine(1, 1, 7)
    assert t.tiles == frozenset([(0, 1, 0, 1)])


@pytest.mark.parametrize("a,b", [(3, 3), (17, 11), (4, 6), (1, 9)])
def test_guillotine_valid(a, b):
    for seed in range(5):
        t = tiling.gen_guillotine(a, b, seed)
        assert tiling.is_valid_tiling(t)


def test_guillotine_deterministic():
    assert tiling.gen_guillotine(9, 7, 123) == tiling.gen_guillotine(9, 7, 123)


def test_pinwheel_examples():
    t = tiling.pinwheel(3, 3, 1, 2, 1, 2)
    assert len(t.tiles) == 5
    assert (1, 2, 1, 2) in t.tiles
    assert tiling.is_valid_tiling(t)
    t = tiling.pinwheel(17, 11, 5, 12, 4, 8)
    assert tiling.is_valid_tiling(t)
    with pytest.raises(PreconditionFailedError, match="need 0 < 1 < 1 < 2 and 0 < 1 < 1 < 2"):
        tiling.pinwheel(2, 2, 1, 1, 1, 1)


def test_pinwheel_is_not_a_grid():
    # no full-width or full-height cut line exists in the 5-tile pinwheel
    t = tiling.pinwheel(3, 3, 1, 2, 1, 2)
    for c in (1, 2):
        assert any(r[0] < c < r[1] for r in t.tiles)
        assert any(r[2] < c < r[3] for r in t.tiles)


# -- enumeration -----------------------------------------------------------------------

# counts verified by two independent oracles (subset brute force over the
# tiles predicate, and recursion over square sets) before being frozen here
KNOWN_COUNTS = {(1, 1): 1, (2, 1): 2, (1, 3): 4, (2, 2): 8, (2, 3): 34, (3, 3): 322}


@pytest.mark.parametrize("a,b", sorted(KNOWN_COUNTS))
def test_enumeration_counts(a, b):
    ts = list(tiling.enumerate_tilings(a, b))
    assert len(ts) == KNOWN_COUNTS[(a, b)]
    assert len(set(ts)) == len(ts)  # exactly once each
    assert tiling.count_tilings_reference(a, b) == KNOWN_COUNTS[(a, b)]


def test_enumeration_yields_valid_tilings():
    for t in tiling.enumerate_tilings(2, 3):
        assert tiling.is_valid_tiling(t)


def test_enumeration_subset_brute_force_oracle():
    # literal oracle: try every subset of every valid rect on the 2x2 board
    rects = [(x1, x2, y1, y2)
             for x1 in range(2) for x2 in range(x1 + 1, 3)
             for y1 in range(2) for y2 in range(y1 + 1, 3)]
    board = (0, 2, 0, 2)
    found = set()
    for k in range(1, 5):
        for combo in combinations(rects, k):
            if tiles_literal(combo, board):
                found.add(frozenset(combo))
    assert found == {t.tiles for t in tiling.enumerate_tilings(2, 2)}


def test_enumeration_area_guard():
    with pytest.raises(PreconditionFailedError, match="17x11 exceeds the area cap 16"):
        next(tiling.enumerate_tilings(17, 11))


@pytest.mark.parametrize("a,b", [(1, 1), (1, 5), (2, 2), (2, 3), (3, 3), (4, 2)])
def test_enum_tilings_matches_reference_count(a, b):
    found = tiling.enum_tilings(a, b)
    assert len(set(found)) == len(found) == tiling.count_tilings_reference(a, b)
    # the squares cover the board and add up to its area, so no square is covered twice
    board = (0, a, 0, b)
    assert all(cover(ts, board) and sum(len(tiling.squares(r)) for r in ts) == a * b
               for ts in found)


def test_enum_tilings_places_tiles_by_distinct_lower_left_corners_in_lex_key_order():
    """Every board of area <= 12; each tile covers the lex-min square left uncovered."""
    for a in range(1, 13):
        for b in range(1, 12 // a + 1):
            for tiles in tiling.enum_tilings(a, b):
                corners = [(r[0], r[2]) for r in tiles]
                assert corners == sorted(set(corners)), (a, b, tiles)
                assert list(tiles) == sorted(tiles, key=tilefile.lex_key), (a, b, tiles)


def _callback_enum_tilings(a, b):
    """enum_tilings as a generic search with place and leaf callbacks, a tuple as state."""
    full = (1 << a * b) - 1
    results = []

    def search(occ, state, place, leaf):
        if occ == full:
            leaf(state)
            return
        for tile, mask in tiling._placements(occ, a, b):
            search(occ | mask, place(state, tile), place, leaf)

    search(0, (), lambda tiles, r: tiles + (r,), results.append)
    return results


def test_enum_tilings_lists_what_the_callback_search_lists_in_its_order():
    """Every board of area <= 12: the same tilings, each the same tuple, in the same order."""
    for a in range(1, 13):
        for b in range(1, 12 // a + 1):
            assert tiling.enum_tilings(a, b) == _callback_enum_tilings(a, b), (a, b)


@pytest.mark.parametrize("a,b", [(1, 1), (3, 2), (2, 5), (12, 12)])
def test_rects_inside_lists_every_rect_of_the_board_once_in_lex_order(a, b):
    rects = list(tiling.rects_inside(a, b))
    board = (0, a, 0, b)
    assert rects == sorted(set(rects))
    assert len(rects) == (a * (a + 1) // 2) * (b * (b + 1) // 2)
    assert all(tilefile.valid_rect(r) and inside_literal(r, board) for r in rects)


def test_board_table_examples():
    table = tiling.board_table(3, 2)
    assert len(table) == 6 * 3                    # x-intervals times y-intervals
    assert table[(1, 3, 0, 1)] == (None, False, 1, 1)
    assert table[(0, 1, 0, 2)] == (WitnessParity.ALL_EVEN, False, 1, 1)
    assert table[(0, 3, 0, 1)] == (None, True, 2, 1)
    assert table[(0, 3, 0, 2)] == (WitnessParity.ALL_EVEN, False, 3, 3)
    with pytest.raises(PreconditionFailedError, match="17x1 exceeds the area cap 16"):
        tiling.board_table(17, 1)


def test_board_table_entry_of_the_board_holds_its_counts(monkeypatch):
    """Every board of area <= 16; the count reads the board's counts from its entry."""
    board_table = tiling.board_table
    for a in range(1, tiling.ENUM_AREA_CAP + 1):
        for b in range(1, tiling.ENUM_AREA_CAP // a + 1):
            board = (0, a, 0, b)
            table = board_table(a, b)
            entry = table[board]
            assert entry == (WitnessParity.ALL_EVEN,
                             tiling.classify_rect(board) is RectClass.GREEN,
                             tiling.count_green(board), tiling.count_yellow(board))
            if a % 2 and b % 2 and 1 < a * b <= 9:
                total = tiling.count_tilings_reference(a, b)
                for i, problem in ((2, "green square counts do not add up"),
                                   (3, "yellow square counts do not add up")):
                    bumped = dict(table)
                    bumped[board] = entry[:i] + (entry[i] + 1,) + entry[i + 1:]
                    monkeypatch.setattr(tiling, "board_table", lambda a, b: bumped)
                    # every tiling but the board as one tile, whose own bump cancels
                    assert tiling.count_tiling_theorem(a, b) == {
                        problem: total - 1, None: 1}, (a, b)


def test_count_tiling_theorem_counts_boards_past_the_enumerators_area_cap(monkeypatch):
    """5x5 is OEIS A116694's 84231996; the count never lists a tiling, so no failure hides."""
    monkeypatch.setattr(tiling, "ENUM_AREA_CAP", 25)
    assert tiling.count_tiling_theorem(5, 5) == {None: 84231996}
    assert tiling.count_tiling_theorem(7, 3) == tiling.count_tiling_theorem(3, 7) == {
        None: 3149674}


# -- text format -------------------------------------------------------------------------

FILE_LAYER = ["Rect", "inside", "Tiling", "tiling_problems", "_lex_tiles",
              "side_distances", "WitnessParity", "distance_parity", "witness", "parse_tiling"]


def test_tiling_binds_tilefiles_objects():
    """One validator and one witness: tiling reads the file layer from tilefile.

    So a wrapper set on tiling.witness by a tracer (which rebinds every
    module's reference to the object) also reaches c1-check's tilefile.witness.
    """
    for name in FILE_LAYER:
        assert getattr(tiling, name) is getattr(tilefile, name), name
    # the names it does not call are read from tilefile
    for name in ("area", "valid_rect", "MAX_SIDE", "MAX_TILES", "lex_key", "serialize_tiling"):
        assert not hasattr(tiling, name), name


GOLDEN = """\
board 3 3
tile 0 1 0 3
tile 1 2 0 3
tile 2 3 0 3
"""


def test_serialize_golden():
    assert tilefile.serialize_tiling(THREE_COLUMNS) == GOLDEN


def test_tiling_is_an_immutable_value():
    t = Tiling((0, 2, 0, 1), frozenset([(0, 1, 0, 1), (1, 2, 0, 1)]))
    same = Tiling(board=(0, 2, 0, 1), tiles=frozenset([(1, 2, 0, 1), (0, 1, 0, 1)]))
    assert t == same and hash(t) == hash(same) and len({t, same}) == 1
    assert t != Tiling((0, 2, 0, 1), frozenset([(0, 2, 0, 1)]))
    assert repr(Tiling((0, 1, 0, 1), frozenset([(0, 1, 0, 1)]))) == (
        "Tiling(board=(0, 1, 0, 1), tiles=frozenset({(0, 1, 0, 1)}))")
    with pytest.raises(AttributeError):
        t.board = (0, 3, 0, 1)


def test_parse_round_trip():
    t = tilefile.parse_tiling(GOLDEN)
    assert t == THREE_COLUMNS
    assert tilefile.serialize_tiling(t) == GOLDEN


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\nboard 2 1   # trailing comment\ntile 0 2 0 1\n"
    t = tilefile.parse_tiling(text)
    assert t == Tiling((0, 2, 0, 1), frozenset([(0, 2, 0, 1)]))


@pytest.mark.parametrize("text,line", [
    ("tile 0 1 0 1\n", 1),                      # tile before board
    ("board 2 2\ntile 0 1 0\n", 2),             # wrong arity
    ("board 2 2\ntile 0 1 0 -1\n", 2),          # not a natural
    ("board 2\n", 1),                           # board arity
    ("board 2 2\nboard 2 2\n", 2),              # duplicate board
    ("board 2 2\nwall 0 1 0 1\n", 2),           # unknown keyword
    ("board 2 2\ntile 0 1 0 1\ntile 0 1 0 1\n", 3),  # duplicate tile
    ("# nothing\n", 1),                         # missing board
    ("board \u0663 1\n", 1),                    # Arabic-Indic digit three
    ("board 2 1\ntile 0 \uff12 0 1\n", 2),      # fullwidth digit two
    (f"board {tilefile.MAX_SIDE + 1} 1\n", 1),  # board side above the cap
    ("board 3 3\ntile 0 3 0 " + "9" * 5000 + "\n", 2),  # too long for int()
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(TilingParseError) as exc:
        tilefile.parse_tiling(text)
    assert exc.value.line_no == line


@pytest.mark.parametrize("token", ["9" * 5000, str(tilefile.MAX_SIDE + 1), "0" * 7 + "9" * 7])
def test_parse_refuses_a_number_above_the_cap_at_its_line(token):
    with pytest.raises(TilingParseError, match="a number above the cap") as exc:
        tilefile.parse_tiling(f"board 3 3\n\ntile 0 3 0 {token}\n")
    assert exc.value.line_no == 3


def test_parse_reads_leading_zeros():
    t = tilefile.parse_tiling("board 3 3\ntile 0000000 0000003 0 3\n")
    assert t == Tiling((0, 3, 0, 3), frozenset([(0, 3, 0, 3)]))
    # more zeros than int() reads in one number: the value, 3, still parses
    t = tilefile.parse_tiling(f"board {'0' * 5000}3 3\ntile 0 3 0 3\n")
    assert t == Tiling((0, 3, 0, 3), frozenset([(0, 3, 0, 3)]))


def unit_row(tiles):
    """A 1-high board of `tiles` unit tiles, as tiling-file lines."""
    return [f"board {tiles} 1"] + [f"tile {x} {x + 1} 0 1" for x in range(tiles)]


def test_parse_caps_admit_their_limits():
    t = tilefile.parse_tiling("\n".join(unit_row(tilefile.MAX_TILES)))
    assert len(t.tiles) == tilefile.MAX_TILES and tiling.is_valid_tiling(t)
    side = tilefile.MAX_SIDE
    t = tilefile.parse_tiling(f"board {side} 000{side}\ntile 0 {side} 0 {side}\n")
    assert t.board == (0, side, 0, side) and tiling.is_valid_tiling(t)


def test_parse_stops_at_the_tile_past_the_cap():
    lines = unit_row(tilefile.MAX_TILES + 1) + ["not a tiling line"]
    with pytest.raises(TilingParseError) as exc:
        tilefile.parse_tiling("\n".join(lines))
    assert exc.value.line_no == tilefile.MAX_TILES + 2
    assert "more than" in str(exc.value)


@given(st.integers(0, 2**32))
@settings(max_examples=25)
def test_generated_tilings_round_trip(seed):
    import random
    rng = random.Random(seed)
    a = rng.randrange(1, 18, 2)
    b = rng.randrange(1, 12, 2)
    t = tiling.gen_guillotine(a, b, rng.getrandbits(32))
    text = tilefile.serialize_tiling(t)
    assert tilefile.parse_tiling(text) == t


# -- validation diagnostics -----------------------------------------------------------------

def test_tiling_problems_names_overlapping_pair():
    bad = Tiling((0, 2, 0, 1), frozenset([(0, 2, 0, 1), (1, 2, 0, 1)]))
    problems = tiling.tiling_problems(bad)
    assert any("overlap" in p for p in problems)


def test_tiling_problems_detects_gap_and_outside():
    gap = Tiling((0, 2, 0, 1), frozenset([(0, 1, 0, 1)]))
    assert any("cover" in p for p in tiling.tiling_problems(gap))
    out = Tiling((0, 2, 0, 1), frozenset([(0, 2, 0, 1), (5, 6, 0, 1)]))
    assert any("inside" in p for p in tiling.tiling_problems(out))
    assert tiling.tiling_problems(THREE_COLUMNS) == []


@pytest.mark.parametrize("board,tiles,problems", [
    ((0, 2, 0, 1), {(0, 2, 0, 1), (1, 2, 0, 1)},
     ["tiles (0, 2, 0, 1) and (1, 2, 0, 1) overlap"]),
    ((0, 2, 0, 1), {(0, 1, 0, 1)}, ["tiles cover 1 of 2 board squares"]),
    ((0, 2, 0, 1), {(0, 2, 0, 1), (5, 6, 0, 1)},
     ["tile (5, 6, 0, 1) is not inside the board"]),
    # the cost depends on the tile count, not the area: a 10^18-wide board is instant
    ((0, 10**18, 0, 1), {(0, 1, 0, 1), (1, 10**18, 0, 1)}, []),
    ((0, 10**18, 0, 1), {(0, 1, 0, 1), (2, 10**18, 0, 1)},
     [f"tiles cover {10**18 - 1} of {10**18} board squares"]),
    ((0, 10**18, 0, 1), {(0, 10**17, 0, 1), (1, 10**18, 0, 1)},
     [f"tiles (0, {10**17}, 0, 1) and (1, {10**18}, 0, 1) overlap"]),
], ids=["overlap", "gap", "off-edge", "huge-valid", "huge-gap", "huge-overlap"])
def test_tiling_problems_message_texts(board, tiles, problems):
    assert tiling.tiling_problems(Tiling(board, frozenset(tiles))) == problems


@st.composite
def damaged_tilings(draw):
    """A guillotine tiling of a small board with tiles dropped and rects added."""
    a, b = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    t = tiling.gen_guillotine(a, b, draw(st.integers(0, 2**32)))
    dropped = draw(st.sets(st.sampled_from(sorted(t.tiles)), max_size=2))
    added = draw(st.sets(valid_rects, max_size=2))
    return t.board, (t.tiles - dropped) | added


@given(damaged_tilings())
def test_tiling_problems_agrees_with_literal_definitions(case):
    board, rs = case
    problems = tiling.tiling_problems(Tiling(board, frozenset(rs)))
    outside = not all(inside_literal(r, board) for r in rs)
    overlap = not overlap_free_literal(rs)
    gap = not (outside or overlap) and not cover(rs, board)
    assert (problems == []) == tiles_literal(rs, board)
    assert any("not inside the board" in p for p in problems) == outside
    assert any(p.endswith(" overlap") for p in problems) == overlap
    assert any(p.startswith("tiles cover ") for p in problems) == gap
