"""The kernels against naive oracles that share no code with them."""

from itertools import islice

import pytest
from hypothesis import given, strategies as st

from imocheck import backend, n1, tiling


def first_square_by_scan(start, nsteps):
    """Offset of the first perfect square among start, start+3, ..., or -1."""
    return next((i for i in range(nsteps) if n1.is_perfect_square(start + 3 * i)), -1)


def first_non_plus3_step(start, nsteps):
    """Index of the first of nsteps orbit steps that is not a +3 step, or -1."""
    vals = backend.orbit_fill(start, nsteps)
    return next((i for i in range(nsteps) if vals[i + 1] != vals[i] + 3), -1)


# starts anywhere, and starts a few steps below a perfect square so runs do hit one
run_starts = st.one_of(
    st.integers(2, 10**9),
    st.builds(lambda s, d: max(2, s * s - d), st.integers(2, 10**5), st.integers(0, 300)))


@given(run_starts, st.integers(0, 300))
def test_confirm_plus3_run_matches_scan_and_stepping(start, nsteps):
    found = backend.confirm_plus3_run(start, nsteps)
    assert found == first_square_by_scan(start, nsteps)
    assert found == first_non_plus3_step(start, nsteps)


@given(st.one_of(
    st.integers(2, 10**12),
    st.builds(lambda s, d: max(2, s * s - d), st.integers(2, 10**6), st.integers(0, 3 * 10**4))),
    st.integers(0, 10**4))
def test_confirm_plus3_run_matches_scan_on_long_windows(start, nsteps):
    assert backend.confirm_plus3_run(start, nsteps) == first_square_by_scan(start, nsteps)


@pytest.mark.parametrize("start,nsteps,expected", [
    (13, 10, 1),        # 13, 16: a square one step in
    (16, 10, 0),        # the start itself is a square
    (13, 2, 1),         # the square is the last value of the window
    (13, 1, -1),        # ... and one step past it
    (2, 10**5, -1),     # residue-2 runs never meet a square
    (5, 0, -1),         # an empty run is confirmed
])
def test_confirm_plus3_run_boundaries(start, nsteps, expected):
    assert backend.confirm_plus3_run(start, nsteps) == expected
    assert first_square_by_scan(start, nsteps) == expected
    assert first_non_plus3_step(start, nsteps) == expected


@given(st.one_of(st.integers(2, 10**9), st.integers(2**64 - 10**6, 2**70)),
       st.integers(0, 300))
def test_orbit_fill_matches_single_steps(a0, k):
    vals = [a0]
    for _ in range(k):
        vals.append(n1.n1_step(vals[-1]))
    assert backend.orbit_fill(a0, k) == vals


@pytest.mark.parametrize("a,b", [(1, 1), (1, 5), (2, 2), (2, 3), (3, 3), (4, 2)])
def test_enum_tilings_matches_reference_count(a, b):
    found = backend.enum_tilings(a, b)
    assert len(set(found)) == len(found) == tiling.count_tilings_reference(a, b)
    # the squares cover the board and add up to its area, so no square is covered twice
    board = (0, a, 0, b)
    assert all(tiling.cover(ts, board) and sum(len(tiling.squares(r)) for r in ts) == a * b
               for ts in found)


def test_walk_is_lazy_and_fixes_0():
    assert list(islice(backend.walk(7), 6)) == [7, 10, 13, 16, 4, 2]
    assert list(islice(backend.walk(0), 3)) == [0, 0, 0]
    steps = backend.walk(-1)
    assert next(steps) == -1
    with pytest.raises(ValueError):
        next(steps)


def test_enum_tilings_places_tiles_by_distinct_lower_left_corners_in_lex_key_order():
    """Every board of area <= 12; each tile covers the lex-min square left uncovered."""
    for a in range(1, 13):
        for b in range(1, 12 // a + 1):
            for tiles in backend.enum_tilings(a, b):
                corners = [(r[0], r[2]) for r in tiles]
                assert corners == sorted(set(corners)), (a, b, tiles)
                assert list(tiles) == sorted(tiles, key=tiling.lex_key), (a, b, tiles)


def _callback_enum_tilings(a, b):
    """enum_tilings as a generic search with place and leaf callbacks, a tuple as state."""
    full = (1 << a * b) - 1
    results = []

    def search(occ, state, place, leaf):
        if occ == full:
            leaf(state)
            return
        for tile, mask in backend._placements(occ, a, b):
            search(occ | mask, place(state, tile), place, leaf)

    search(0, (), lambda tiles, r: tiles + (r,), results.append)
    return results


def test_enum_tilings_lists_what_the_callback_search_lists_in_its_order():
    """Every board of area <= 12: the same tilings, each the same tuple, in the same order."""
    for a in range(1, 13):
        for b in range(1, 12 // a + 1):
            assert backend.enum_tilings(a, b) == _callback_enum_tilings(a, b), (a, b)
