"""The kernels of n1 and tiling against naive oracles that share no code with them.

The last test pins imocheck.backend, the module that names the kernels for
the benchmark's tracer.
"""

import importlib.util
import math
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from imocheck import n1, tiling


def first_square_by_scan(start, nsteps):
    """Offset of the first perfect square among start, start+3, ..., or -1."""
    return next((i for i in range(nsteps) if n1.is_perfect_square(start + 3 * i)), -1)


def first_non_plus3_step(start, nsteps):
    """Index of the first of nsteps orbit steps that is not a +3 step, or -1."""
    vals = n1.orbit_fill(start, nsteps)
    return next((i for i in range(nsteps) if vals[i + 1] != vals[i] + 3), -1)


# starts anywhere, and starts a few steps below a perfect square so runs do hit one
run_starts = st.one_of(
    st.integers(2, 10**9),
    st.builds(lambda s, d: max(2, s * s - d), st.integers(2, 10**5), st.integers(0, 300)))


@given(run_starts, st.integers(0, 300))
def test_confirm_plus3_run_matches_scan_and_stepping(start, nsteps):
    found = n1.confirm_plus3_run(start, nsteps)
    assert found == first_square_by_scan(start, nsteps)
    assert found == first_non_plus3_step(start, nsteps)


@given(st.one_of(
    st.integers(2, 10**12),
    st.builds(lambda s, d: max(2, s * s - d), st.integers(2, 10**6), st.integers(0, 3 * 10**4))),
    st.integers(0, 10**4))
def test_confirm_plus3_run_matches_scan_on_long_windows(start, nsteps):
    assert n1.confirm_plus3_run(start, nsteps) == first_square_by_scan(start, nsteps)


@pytest.mark.parametrize("start,nsteps,expected", [
    (13, 10, 1),        # 13, 16: a square one step in
    (16, 10, 0),        # the start itself is a square
    (13, 2, 1),         # the square is the last value of the window
    (13, 1, -1),        # ... and one step past it
    (2, 10**5, -1),     # residue-2 runs never meet a square
    (5, 0, -1),         # an empty run is confirmed
])
def test_confirm_plus3_run_boundaries(start, nsteps, expected):
    assert n1.confirm_plus3_run(start, nsteps) == expected
    assert first_square_by_scan(start, nsteps) == expected
    assert first_non_plus3_step(start, nsteps) == expected


def test_confirm_plus3_run_on_pinned_windows():
    assert n1.confirm_plus3_run(200, 101) == -1      # 200, 203, ..., 500 (residue 2)
    assert n1.confirm_plus3_run(203, 50) == -1
    assert n1.confirm_plus3_run(503, 10) == -1
    assert n1.confirm_plus3_run(500, 20) == -1
    assert n1.confirm_plus3_run(2, 30) == -1
    assert n1.confirm_plus3_run(2, 300) == -1
    # residue 1: 904, 907, ..., 946 lies between 30^2 = 900 and 31^2 = 961
    assert n1.confirm_plus3_run(904, 15) == -1
    assert n1.confirm_plus3_run(946, 10) == 5        # 961 = 946 + 3 * 5
    assert n1.confirm_plus3_run(949, 5) == 4
    # residue 0: 1071, 1074, 1077 lies between 30^2 = 900 and 33^2 = 1089
    assert n1.confirm_plus3_run(1071, 3) == -1
    assert n1.confirm_plus3_run(1077, 10) == 4       # 1089 = 1077 + 3 * 4
    assert n1.confirm_plus3_run(1080, 2) == -1       # 1083 is the window's last value
    assert n1.confirm_plus3_run(1083, 3) == 2


def run_end_root_by_search(v):
    """The least s >= 0 with s*s >= v and s*s = v (mod 3), searched up to ceil(sqrt(v)) + 10."""
    top = math.isqrt(v) + 11
    return next((s for s in range(max(0, top - 21), top + 1)
                 if s * s >= v and s * s % 3 == v % 3), None)


def test_run_end_root_matches_search_on_every_small_value():
    for v in range(10**4 + 1):
        assert n1.run_end_root(v) == run_end_root_by_search(v), v


@given(st.one_of(st.integers(0, 10**30),
                 st.builds(lambda s, d: max(0, s * s - d), st.integers(0, 10**15), st.integers(-3, 9))))
def test_run_end_root_matches_search_on_large_values(v):
    assert n1.run_end_root(v) == run_end_root_by_search(v)


@given(st.integers(0, 10**12), st.integers(0, 4 * 10**12))
def test_confirm_plus3_run_tests_at_most_three_candidate_roots(start, nsteps):
    """Each call iterates at most three roots, whatever the window's length.

    The kernel's range is the only one on confirm_plus3_run's path, so a
    counting range in n1 counts the candidates it tests.  A scan of every
    root in the window tests about sqrt(3 * nsteps).
    """
    tested = 0

    def counting_range(*args):
        nonlocal tested
        for s in range(*args):
            tested += 1
            yield s

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(n1, "range", counting_range, raising=False)
        found = n1.confirm_plus3_run(start, nsteps)
    assert tested <= 3, (start, nsteps, tested)
    if found >= 0:
        assert found < nsteps and n1.is_perfect_square(start + 3 * found)


@given(st.one_of(st.integers(2, 10**9), st.integers(2**64 - 10**6, 2**70)),
       st.integers(0, 300))
def test_orbit_fill_matches_single_steps(a0, k):
    vals = [a0]
    for _ in range(k):
        vals.append(n1.n1_step(vals[-1]))
    assert n1.orbit_fill(a0, k) == vals


@pytest.mark.parametrize("a,b", [(1, 1), (1, 5), (2, 2), (2, 3), (3, 3), (4, 2)])
def test_enum_tilings_matches_reference_count(a, b):
    found = tiling.enum_tilings(a, b)
    assert len(set(found)) == len(found) == tiling.count_tilings_reference(a, b)
    # the squares cover the board and add up to its area, so no square is covered twice
    board = (0, a, 0, b)
    assert all(tiling.cover(ts, board) and sum(len(tiling.squares(r)) for r in ts) == a * b
               for ts in found)


def test_walk_is_lazy_and_fixes_0():
    assert list(islice(n1.walk(7), 6)) == [7, 10, 13, 16, 4, 2]
    assert list(islice(n1.walk(0), 3)) == [0, 0, 0]
    steps = n1.walk(-1)
    assert next(steps) == -1
    with pytest.raises(ValueError):
        next(steps)


def test_enum_tilings_places_tiles_by_distinct_lower_left_corners_in_lex_key_order():
    """Every board of area <= 12; each tile covers the lex-min square left uncovered."""
    for a in range(1, 13):
        for b in range(1, 12 // a + 1):
            for tiles in tiling.enum_tilings(a, b):
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
        for tile, mask in tiling._placements(occ, a, b):
            search(occ | mask, place(state, tile), place, leaf)

    search(0, (), lambda tiles, r: tiles + (r,), results.append)
    return results


def test_enum_tilings_lists_what_the_callback_search_lists_in_its_order():
    """Every board of area <= 12: the same tilings, each the same tuple, in the same order."""
    for a in range(1, 13):
        for b in range(1, 12 // a + 1):
            assert tiling.enum_tilings(a, b) == _callback_enum_tilings(a, b), (a, b)


def test_backend_names_exactly_the_tracer_targets_and_each_is_the_library_object():
    """perfbench/tracer.py wraps backend.<name> and rebinds each module global that is it."""
    from imocheck import backend
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = {attr for module, attr, _ in tracer.TARGETS.values() if module == "backend"}
    assert {name for name in vars(backend) if not name.startswith("_")} == wanted
    assert backend.isqrt is math.isqrt
    assert backend.confirm_plus3_run is n1.confirm_plus3_run
    assert backend.orbit_fill is n1.orbit_fill
    assert backend.enum_tilings is tiling.enum_tilings
