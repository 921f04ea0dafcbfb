"""Output oracles for each request kind, independent of the program's code.

Each ``check_*`` function takes what one child process returned and lists
the problems it finds; an empty list means the response is correct.  The
references here share no code with ``imocheck``: the A2 terms come from the
Gregory coefficients through Stirling numbers, and the N1 indices from an
O(1)-per-square jump instead of stepping.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, gcd, isqrt

# The claim ids emitted by ``imocheck suite`` when this benchmark was
# written; later versions may add ids but not drop these.
SUITE_CLAIMS = (
    "a2.base_case", "a2.verify", "a2.sum_lemmas", "a2.subtraction_identity",
    "a2.coefficient_positivity",
    "c1.counting", "c1.classification_link", "c1.corner_lemma",
    "c1.parity_lemma_exhaustive", "c1.theorem_exhaustive", "c1.enumeration_count",
    "c1.theorem_random", "c1.roundtrip",
    "n1.square_mod3_ne2", "n1.three_squares_mod3", "n1.square_mod3_zero",
    "n1.step_image", "n1.residue_preservation", "n1.fixed_orbits",
    "n1.classification", "n1.cycle_shape", "n1.claim1", "n1.claim2_certificate",
    "n1.claim3", "n1.claim4", "n1.small_claims", "n1.divergence",
    "n1.mult3_propagates", "n1.nonmult3_propagates", "n1.all_gt1",
)

CLAIM_RE = re.compile(r"CLAIM (\S+)(?: [A-Za-z0-9_]+=\S+)* outcome=pass")
WITNESS_RE = re.compile(
    r"witness \((\d+),(\d+),(\d+),(\d+)\) ds=\((\d+),(\d+),(\d+),(\d+)\) (AllEven|AllOdd)")
DEFECT_TEXT = {"overlap": "overlap", "gap": "tiles cover", "edge": "not inside the board"}


def _lines(data: bytes) -> list[str]:
    return data.decode("utf-8", "replace").splitlines()


def check_suite(seed: int, rc: int, out: bytes, err: bytes) -> tuple[list[str], int, int]:
    """Problems of one ``suite --records`` response, the claims it covers and how many are wrong.

    A malformed or failing record and a missing claim each count as one
    wrong claim; a wrong exit code or stderr makes every claim wrong.
    """
    problems = []
    lines = _lines(out)
    ids = []
    for line in lines:
        m = CLAIM_RE.fullmatch(line)
        if m is None:
            problems.append(f"not a passing CLAIM record: {line[:120]}")
        else:
            ids.append(m.group(1))
    wrong = len(problems)
    missing = [c for c in SUITE_CLAIMS if c not in ids]
    if missing:
        problems.append(f"missing claims: {missing}")
        wrong += len(missing)
    if len(set(ids)) != len(ids):
        problems.append("a claim id appears twice")
        wrong += len(ids) - len(set(ids))
    units = max(len(lines), len(SUITE_CLAIMS))
    errs = _lines(err)
    stream_problems = []
    if rc != 0:
        stream_problems.append(f"exit code {rc}")
    if f"suite seed={seed}" not in errs:
        stream_problems.append("no 'suite seed=' line on stderr")
    if f"{len(lines)}/{len(lines)} claims passed" not in errs:
        stream_problems.append("no all-passed summary on stderr")
    if stream_problems:
        wrong = units
    return problems + stream_problems, units, min(wrong, units)


def check_c1(board: tuple[int, int], tiles: list, defect: str | None,
             rc: int, out: bytes, err: bytes) -> list[str]:
    """A valid file prints a correct parity witness; a broken one exits 1 naming its defect."""
    errs = _lines(err)
    if defect is not None:
        problems = [] if rc == 1 else [f"exit code {rc}, want 1"]
        if out:
            problems.append("stdout not empty on an invalid tiling")
        if not errs or any(not e.startswith("invalid tiling: ") for e in errs):
            problems.append(f"stderr is not all 'invalid tiling' lines: {errs[:3]}")
        if not any(DEFECT_TEXT[defect] in e for e in errs):
            problems.append(f"no line reports the {defect}")
        return problems
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if errs:
        problems.append(f"stderr not empty: {errs[:3]}")
    lines = _lines(out)
    m = WITNESS_RE.fullmatch(lines[0]) if len(lines) == 1 else None
    if m is None:
        return problems + [f"not one witness line: {lines[:3]}"]
    rect = tuple(int(m.group(i)) for i in range(1, 5))
    ds = tuple(int(m.group(i)) for i in range(5, 9))
    a, b = board
    if rect not in set(tiles):
        problems.append(f"witness {rect} is not a tile")
    if ds != (rect[0], a - rect[1], rect[2], b - rect[3]):
        problems.append(f"ds {ds} wrong for {rect} on {a}x{b}")
    parities = {d % 2 for d in ds}
    want = {frozenset({0}): "AllEven", frozenset({1}): "AllOdd"}.get(frozenset(parities))
    if m.group(9) != want:
        problems.append(f"label {m.group(9)} wrong for ds {ds}")
    return problems


def n1_reference(a0: int) -> str:
    """The expected ``n1 --classify`` line, computed by jumping square to square.

    On a non-square v the orbit adds 3 until the first square s*s >= v with
    s*s = v (mod 3), which takes (s*s - v) / 3 steps, and then moves to s.
    Residues never change along a run of +3 steps, so the first residue-2
    value and the entry into the 3, 6, 9 cycle are always at a landing.
    """
    if a0 % 3 == 2:
        return "DivergentMod2 m=0"
    v, index = a0, 0
    while True:
        if a0 % 3 == 0 and v in (3, 6, 9):
            return f"PeriodicMult3 cycle=({index},3)"
        if a0 % 3 == 1 and v % 3 == 2:
            return f"DivergentViaMod1 m={index}"
        s = isqrt(v)
        if s * s != v:
            s += 1
            while (s * s - v) % 3:
                s += 1
            index += (s * s - v) // 3
        v, index = s, index + 1


def check_n1(a0: int, rc: int, out: bytes, err: bytes) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if err:
        problems.append(f"stderr not empty: {_lines(err)[:3]}")
    want = n1_reference(a0)
    if _lines(out) != [want]:
        problems.append(f"a0={a0}: got {_lines(out)[:2]}, want {want}")
    return problems


class GregoryReference:
    """a_0..a_n of the A2 sequence via Gregory coefficients.

    a_n = (-1)^(n+1) * (1/n!) * sum_{l=1..n} s(n, l) / (l + 1), with s the
    signed Stirling numbers of the first kind, and a_0 = -1.  Each sum is
    taken over the single denominator lcm(2..n+1) in integers.
    """

    def __init__(self) -> None:
        self._row = [1]                 # s(0, l) for l = 0..0
        self._terms = [Fraction(-1)]

    def terms(self, n: int) -> list[Fraction]:
        while len(self._terms) <= n:
            m = len(self._terms)        # next index; s(m, .) from s(m-1, .)
            prev = self._row + [0]
            self._row = [(prev[l - 1] if l else 0) - (m - 1) * prev[l] for l in range(m + 1)]
            lcm = 1
            for d in range(2, m + 2):
                lcm = lcm * d // gcd(lcm, d)
            num = sum(self._row[l] * (lcm // (l + 1)) for l in range(1, m + 1))
            sign = 1 if m % 2 else -1
            self._terms.append(Fraction(sign * num, factorial(m) * lcm))
        return self._terms[:n + 1]


def check_a2(ref: GregoryReference, n: int, rc: int, out: bytes, err: bytes) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    want_err = [f"CLAIM a2.verify n_max={n} steps={n} outcome=pass"]
    if _lines(err) != want_err:
        problems.append(f"stderr {_lines(err)[:2]}, want {want_err}")
    want = [f"{i}\t{q.numerator}/{q.denominator}" for i, q in enumerate(ref.terms(n))]
    got = _lines(out)
    if got != want:
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        problems.append(f"n={n}: {len(got)} lines, first mismatch at line {bad}")
    return problems
