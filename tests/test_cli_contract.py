"""The CLI contract as a property: every input ends in a documented exit code.

Argument lists are drawn from the CLI's grammar: each command, each flag
missing, given once or repeated, flags of other commands and unknown ones,
integers at the caps and past them, 0, -1, a 5000-digit value and values
that are not integers; c1-check gets an intact c1-gen output, a missing
file, a directory, no path or two.  A second test runs c1-check on drawn
tiling files: c1-gen outputs, intact or broken by the benchmark's defect
kinds (an overlap, a gap, a tile off the edge), by a duplicate tile, a bad
token, a missing board line or a non-ASCII byte.  Flag values, unknown
arguments and c1-check's paths may hold line breaks and other control
characters, and a path may hold an undecodable byte, which argv decoding
turns into a lone surrogate.  Each case runs cli.main in process, and
every case must:

- exit 0, 1, 2 or 3, with no other exception escaping;
- on exit 2, write exactly one stderr line, with no other line break, and
  nothing to stdout;
- on exit 0, write its command's documented output, and for a2 --verify a
  stderr record that the record grammar parses.

Work stays small, so the caps that cost seconds are drawn only past their
edge: a2 --n values in the cap are at most 60 (a2 --n 1000 --verify takes
seconds), n1 --steps values in the cap at most 40, or 9999, which is past
the byte cap beside a start of thousands of digits, c1-gen guillotine
boards at most 15 x 15, and suite runs a two-row table.
"""

import contextlib
import functools
import io
import os
import re
import tempfile
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from imocheck import cli, suite, tilefile, tiling
from conftest import SMALL_PARAMS
from test_cli import N1_TOP_A0, N1_TOP_BUDGET_AT_5, RECORD_RE

BIG = "9" * 5000   # past Python's int <- str digit limit, so argparse rejects it
# Text that an exit-2 line must not echo raw: C0 controls, DEL, NEL, U+2028 and U+2029.
BREAKS = st.sampled_from("\t\n\r\x0b\x0c\x1b\x1c\x1e\x7f\x85\u2028\u2029").map(lambda c: f"x{c}y")
NOT_INTS = st.one_of(st.sampled_from(["", "x", "1.5", "0x10", "1e3", "--"]), BREAKS)
# c1-check's paths, as names in the case's directory: one holds an undecodable byte.
NAMES = st.one_of(st.just("in.tiling"), st.just("in\udcff.tiling"),
                  BREAKS.map(lambda text: f"in{text}.tiling"))


def _ints(low, high, *edges):
    """Draws for an integer flag: (small values in its cap, its edges, BIG or a non-integer).

    Every non-integer takes argparse's one path, so one edge draw in four is one.
    """
    edge = st.sampled_from([str(v) for v in edges] + [BIG])
    return st.integers(low, high).map(str), st.integers(0, 3).flatmap(
        lambda i: edge if i else NOT_INTS)


SIDES = _ints(1, 15, 0, -1, tilefile.MAX_SIDE - 1, tilefile.MAX_SIDE, tilefile.MAX_SIDE + 1)
SEEDS = _ints(0, 99, -1, 10 ** 4000)
# Each command's flags: None for a flag that takes no value, else its pair of draws.
FLAGS = {
    "a2": {"--n": _ints(1, 60, 0, -1, cli.A2_MAX_N + 1), "--verify": None},
    "c1-gen": {"--a": SIDES, "--b": SIDES, "--seed": SEEDS,
               "--kind": (st.sampled_from(["guillotine", "pinwheel"]),
                          st.one_of(st.just("spiral"), BREAKS))},
    "n1": {"--a0": _ints(2, 10 ** 6, 0, 1, -1, 10 ** 12, N1_TOP_A0 - 1, N1_TOP_A0,
                         N1_TOP_A0 + 1),
           "--steps": _ints(0, 40, -1, 9999, 2 ** 21),
           "--classify": None,
           "--budget": _ints(1, 50, 0, -1, 10 ** 4, N1_TOP_BUDGET_AT_5, N1_TOP_BUDGET_AT_5 + 1)},
    "suite": {"--records": None, "--seed": SEEDS},
    "c1-check": {},
}
# The flag sets each command documents.  A case drawn from one gives each
# flag once and at most one flag an edge value.  Other cases, half as
# many as those from any one set, give each flag zero, one or two times,
# with any value; most end in argparse's one error path.
USUAL = {"a2": [["--n"], ["--n", "--verify"]],
         "c1-gen": [["--a", "--b"], ["--a", "--b", "--seed", "--kind"]],
         "n1": [["--a0", "--steps"], ["--a0", "--classify"], ["--a0", "--classify", "--budget"]],
         "suite": [[], ["--records"], ["--records", "--seed"], ["--seed"]],
         "c1-check": [[]]}
UNKNOWN_TOKENS = ["--bogus", "-z", "bogus", "--n", "--a", "--steps", "--records", "--verify"]
DEFECTS = [None, "overlap", "gap", "edge", "duplicate", "bad_token", "no_board", "non_ascii"]
INTACT = tilefile.serialize_tiling(tiling.gen_guillotine(5, 3, 1)).encode()
# suite is drawn with a two-row table: one plain row and one seeded row.
TWO_ROWS = tuple(c._replace(params={**c.params, **SMALL_PARAMS[c.id]}) for c in suite.CLAIMS
                 if c.id in ("c1.corner_lemma", "c1.theorem_random"))


@st.composite
def tiling_files(draw):
    """The bytes of a c1-gen output, intact or with one drawn defect."""
    a, b = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    seed = draw(st.integers(0, 99))
    t = (tiling.random_pinwheel(a, b, seed)
         if a >= 3 and b >= 3 and draw(st.booleans()) else tiling.gen_guillotine(a, b, seed))
    lines = tilefile.serialize_tiling(t).splitlines()
    tiles = [list(map(int, line.split()[1:])) for line in lines[1:]]
    defect = draw(st.sampled_from(DEFECTS))
    i = draw(st.integers(0, len(tiles) - 1))
    if defect in ("overlap", "edge"):
        # grow a tile by one line: into its neighbour, or past the board's edge
        grow = [(j, d) for j, r in enumerate(tiles) for d in (1, 3)
                if (r[d] < (a if d == 1 else b)) == (defect == "overlap")]
        if grow:
            j, d = draw(st.sampled_from(grow))
            tiles[j][d] += 1
    elif defect == "gap":
        del tiles[i]
    elif defect == "duplicate":
        tiles.append(tiles[i])
    lines = lines[:1] + ["tile {} {} {} {}".format(*r) for r in tiles]
    if defect == "bad_token":
        words = lines[i + 1].split()
        words[draw(st.integers(1, 4))] = draw(st.sampled_from(["x", "-1", "1.5", "+2", "0x1"]))
        lines[i + 1] = " ".join(words)
    elif defect == "no_board":
        del lines[0]
    text = ("\n".join(lines) + "\n").encode()
    if defect == "non_ascii":
        at = draw(st.integers(0, len(text)))
        byte = draw(st.sampled_from([b"\xff", "é".encode(), "٣".encode()]))
        text = text[:at] + byte + text[at:]
    return text


@st.composite
def argv_cases(draw, command):
    """An argument list for command; "{path}" stands for an intact c1-gen output.

    An argument list from no usual flag set may lose its command; any list
    may get one unknown token (a flag, another command's flag or "bogus").
    """
    argv = [command]
    flags = FLAGS[command]
    usual = draw(st.sampled_from(USUAL[command] * 2 + [None]))
    if usual is None:
        for flag, draws in flags.items():
            for _ in range(draw(st.integers(0, 2))):
                argv += [flag] if draws is None else [flag, draw(st.one_of(draws))]
    else:
        edge = draw(st.sampled_from([None] + [f for f in usual if flags[f] is not None]))
        for flag in usual:
            argv += [flag] if flags[flag] is None else [flag, draw(flags[flag][flag == edge])]
    if command == "c1-check":
        absent = "{dir}/absent-" + draw(NAMES)
        argv += draw(st.sampled_from([["{path}"], [absent], ["{dir}"], [], ["{path}", "{path}"]]))
    if usual is None and draw(st.integers(0, 5)) == 0:
        del argv[0]
    if draw(st.integers(0, 7)) == 0:
        unknown = st.one_of(st.sampled_from(UNKNOWN_TOKENS), BREAKS)
        argv.insert(draw(st.integers(0, len(argv))), draw(unknown))
    return argv


def _run(argv):
    """cli.main(argv) in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


A2_LINE = re.compile(r"(\d+)\t-?\d+/[1-9]\d*")
WITNESS = re.compile(r"witness \(\d+,\d+,\d+,\d+\) ds=\(\d+,\d+,\d+,\d+\) (AllEven|AllOdd)\n")
CLASSIFIED = re.compile(r"(PeriodicMult3 cycle=\(\d+,[1-9]\d*\)|DivergentMod2 m=\d+"
                        r"|DivergentViaMod1 m=\d+)\n")


def _assert_documented_output(argv, out, err):
    """An exit-0 run's output has its command's documented form."""
    args = cli.build_parser().parse_args(argv)
    if args.command == "a2":
        lines = out.splitlines()
        assert [int(A2_LINE.fullmatch(line)[1]) for line in lines] == list(range(args.n + 1))
        if args.verify:
            assert RECORD_RE.match(err) and err.startswith("CLAIM a2.verify ")
            assert err.endswith("outcome=pass\n") and err.count("\n") == 1
        else:
            assert err == ""
    elif args.command == "c1-check":
        assert WITNESS.fullmatch(out) and err == ""
    elif args.command == "c1-gen":
        t = tilefile.parse_tiling(out)
        assert tilefile.serialize_tiling(t) == out and err == ""
        assert t.board == (0, args.a, 0, args.b) and not tilefile.tiling_problems(t)
    elif args.command == "n1" and args.steps is not None:
        values = out.split(" ")
        assert out.endswith("\n") and len(values) == args.steps + 1 and err == ""
        assert int(values[0]) == args.a0 and all(v.strip().isdigit() for v in values)
    elif args.command == "n1":
        assert CLASSIFIED.fullmatch(out) and err == ""
    else:
        diagnostics, records = (err, out) if args.records else (out, "")
        assert diagnostics.startswith(f"suite seed={args.seed}\n")
        assert f"\n{len(TWO_ROWS)}/{len(TWO_ROWS)} claims passed\n" in diagnostics
        if args.records:
            lines = records.splitlines()
            assert len(lines) == len(TWO_ROWS) and all(RECORD_RE.match(line) for line in lines)
        else:
            assert [line.split()[:2] for line in out.splitlines()[1:-1]] == [
                ["PASS", row.id] for row in TWO_ROWS]


def _assert_contract(template, content, name="in.tiling"):
    """Run the argument list on a file of these bytes and check the contract's three clauses."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            suite, "run_suite", functools.partial(suite.run_suite, claims=TWO_ROWS)):
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(content)
        argv = [arg.format(path=path, dir=tmp) for arg in template]
        code, out, err = _run(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert "\r" not in err and len(err.splitlines()) == 1, (argv, err)
    if code == 0:
        _assert_documented_output(argv, out, err)


@pytest.mark.parametrize("command", FLAGS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_argument_list_ends_in_a_documented_exit(command, data):
    _assert_contract(data.draw(argv_cases(command)), INTACT)


@settings(max_examples=100, deadline=None)
@given(tiling_files(), NAMES)
def test_every_tiling_file_ends_in_a_documented_exit(content, name):
    _assert_contract(["c1-check", "{path}"], content, name)
