import functools
import hashlib
import importlib.util
import math
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from imocheck import cli, n1, suite, tilefile, tiling


def run_cli(argv, capsys):
    """Invoke main(), normalizing argparse SystemExit into an exit code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out, err = capsys.readouterr()
    return code, out, err


# -- a2 ------------------------------------------------------------------------

def test_a2_n1(capsys):
    code, out, _ = run_cli(["a2", "--n", "1"], capsys)
    assert code == 0
    assert out.splitlines() == ["0\t-1/1", "1\t1/2"]


def test_a2_n3_last_line(capsys):
    code, out, _ = run_cli(["a2", "--n", "3"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "3\t1/24"


def test_a2_verify(capsys):
    code, out, err = run_cli(["a2", "--n", "10", "--verify"], capsys)
    assert code == 0
    assert "outcome=pass" in err


def test_a2_verify_builds_the_sequence_once(capsys, monkeypatch):
    from imocheck import a2
    calls = []
    extend = a2.extend
    monkeypatch.setattr(a2, "extend", lambda seq: calls.append(seq) or extend(seq))
    code, out, err = run_cli(["a2", "--n", "30", "--verify"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 31
    assert err.splitlines() == ["CLAIM a2.verify n_max=30 steps=30 outcome=pass"]
    assert len(calls) == 30


def test_a2_n200_verify_output_is_pinned(capsys):
    code, out, err = run_cli(["a2", "--n", "200", "--verify"], capsys)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "9dafe550c687770dd564ce438dd1978772ef18513b478d31b6b9fac4952c3a06")
    assert err.splitlines() == ["CLAIM a2.verify n_max=200 steps=200 outcome=pass"]


def test_a2_rejects_n0(capsys):
    code, _, err = run_cli(["a2", "--n", "0", "--verify"], capsys)
    assert code == 2
    assert err


# -- c1 ------------------------------------------------------------------------

NINE_UNITS = "board 3 3\n" + "".join(
    f"tile {x} {x + 1} {y} {y + 1}\n" for x in range(3) for y in range(3))


def test_c1_check_nine_units(tmp_path, capsys):
    path = tmp_path / "nine.tiling"
    path.write_text(NINE_UNITS)
    code, out, _ = run_cli(["c1-check", str(path)], capsys)
    assert code == 0
    assert out.startswith("witness (0,1,0,1) ds=(0,2,0,2) AllEven")


def test_c1_check_single_tile_board(tmp_path, capsys):
    path = tmp_path / "unit.tiling"
    path.write_text("board 1 1\ntile 0 1 0 1\n")
    code, out, _ = run_cli(["c1-check", str(path)], capsys)
    assert code == 0
    assert "AllEven" in out


def test_c1_check_overlap_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.tiling"
    path.write_text("board 2 1\ntile 0 2 0 1\ntile 1 2 0 1\n")
    code, out, err = run_cli(["c1-check", str(path)], capsys)
    assert code == 1
    assert "overlap" in err
    assert "(0, 2, 0, 1)" in err and "(1, 2, 0, 1)" in err
    assert out == ""


def test_c1_check_odd_board_without_witness_is_an_anomaly(tmp_path, capsys, monkeypatch):
    """On an odd-by-odd board a missing witness breaks the theorem: exit 3."""
    monkeypatch.setattr(tilefile, "witness", lambda t: None)
    path = tmp_path / "nine.tiling"
    path.write_text(NINE_UNITS)
    code, out, err = run_cli(["c1-check", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["theorem anomaly: no parity witness in a tiling of (0, 3, 0, 3)"]


def test_c1_check_even_board_without_witness_exits_1(tmp_path, capsys):
    path = tmp_path / "two.tiling"
    path.write_text("board 2 1\ntile 0 1 0 1\ntile 1 2 0 1\n")
    code, out, err = run_cli(["c1-check", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "no parity witness on the 2x1 board: the theorem needs both sides odd"]


def test_c1_check_even_board_with_witness_exits_0(tmp_path, capsys):
    path = tmp_path / "domino.tiling"
    path.write_text("board 2 1\ntile 0 2 0 1\n")
    code, out, _ = run_cli(["c1-check", str(path)], capsys)
    assert code == 0
    assert out == "witness (0,2,0,1) ds=(0,0,0,0) AllEven\n"


def test_c1_check_reads_a_side_padded_past_the_int_digit_limit_by_its_value(tmp_path, capsys):
    path = tmp_path / "padded.tiling"
    path.write_text(f"board {'0' * 5000}3 1\ntile 0 3 0 1\n")
    code, out, err = run_cli(["c1-check", str(path)], capsys)
    assert (code, out, err) == (0, "witness (0,3,0,1) ds=(0,0,0,0) AllEven\n", "")


def test_c1_check_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.tiling"
    path.write_text("board 2 1\ntile 0 zwei 0 1\n")
    code, _, err = run_cli(["c1-check", str(path)], capsys)
    assert code == 2
    assert "line 2" in err


def test_c1_check_missing_file(capsys):
    code, _, err = run_cli(["c1-check", "/nonexistent/x.tiling"], capsys)
    assert code == 2


def test_c1_gen_unit_board(capsys):
    code, out, _ = run_cli(["c1-gen", "--a", "1", "--b", "1", "--seed", "5"], capsys)
    assert code == 0
    assert out == "board 1 1\ntile 0 1 0 1\n"


def test_c1_gen_round_trips(tmp_path, capsys):
    code, out, _ = run_cli(
        ["c1-gen", "--a", "17", "--b", "11", "--seed", "9"], capsys)
    assert code == 0
    path = tmp_path / "gen.tiling"
    path.write_text(out)
    code, out2, _ = run_cli(["c1-check", str(path)], capsys)
    assert code == 0
    assert out2.startswith("witness ")


def test_c1_gen_pinwheel_round_trips(tmp_path, capsys):
    code, out, _ = run_cli(
        ["c1-gen", "--a", "9", "--b", "7", "--seed", "3", "--kind", "pinwheel"], capsys)
    assert code == 0
    assert out.count("tile ") == 5
    path = tmp_path / "pin.tiling"
    path.write_text(out)
    assert run_cli(["c1-check", str(path)], capsys)[0] == 0


def test_c1_gen_pinwheel_output_is_pinned(capsys):
    """The cut draws (x pair, then y pair) are part of the seed's contract."""
    code, out, _ = run_cli(
        ["c1-gen", "--a", "9", "--b", "7", "--seed", "3", "--kind", "pinwheel"], capsys)
    assert code == 0
    assert out.splitlines() == ["board 9 7", "tile 0 4 2 7", "tile 0 5 0 2",
                                "tile 4 5 2 5", "tile 4 9 5 7", "tile 5 9 0 5"]


def test_c1_gen_pinwheel_too_small(capsys):
    code, _, err = run_cli(
        ["c1-gen", "--a", "2", "--b", "2", "--kind", "pinwheel"], capsys)
    assert code == 2


# -- n1 ------------------------------------------------------------------------

def test_n1_orbit(capsys):
    code, out, _ = run_cli(["n1", "--a0", "7", "--steps", "5"], capsys)
    assert code == 0
    assert out.strip() == "7 10 13 16 4 2"


def test_n1_classify(capsys):
    code, out, _ = run_cli(["n1", "--a0", "3", "--classify"], capsys)
    assert code == 0
    assert out.strip() == "PeriodicMult3 cycle=(0,3)"


def test_n1_classify_divergent(capsys):
    code, out, _ = run_cli(["n1", "--a0", "5", "--classify"], capsys)
    assert code == 0
    assert out.strip() == "DivergentMod2 m=0"
    code, out, _ = run_cli(["n1", "--a0", "4", "--classify"], capsys)
    assert out.strip() == "DivergentViaMod1 m=1"


def test_n1_orbit_above_2_64(capsys):
    code, out, _ = run_cli(["n1", "--a0", "18446744065119617023", "--steps", "3"], capsys)
    assert code == 0
    assert out == ("18446744065119617023 18446744065119617026 "
                   "18446744065119617029 18446744065119617032\n")


def test_n1_steps_takes_values_up_to_the_int_to_str_digit_limit(capsys):
    """One step past the largest printable a0 exits 2 before any work, not with a traceback."""
    top = 10 ** sys.get_int_max_str_digits() - 4   # a0 + 3 is the largest printable int
    code, out, err = run_cli(["n1", "--a0", str(top), "--steps", "1"], capsys)
    assert (code, out, err) == (0, f"{top} {top + 3}\n", "")
    code, out, err = run_cli(["n1", "--a0", str(top + 1), "--steps", "1"], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("imocheck: n1 --steps needs")


def test_n1_steps_takes_a_prefix_up_to_its_byte_bound(capsys, monkeypatch):
    """(steps + 1) * (digits(a0 + 3 * steps) + 1) at the cap passes; one step more exits 2."""
    monkeypatch.setattr(cli, "N1_MAX_STEPS_BYTES", 18)     # 6 values of at most 2 digits
    code, out, err = run_cli(["n1", "--a0", "7", "--steps", "5"], capsys)
    assert (code, out, err) == (0, "7 10 13 16 4 2\n", "")
    code, out, err = run_cli(["n1", "--a0", "7", "--steps", "6"], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("imocheck: n1 needs (--steps + 1)")


@pytest.mark.parametrize("k", [0, 5, cli.N1_VALUES_PER_WRITE - 1, cli.N1_VALUES_PER_WRITE,
                               cli.N1_VALUES_PER_WRITE + 1, 10 ** 6 + 1])
def test_n1_steps_prints_the_orbit_across_write_boundaries(capsys, k):
    """10**6 + 1 steps from 7 write 7,629,621 bytes, within the byte bound."""
    code, out, err = run_cli(["n1", "--a0", "7", "--steps", str(k)], capsys)
    assert (code, out, err) == (0, " ".join(map(str, n1.orbit(7, k))) + "\n", "")


def test_n1_steps_memory_stays_flat(monkeypatch):
    """10^4 values of 1000 digits are 10 MB of text, written a chunk at a time.

    Keeping every value, every string and their join would peak at 21 MB;
    the stream holds one chunk's values and text, about 3 MB.
    """
    a0, k = 10 ** 999 + 1, 10 ** 4
    written = hashlib.sha256()

    class Sink:
        def write(self, text):
            written.update(text.encode())

    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        code = cli.main(["n1", "--a0", str(a0), "--steps", str(k)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert code == 0
    assert peak < 5 * 2 ** 20, peak
    want = " ".join(map(str, n1.orbit(a0, k))) + "\n"
    assert written.hexdigest() == hashlib.sha256(want.encode()).hexdigest()


def test_n1_rejects_small_a0(capsys):
    code, _, _ = run_cli(["n1", "--a0", "1", "--steps", "3"], capsys)
    assert code == 2


def test_n1_budget_exceeded_exits_3(capsys):
    code, out, _ = run_cli(["n1", "--a0", "27", "--classify", "--budget", "1"], capsys)
    assert code == 3
    assert out.startswith("BudgetExceeded")


def test_n1_classify_theorem_anomaly_exits_3(capsys, monkeypatch):
    """A square inside a residue-2 run is a theorem anomaly, not a traceback."""
    monkeypatch.setattr(n1, "confirm_plus3_run", lambda start, nsteps: 2)
    code, out, err = run_cli(["n1", "--a0", "5", "--classify"], capsys)
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["theorem anomaly: square 11 found in a residue-2 run from 5"]


# The largest a0 that n1 --classify takes at its default budget 4*a0 + 1000:
# a0 + 3 * budget below 10 to the power of Python's int -> str digit limit.
N1_TOP_A0 = (10 ** sys.get_int_max_str_digits() - 3001) // 13
# The largest --budget that n1 --a0 5 --classify takes: 5 + 3 * budget < 10**D.
N1_TOP_BUDGET_AT_5 = (10 ** sys.get_int_max_str_digits() - 6) // 3


def _largest_classify_start(residue):
    return N1_TOP_A0 - (N1_TOP_A0 - residue) % 3


def test_n1_classify_lines_equal_the_square_to_square_reference(capsys, perfbench_oracles):
    """Seeded starts against perfbench's n1_reference, each at its full default budget.

    2000 log-uniform starts in [2, 10^12] and the two starts that CI pins;
    200 starts from 10^12 to the print bound (a digit count drawn uniformly,
    then a value of that many digits); the largest start of each residue
    that the bound admits.  Every divergent tail is confirmed to the
    budget's end.  One parser serves every start.
    """
    reference = perfbench_oracles.n1_reference
    rng = random.Random(20170901)
    lo, hi = math.log(2), math.log(10 ** 12)
    starts = [max(2, int(math.exp(rng.uniform(lo, hi)))) for _ in range(2000)]
    starts += [10 ** 12 - 1, 10 ** 12]
    top_digits = len(str(N1_TOP_A0))
    for _ in range(200):
        digits = rng.randint(13, top_digits)
        starts.append(rng.randrange(10 ** (digits - 1), min(10 ** digits, N1_TOP_A0 + 1)))
    starts += [_largest_classify_start(r) for r in range(3)]
    parser = cli.build_parser()
    for a0 in starts:
        args = parser.parse_args(["n1", "--a0", str(a0), "--classify"])
        code = args.func(args)
        out, err = capsys.readouterr()
        assert (code, out, err) == (0, reference(a0) + "\n", ""), a0


def test_n1_classify_takes_every_start_up_to_the_print_bound(capsys, monkeypatch):
    """One past the bound, in a0 or in --budget, exits 2 with one line before classify runs."""
    bound = 10 ** sys.get_int_max_str_digits()
    top = N1_TOP_A0
    assert top + 3 * n1.default_budget(top) < bound <= top + 1 + 3 * n1.default_budget(top + 1)
    code, out, err = run_cli(["n1", "--a0", str(top), "--classify"], capsys)
    assert (code, err) == (0, "") and out.startswith("DivergentViaMod1 m=")
    code, out, err = run_cli(["n1", "--a0", "5", "--classify", "--budget",
                              str(N1_TOP_BUDGET_AT_5)], capsys)
    assert (code, out, err) == (0, "DivergentMod2 m=0\n", "")

    def no_work(a0, budget):
        raise AssertionError("classify ran past the print bound")

    monkeypatch.setattr(n1, "classify", no_work)
    for argv in (["--a0", str(top + 1)], ["--a0", "5", "--budget", str(N1_TOP_BUDGET_AT_5 + 1)]):
        code, out, err = run_cli(["n1", *argv, "--classify"], capsys)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("imocheck: n1 --classify needs")


def test_n1_classify_anomaly_square_at_the_print_bound_still_prints(capsys, monkeypatch):
    """The anomaly line's square, a0 + 3 * (budget - 1) at the top residue-2 start, is printable."""
    a0 = _largest_classify_start(2)
    budget = n1.default_budget(a0)
    monkeypatch.setattr(n1, "confirm_plus3_run", lambda start, nsteps: budget - 1)
    code, out, err = run_cli(["n1", "--a0", str(a0), "--classify"], capsys)
    assert (code, out) == (3, "")
    assert err.splitlines() == [f"theorem anomaly: square {a0 + 3 * (budget - 1)} "
                                f"found in a residue-2 run from {a0}"]


def test_n1_classify_has_no_bound_when_the_digit_limit_is_off(capsys, perfbench_oracles):
    limit = sys.get_int_max_str_digits()
    a0 = 10 ** 4999 + 2                 # 5000 digits, a multiple of 3
    sys.set_int_max_str_digits(0)
    try:
        code, out, err = run_cli(["n1", "--a0", str(a0), "--classify"], capsys)
        want = perfbench_oracles.n1_reference(a0) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out, err) == (0, want, "")
    assert out.startswith("PeriodicMult3 cycle=(")


# -- suite ----------------------------------------------------------------------

RECORD_RE = re.compile(r"^CLAIM \S+( \S+=\S+)* outcome=(pass|fail)$")


@pytest.fixture
def small_suite(monkeypatch, small_claims):
    """`imocheck suite` runs the small table."""
    monkeypatch.setattr(suite, "run_suite", functools.partial(suite.run_suite, claims=small_claims))


def test_suite_records_grammar(capsys, small_suite):
    code, out, err = run_cli(["suite", "--records"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines, "records mode must emit CLAIM lines on stdout"
    for line in lines:
        assert RECORD_RE.match(line), line
    assert "seed=" in err  # diagnostics stay on stderr


def test_suite_human_mode(capsys, small_suite):
    code, out, err = run_cli(["suite"], capsys)
    assert code == 0
    assert "claims passed" in out
    assert all(not line.startswith("CLAIM ") for line in out.splitlines())
    assert not any(line.startswith("time ") for line in out.splitlines())
    time_lines = [line for line in err.splitlines() if line.startswith("time ")]
    assert len(time_lines) == len(suite.CLAIMS)


def test_suite_starved_budget_fails(capsys, monkeypatch, small_suite):
    monkeypatch.setattr(n1, "default_budget", lambda a0: 1)
    code, out, _ = run_cli(["suite", "--records"], capsys)
    assert code == 1
    assert any("BudgetExceeded" in line and "outcome=fail" in line
               for line in out.splitlines())


def test_suite_seeds_the_rows_rng_with_the_given_seed_or_the_default(capsys, monkeypatch):
    """`suite --seed 1`, then plain `suite`: a seeded row's rng starts at that seed and its id."""
    states = []

    def probe(rng):
        states.append(rng.getstate())   # before the row draws
        rng.random()
        return iter([None])

    table = (suite.Claim("x.probe", probe, seeded=True),)
    monkeypatch.setattr(suite, "run_suite", functools.partial(suite.run_suite, claims=table))
    for argv in (["suite", "--records", "--seed", "1"], ["suite", "--records"]):
        code, out, _ = run_cli(argv, capsys)
        assert (code, out) == (0, "CLAIM x.probe steps=1 outcome=pass\n"), argv
    assert states == [random.Random("1 x.probe").getstate(),
                      random.Random(f"{cli.DEFAULT_SEED} x.probe").getstate()]


def test_suite_has_only_seed_and_records():
    args = cli.build_parser().parse_args(["suite"])
    assert set(vars(args)) == {"command", "func", "records", "seed"}
    assert args.seed == cli.DEFAULT_SEED


# -- inputs that end in a usage error ---------------------------------------------

@pytest.mark.parametrize("argv,content", [
    (["c1-check", "{path}"], "board 3 1\ntile 0 3 0 1  # caf\u00e9\n".encode()),
    (["c1-check", "{path}"], "board \u0663 1\ntile 0 3 0 1\n".encode()),  # Arabic-Indic 3
    (["n1", "--a0", str(N1_TOP_A0 + 1), "--classify"], None),
    (["a2", "--n", str(cli.A2_MAX_N + 1)], None),
    (["a2", "--n", str(cli.A2_MAX_N + 1), "--verify"], None),
    (["n1", "--a0", "7", "--steps", "2097152"], None),          # 2097153 * 8 > 2**24 bytes
    (["n1", "--a0", "5", "--classify", "--budget", str(N1_TOP_BUDGET_AT_5 + 1)], None),
    (["n1", "--a0", "7", "--steps", "3", "--budget", "5"], None),
    (["n1", "--a0", "9" * 4000, "--steps", "1000000"], None),
    (["n1", "--a0", "7", "--steps", "9" * 4000], None),
    (["c1-check", "{path}"], "".join(
        [f"board {tilefile.MAX_TILES + 1} 1\n"]
        + [f"tile {x} {x + 1} 0 1\n" for x in range(tilefile.MAX_TILES + 1)]).encode()),
    (["c1-check", "{path}"], f"board 3 {tilefile.MAX_SIDE + 1}\ntile 0 3 0 1\n".encode()),
    (["c1-gen", "--a", "3", "--b", str(tilefile.MAX_SIDE + 1), "--kind", "pinwheel"], None),
    (["c1-gen", "--a", str(tilefile.MAX_TILES + 1), "--b", "1"], None),
    ([], None),
    (["bogus"], None),
    (["a2"], None),
    (["a2", "--n", "x"], None),
    (["n1", "--a0", "7", "--steps", "3", "--classify"], None),
    (["a2", "--n", "3", "--bogus"], None),
    (["c1-check", "{dir}/absent\n.tiling"], None),
    (["c1-check", "{dir}/in\n.tiling"], b"board 3 1\ntile 0 3 0 x\n"),
    (["a2", "--n", "3", "x\ny"], None),
], ids=["non-ascii-comment", "non-ascii-digit", "n1-classify-a0-above-cap",
        "a2-n-above-cap", "a2-verify-n-above-cap", "n1-steps-above-cap",
        "n1-classify-budget-above-cap", "n1-steps-with-budget", "n1-steps-bytes-above-cap",
        "n1-steps-4000-digits", "c1-check-tiles-above-cap",
        "c1-check-board-side-above-cap", "c1-gen-side-above-cap",
        "c1-gen-guillotine-tiles-above-cap", "no-command", "unknown-command",
        "a2-without-n", "a2-n-not-an-int", "n1-steps-with-classify", "unknown-flag",
        "c1-check-missing-path-with-newline", "c1-check-unparsable-path-with-newline",
        "unknown-argument-with-newline"])
def test_bad_input_is_one_usage_line(tmp_path, argv, content):
    """Exit 2 with one stderr line and no traceback, before any work starts.

    content, when given, is written to the file the last argument names.
    """
    argv = [arg.format(path=tmp_path / "in.tiling", dir=tmp_path) for arg in argv]
    if content is not None:
        Path(argv[-1]).write_bytes(content)
    done = subprocess.run([sys.executable, "-m", "imocheck", *argv],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("imocheck")
    assert "Traceback" not in done.stderr


def test_entry_point_installed():
    out = subprocess.run([sys.executable, "-m", "imocheck", "a2", "--n", "1"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "1\t1/2"


@pytest.mark.parametrize("argv", [
    ["a2", "--n", "300"],
    ["n1", "--a0", "7", "--steps", "100000"],
], ids=["a2", "n1-steps"])
def test_a_reader_that_closes_early_gets_one_usage_line(argv):
    """`imocheck a2 --n 300 | head -1`: exit 2 with one stderr line and no traceback.

    Runs cli.entry() through `python -m`.  The reader takes the first line,
    or its first 10 characters (n1 --steps prints one line).  Both outputs
    (164 kB and 660 kB) outgrow a pipe buffer, so the write after the close
    fails.
    """
    proc = subprocess.Popen([sys.executable, "-m", "imocheck", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline(10) in ("0\t-1/1\n", "7 10 13 16")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err == "imocheck: stdout closed before all output was written\n"


def test_importing_main_runs_nothing():
    done = subprocess.run([sys.executable, "-c", "import imocheck.__main__"],
                          capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


# -- what each command imports ----------------------------------------------------

# imports what `python -m imocheck` does, then runs the command
MODULES_PROBE = """
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()):
    import imocheck.__main__, imocheck.cli
    code = imocheck.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sys.modules)
"""

NO_OTHER_BATTERY = {"imocheck.suite", "imocheck.tiling", "imocheck.a2", "imocheck.rational",
                    "imocheck.report", "dataclasses", "fractions"}
NOT_C1 = {"imocheck.suite", "imocheck.a2", "imocheck.rational", "imocheck.report",
          "imocheck.n1", "dataclasses"}
# c1-check runs only the file layer: no enumeration, theorem routes or kernels
NOT_C1_CHECK = NOT_C1 | {"imocheck.tiling", "imocheck.backend"}


def _modules_loaded(argv):
    """Exit code and the modules that a fresh `imocheck argv` loads beyond `python -c pass`."""
    bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, timeout=30, check=True)
    done = subprocess.run([sys.executable, "-c", MODULES_PROBE, *argv],
                          capture_output=True, text=True, timeout=30, check=True)
    code, *loaded = done.stdout.split()
    return int(code), set(loaded) - set(bare.stdout.split())


@pytest.mark.parametrize("argv,absent", [
    ([], NO_OTHER_BATTERY | {"imocheck.n1", "imocheck.backend"}),
    (["n1", "--a0", "7", "--classify"], NO_OTHER_BATTERY | {"imocheck.backend"}),
    (["a2", "--n", "5", "--verify"],
     {"imocheck.suite", "imocheck.tiling", "imocheck.n1", "imocheck.backend", "dataclasses"}),
    (["c1-check", "{path}"], NOT_C1_CHECK),
    (["c1-gen", "--a", "3", "--b", "3"], NOT_C1 | {"imocheck.backend"}),
], ids=["import-cli", "n1-classify", "a2-verify", "c1-check", "c1-gen"])
def test_each_command_imports_only_its_own_modules(tmp_path, argv, absent):
    path = tmp_path / "unit.tiling"
    path.write_text("board 1 1\ntile 0 1 0 1\n")
    code, loaded = _modules_loaded([arg.format(path=path) for arg in argv])
    assert code == 0
    assert "imocheck.cli" in loaded
    assert loaded & absent == set()


def test_importing_the_suite_loads_neither_dataclasses_nor_inspect():
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import imocheck.suite"],
                          capture_output=True, text=True, timeout=30, check=True)
    loaded = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    assert "imocheck.suite" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()


def test_the_benchmark_setup_probe_still_reads_the_backend():
    done = subprocess.run(
        [sys.executable, "-c", "import imocheck, imocheck.cli; print(imocheck.BACKEND_NAME)"],
        capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout) == (0, "pure\n")


def _load_tracer():
    """perfbench/tracer.py, loaded by path: it is a script, not a package module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_backend_names_exactly_the_tracer_targets_and_each_is_the_library_object():
    """perfbench/tracer.py wraps backend.<name> and rebinds each module global that is it."""
    from imocheck import backend
    tracer = _load_tracer()
    wanted = {attr for module, attr, _ in tracer.TARGETS.values() if module == "backend"}
    assert {name for name in vars(backend) if not name.startswith("_")} == wanted
    assert backend.isqrt is math.isqrt
    assert backend.confirm_plus3_run is n1.confirm_plus3_run
    assert backend.orbit_fill is n1.orbit_fill
    assert backend.enum_tilings is tiling.enum_tilings


def test_every_tracer_target_is_a_library_object():
    """Each TARGETS entry names a callable of the package, so no target goes missing.

    tiling's file-layer targets must be tilefile's objects: the tracer
    rebinds every module global that is the wrapped object, so its wrapper
    on tiling.witness also reaches c1-check, which runs tilefile.witness.
    """
    for name, (module, path, _) in _load_tracer().TARGETS.items():
        target = importlib.import_module(f"imocheck.{module}")
        for part in path.split("."):
            target = getattr(target, part, None)
        assert callable(target), name
    for name in ("witness", "parse_tiling", "tiling_problems"):
        assert getattr(tiling, name, None) is getattr(tilefile, name), name
