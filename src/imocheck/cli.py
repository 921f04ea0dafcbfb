"""Command-line front door.

Commands: a2, c1-check, c1-gen, n1, suite.  Exit codes are a stable
contract: 0 pass, 1 check failed, 2 usage or parse error, 3 budget or
theorem anomaly.  Records go to stdout, diagnostics to stderr; the two
never mix on one stream.

Each request is a fresh process, so each command imports the modules it
runs when it runs, and no command's module loads with the parser.  c1-check
loads only tilefile, the file layer, not tiling's enumeration and theorem
routes.  Commands call through the module (a2.build, n1.classify,
tilefile.witness, suite.run_suite), so a wrapper or patch set on the module
holds.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from types import MappingProxyType

from .errors import TheoremViolationError, TilingParseError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ANOMALY = 3
# An exit-2 line writes each C0 control character, DEL, U+0085, U+2028 and U+2029 as its
# repr escape, so no argument it echoes can break it into two lines.
_ESCAPES = MappingProxyType({c: repr(chr(c))[1:-1]
                             for c in (*range(0x20), 0x7F, 0x85, 0x2028, 0x2029)})

# The suite's seed when --seed is not given; tests/data's golden files carry it.
DEFAULT_SEED = 20170901

# Input caps, checked before any work starts (exit 2 above them).
# a2 --n: n^2 sum terms whose numerators' bit length grows with n, so the
# cost grows faster than n^3 (a2 --n N --verify on a 2-core host: 0.4 s at
# N = 400, 4.5 s at N = 1000; in process, 12 s at N = 1400, so N = 2000 would
# be well past 30 s).  A higher cap would also break the output: a_2000's
# denominator has 5774 digits, past Python's default 4300-digit limit on
# int -> str, so printing it would raise.
A2_MAX_N = 1000
# n1 --steps: every value it prints is at most a0 + 3*steps, so one cap on
# (steps + 1) * (digits(a0 + 3*steps) + 1), the bytes it may write, bounds its
# output and time: at most 2,097,151 steps from any start (--a0 7: 16,406,821
# bytes), about 4,190 from a 4000-digit a0 (2.3 s on a 2-core host).  It writes
# N1_VALUES_PER_WRITE values at a time (not a system call per value under
# python -u), so memory stays flat: 15 MB peak from --a0 7, 30 MB from 4000 digits.
N1_MAX_STEPS_BYTES = 2 ** 24
N1_VALUES_PER_WRITE = 1024
# c1-gen takes c1-check's caps, tilefile.MAX_SIDE and MAX_TILES, so every
# file it writes passes them: a guillotine tiling of an a x b board has at
# most a*b tiles, a pinwheel always 5.


def _fail_usage(message: str) -> int:
    print(f"imocheck: {message.translate(_ESCAPES)}", file=sys.stderr)
    return EXIT_USAGE


def cmd_a2(args: argparse.Namespace) -> int:
    if args.n < 1:
        return _fail_usage("a2 needs --n >= 1")
    if args.n > A2_MAX_N:
        return _fail_usage(f"a2 needs --n <= {A2_MAX_N}")
    from . import a2, report
    seq = a2.build(args.n)
    for line in a2.render_lines(seq):
        print(line)
    if args.verify:
        rep = report.first_failure("a2.verify", {"n_max": args.n}, a2.verify(args.n, seq))
        print(rep.record_line(), file=sys.stderr)
        return EXIT_PASS if rep.outcome else EXIT_FAIL
    return EXIT_PASS


def _format_rect(r: tuple[int, int, int, int]) -> str:
    return "({},{},{},{})".format(*r)


def cmd_c1_check(args: argparse.Namespace) -> int:
    from . import tilefile
    try:
        with open(args.path, encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        return _fail_usage(f"cannot read {args.path}: {exc}")
    except UnicodeDecodeError as exc:
        return _fail_usage(f"{args.path}: not an ASCII file: {exc}")
    try:
        t = tilefile.parse_tiling(text)
    except TilingParseError as exc:
        return _fail_usage(f"{args.path}: {exc}")
    problems = tilefile.tiling_problems(t)
    if problems:
        for p in problems:
            print(f"invalid tiling: {p}", file=sys.stderr)
        return EXIT_FAIL
    found = tilefile.witness(t)
    if found is None:
        a, b = t.board[1], t.board[3]
        if a % 2 == 0 or b % 2 == 0:
            print(f"no parity witness on the {a}x{b} board: "
                  "the theorem needs both sides odd", file=sys.stderr)
            return EXIT_FAIL
        print(f"theorem anomaly: no parity witness in a tiling of {t.board}", file=sys.stderr)
        return EXIT_ANOMALY
    rect, parity = found
    ds = tilefile.side_distances(rect, t.board)
    print(f"witness {_format_rect(rect)} ds={_format_rect(ds)} {parity.value}")
    return EXIT_PASS


def cmd_c1_gen(args: argparse.Namespace) -> int:
    from . import tilefile, tiling
    if args.a < 1 or args.b < 1:
        return _fail_usage("board sides must be at least 1")
    if max(args.a, args.b) > tilefile.MAX_SIDE:
        return _fail_usage(f"c1-gen needs --a and --b <= {tilefile.MAX_SIDE}")
    if args.kind == "guillotine" and args.a * args.b > tilefile.MAX_TILES:
        return _fail_usage(f"c1-gen --kind guillotine needs a*b <= {tilefile.MAX_TILES}")
    if args.kind == "pinwheel" and (args.a < 3 or args.b < 3):
        return _fail_usage("pinwheel needs both sides >= 3")
    generate = tiling.random_pinwheel if args.kind == "pinwheel" else tiling.gen_guillotine
    sys.stdout.write(tilefile.serialize_tiling(generate(args.a, args.b, args.seed)))
    return EXIT_PASS


def cmd_n1(args: argparse.Namespace) -> int:
    from . import n1
    if args.budget is not None and not args.classify:
        return _fail_usage("--budget needs --classify")
    if args.a0 <= 1:
        return _fail_usage("n1 needs --a0 > 1")
    if args.steps is not None:
        if args.steps < 0:
            return _fail_usage("--steps must be non-negative")
        k, needs = args.steps, "--steps needs --a0 + 3 * --steps"
    else:
        k = args.budget if args.budget is not None else n1.default_budget(args.a0)
        if k < 1:
            return _fail_usage("budget must be at least 1")
        needs = "--classify needs --a0 + 3 * budget"
    # k is the step count or the budget.  Each step takes a square root or
    # adds 3, so a0 + 3*k bounds every orbit value up to step k; classify
    # prints indices and counts up to the budget, or an anomaly's square in a
    # residue-2 run from a value at most a0.  A number with more digits than
    # Python's int -> str limit could not be printed.  The limit is 0 when it
    # is off, and absent before Python 3.10.7, which has none.
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits and args.a0 + 3 * k >= 10 ** digits:
        return _fail_usage(f"n1 {needs} < 10**{digits}, "
                           f"Python's {digits}-digit limit on printing an integer")
    if args.steps is not None:
        if (k + 1) * (len(str(args.a0 + 3 * k)) + 1) > N1_MAX_STEPS_BYTES:
            return _fail_usage(f"n1 needs (--steps + 1) * (digits of --a0 + 3 * --steps, "
                               f"plus 1) <= {N1_MAX_STEPS_BYTES}, the bytes it may write")
        values = map(str, itertools.islice(n1.walk(args.a0), k + 1))
        sys.stdout.write(" ".join(itertools.islice(values, N1_VALUES_PER_WRITE)))
        while chunk := " ".join(itertools.islice(values, N1_VALUES_PER_WRITE)):
            sys.stdout.write(" " + chunk)
        sys.stdout.write("\n")
        return EXIT_PASS
    try:
        trace = n1.classify(args.a0, k)
    except TheoremViolationError as exc:
        print(f"theorem anomaly: {exc}", file=sys.stderr)
        return EXIT_ANOMALY
    cls = trace.classification
    if cls is n1.OrbitClass.PERIODIC_MULT3:
        start, period = trace.cycle
        print(f"{cls.value} cycle=({start},{period})")
    elif cls is n1.OrbitClass.BUDGET_EXCEEDED:
        print(f"{cls.value} steps={k}")
        return EXIT_ANOMALY
    else:
        print(f"{cls.value} m={trace.mod2_index}")
    return EXIT_PASS


def cmd_suite(args: argparse.Namespace) -> int:
    from . import suite
    return suite.run_suite(args.seed, args.records, sys.stdout, sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """One stderr line, `<prog>: <message>`, and exit 2; argparse's own prints two."""
        self.exit(EXIT_USAGE, f"{self.prog}: {message.translate(_ESCAPES)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="imocheck",
        description="Exact desk-scale checks for IMO 2006 A2, 2017 C1 and 2017 N1.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("a2", help="print the A2 sequence exactly; optionally verify")
    p.add_argument("--n", type=int, required=True,
                   help=f"last index to compute (1..{A2_MAX_N})")
    p.add_argument("--verify", action="store_true",
                   help="check positivity, residuals and the closed form")
    p.set_defaults(func=cmd_a2)

    p = sub.add_parser("c1-check", help="validate a tiling file and print its witness")
    p.add_argument("path", help="tiling file (board/tile lines)")
    p.set_defaults(func=cmd_c1_check)

    p = sub.add_parser("c1-gen", help="generate a tiling file on stdout")
    p.add_argument("--a", type=int, required=True,
                   help="board width, at least 1 and at most c1-check's side cap; "
                        "a*b at most c1-check's tile cap for guillotine")
    p.add_argument("--b", type=int, required=True, help="board height, as --a")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=("guillotine", "pinwheel"), default="guillotine")
    p.set_defaults(func=cmd_c1_gen)

    p = sub.add_parser("n1", help="print an orbit prefix or classify a start value")
    p.add_argument("--a0", type=int, required=True,
                   help="start value (> 1; a0 + 3 * steps or budget below 10 to the "
                        "power of Python's int -> str digit limit)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--steps", type=int,
                      help=f"print a_0..a_steps ((steps + 1) * (digits of a0 + 3 * steps, "
                           f"plus 1) at most {N1_MAX_STEPS_BYTES}, the bytes it may write)")
    mode.add_argument("--classify", action="store_true",
                      help="classify the orbit within the budget")
    p.add_argument("--budget", type=int, default=None,
                   help="step budget for --classify (default 4*a0 + 1000)")
    p.set_defaults(func=cmd_n1)

    p = sub.add_parser("suite", help="run the full claim battery")
    p.add_argument("--records", action="store_true",
                   help="emit machine-readable CLAIM lines instead of human text")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (imocheck a2 --n 300 | head -1).
        # Point stdout at devnull so the flush at exit raises nothing more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _fail_usage("stdout closed before all output was written")
    sys.exit(code)
