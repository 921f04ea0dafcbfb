#!/usr/bin/env python3
"""End-to-end benchmark of the ``imocheck`` CLI, with a traced per-layer run.

Run from the root of a source checkout (it needs ``src/imocheck``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Every request is one ``python -u -m imocheck ...`` child process, as every
real CLI call is a fresh process.  A workload is a closed loop: one client,
one child at a time, the next request sent when the previous one has
exited.  Requests come in blocks that cover every input size stratum once
(see ``gen.py``).  A run sends a fixed number of whole blocks, the number
that takes about ``--seconds`` at the parent commit of this benchmark
(``BLOCK_SECONDS``).  Fixed work, not a fixed time, keeps the sample count
and with it the tail percentile the same on both sides of a comparison;
a faster program simply finishes its run sooner.  The wall time of a
request runs from spawning the child to reaping it; the output oracle runs
after that, outside the timed interval.

Workloads (inputs come from ``gen.py``, seeded by ``--seed``):

    suite_default   imocheck suite --records --seed <s>
    c1_check_files  imocheck c1-check FILE on generated odd boards up to 41x41
    n1_a2_requests  imocheck n1 --a0 X --classify, X in [10^3, 10^10], mixed
                    with imocheck a2 --n N --verify, N in [40, 200]

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time
of a fresh ``python -c "import imocheck.cli"``), the request latency median
``p50_ms`` and tail ``tail_ms`` (the highest percentile with at least ten
samples beyond it; the maximum when a run has fewer than eleven),
``requests_per_s`` and ``peak_rss_mb`` (largest child max-RSS from wait4).
These are over all requests of the run; the report lines also give the
median and tail of each request kind on its own (``suite_s``,
``c1_check_p50_ms``, ``n1_classify_tail_ms``, ...).

The four time metrics are given at a nominal host speed.  On a shared host
the CPU speed drifts by 20% and more over minutes, which no amount of work
in one run averages out.  So between requests, outside the timed intervals,
the run times a fixed pure-Python loop (one sample per half second of
request time), and scales its times by ``REF_LOOP_S`` over the median
sample: a time as it would read where that loop takes ``REF_LOOP_S``.  The
report lines give the raw times too.

``--trace 1`` sends each request twice, plain and then through
``tracer.py``, and sends a third of the blocks.  It reports
per-request means of the per-layer counters and times, the per-claim times
of the suite (the gaps between consecutive CLAIM records of the unbuffered
child; the claims one list-returning function produces share one gap,
which lands on the first of them), and ``trace.overhead_s``, the mean extra
wall time of the traced request over the plain one, each scaled to the
nominal host speed as above.

The last line of stdout is the JSON result; the lines before it name every
metric with its unit and sample count, plus the environment.  ``--out``
also writes the full record, environment included, for ``summary.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracles

BENCH = Path(__file__).resolve().parent
WORKDIR = ".perfbench_work"
PROGRAM = Path("src") / "imocheck"
WORKLOADS = ("suite_default", "c1_check_files", "n1_a2_requests")
RUN_LIMIT_S = 170.0          # a run must end, result printed, well within 180 s
# seconds one block of requests takes at the parent commit, on a 2-vCPU
# x86-64 host with the pure-Python kernels
BLOCK_SECONDS = {"suite_default": 10.0, "c1_check_files": 5.5, "n1_a2_requests": 7.5}
REF_LOOP_S = 0.012           # nominal time of host_speed_sample(); fixed for good
SETUP_SAMPLES = 15

END_TO_END = {"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms",
              "requests_per_s": "1/s", "peak_rss_mb": "MB"}
# request kind -> the name the report gives its latency metrics
KIND_NAMES = {"c1": "c1_check", "n1": "n1_classify", "a2": "a2_verify"}

# per-layer metric -> (tracer target, field, unit); per-request means
LAYER_FIELDS = [
    ("backend.enum_tilings", "calls", "count"), ("backend.enum_tilings", "tilings", "count"),
    ("backend.enum_tilings", "s", "s"), ("tiling.enumerate_tilings", "self_s", "s"),
    ("tiling.is_valid_tiling", "calls", "count"), ("tiling.is_valid_tiling", "s", "s"),
    ("tiling.witness", "calls", "count"), ("tiling.witness", "s", "s"),
    ("tiling.find_green_tile", "calls", "count"), ("tiling.find_green_tile", "s", "s"),
    ("tiling.gen_guillotine", "calls", "count"), ("tiling.gen_guillotine", "s", "s"),
    ("tiling.parse_tiling", "calls", "count"), ("tiling.parse_tiling", "s", "s"),
    ("tiling.tiling_problems", "calls", "count"), ("tiling.tiling_problems", "s", "s"),
    ("n1.classify", "calls", "count"), ("n1.classify", "self_s", "s"),
    ("n1.classify", "stepped_steps", "count"), ("n1.n1_step", "calls", "count"),
    ("backend.isqrt", "calls", "count"),
    ("backend.confirm_plus3_run", "calls", "count"),
    ("backend.confirm_plus3_run", "window_steps", "count"),
    ("backend.confirm_plus3_run", "s", "s"),
    ("backend.orbit_fill", "calls", "count"), ("backend.orbit_fill", "values", "count"),
    ("backend.orbit_fill", "s", "s"),
    ("n1.orbit", "calls", "count"), ("n1.orbit", "s", "s"),
    ("n1.check_claim2", "calls", "count"), ("n1.check_claim2", "s", "s"),
    ("a2.extend", "calls", "count"), ("a2.extend", "s", "s"),
    ("a2.closed_form_next", "calls", "count"), ("a2.closed_form_next", "s", "s"),
    ("a2.recurrence_residual", "calls", "count"), ("a2.recurrence_residual", "s", "s"),
    ("rational.finite_sum", "calls", "count"), ("rational.finite_sum", "s", "s"),
    ("cli.main", "s", "s"),
    ("report.record_line", "calls", "count"), ("report.record_line", "s", "s"),
]
# ratio metric -> (numerator, denominator terms); each term is "target.field"
# or "request.max_index" (the highest A2 index a request asked for)
LAYER_RATIOS = {
    "tiling.is_valid_tiling.per_tiling": (
        "tiling.is_valid_tiling.calls",
        ("backend.enum_tilings.tilings", "tiling.gen_guillotine.calls",
         "tiling.pinwheel.calls", "tiling.parse_tiling.calls")),
    "n1.classify.stepped_frac": ("n1.classify.stepped_steps", ("n1.classify.budget",)),
    "a2.extend.per_index": ("a2.extend.calls", ("request.max_index",)),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"suite.claim.{c}.s": "s" for c in oracles.SUITE_CLAIMS}
    units.update({f"{t}.{f}": u for t, f, u in LAYER_FIELDS})
    units.update({name: "ratio" for name in LAYER_RATIOS})
    units["cli.startup_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# -- child processes -----------------------------------------------------------------

class RunOutOfTime(Exception):
    """A child was still running at the run's hard limit and was killed."""


@dataclass
class Response:
    wall: float
    rc: int
    out: bytes
    err: bytes
    maxrss_kb: int
    out_times: list[float] = field(default_factory=list)   # arrival of each stdout line
    err_times: list[float] = field(default_factory=list)


def run_child(argv: list[str], env: dict, hard_deadline: float) -> Response:
    """Spawn, drain both pipes with per-line arrival times, reap with wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    streams = {proc.stdout.fileno(): (bytearray(), []), proc.stderr.fileno(): (bytearray(), [])}
    sel = selectors.DefaultSelector()
    try:
        for fd in streams:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(timeout=max(0.0, hard_deadline - time.perf_counter()))
            if not ready:
                raise RunOutOfTime(" ".join(argv[-4:]))
            for key, _ in ready:
                chunk = os.read(key.fd, 1 << 16)
                now = time.perf_counter()
                if not chunk:
                    sel.unregister(key.fd)
                    continue
                buf, times = streams[key.fd]
                buf += chunk
                times.extend([now] * chunk.count(b"\n"))
    except BaseException:
        proc.kill()
        raise
    finally:
        sel.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    (out, out_times), (err, err_times) = streams.values()
    return Response(wall, proc.returncode, bytes(out), bytes(err), usage.ru_maxrss,
                    out_times, err_times)


class Checker:
    """Applies the oracle of each request kind; keeps the A2 reference between calls."""

    def __init__(self) -> None:
        self.gregory = oracles.GregoryReference()

    def check(self, req: gen.Request, resp: Response) -> tuple[list[str], int, int]:
        """(problems, units attempted, units failed) for one response."""
        if req.kind == "suite":
            return oracles.check_suite(req.value, resp.rc, resp.out, resp.err)
        if req.kind == "c1":
            problems = oracles.check_c1(req.board, req.tiles, req.defect,
                                        resp.rc, resp.out, resp.err)
        elif req.kind == "n1":
            problems = oracles.check_n1(req.value, resp.rc, resp.out, resp.err)
        else:
            problems = oracles.check_a2(self.gregory, req.value, resp.rc, resp.out, resp.err)
        return problems, 1, 1 if problems else 0


# -- statistics -----------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it): the highest percentile with >= 10 beyond.

    With fewer than eleven samples no percentile has ten beyond it; the
    maximum is reported as percentile 100 with none beyond.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100, 0
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)            # nearest rank, 1-based
    return xs[rank - 1], pct, n - rank


def claim_gaps(resp: Response) -> dict[str, float]:
    """Seconds between consecutive CLAIM records; the first from the 'suite seed=' line."""
    err_lines = resp.err.decode("utf-8", "replace").splitlines()
    start = next((t for line, t in zip(err_lines, resp.err_times)
                  if line.startswith("suite seed=")), None)
    gaps: dict[str, float] = {}
    prev = start
    for line, t in zip(resp.out.decode("utf-8", "replace").splitlines(), resp.out_times):
        parts = line.split()
        if len(parts) >= 2 and parts[0] == "CLAIM" and prev is not None:
            gaps[parts[1]] = t - prev
        prev = t
    return gaps


# -- environment ------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PROGRAM.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            h.update(str(path).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (an exported tree has none)."""
    if not Path(".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(backend: str) -> dict:
    return {
        "python": platform.python_version(),
        "backend": backend,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


# -- the run --------------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def program_argv(req: gen.Request, stats_path: str | None = None) -> list[str]:
    if stats_path is None:
        return [sys.executable, "-u", "-m", "imocheck", *req.argv]
    return [sys.executable, "-u", str(BENCH / "tracer.py"), stats_path, *req.argv]


def prepare(req: gen.Request) -> None:
    if req.kind == "c1":
        Path(req.argv[1]).write_text(req.text, encoding="ascii")


class Run:
    """One benchmark run: its request loop, its oracle tallies and its samples."""

    def __init__(self, args: argparse.Namespace, hard_deadline: float) -> None:
        self.args = args
        self.hard_deadline = hard_deadline
        self.env = child_env()
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.maxrss_kb = 0
        self.speed: list[float] = []       # host_speed_sample() times

    def call(self, req: gen.Request, stats_path: str | None = None) -> Response:
        resp = run_child(program_argv(req, stats_path), self.env, self.hard_deadline)
        problems, units, failed = self.checker.check(req, resp)
        self.attempted += units
        self.failed += failed
        self.problems += [f"{req.kind} {' '.join(req.argv)}: {p}" for p in problems]
        return resp

    def setup_samples(self) -> tuple[list[float], str]:
        """Cold ``import imocheck.cli`` times, after one warm-up that also reads the backend."""
        probe = [sys.executable, "-c", "import imocheck, imocheck.cli; print(imocheck.BACKEND_NAME)"]
        warm = run_child(probe, self.env, self.hard_deadline)
        if warm.rc != 0:
            raise SystemExit(f"perfbench: cannot import imocheck: {warm.err.decode()[-500:]}")
        backend = warm.out.decode().strip()
        if self.args.trace:
            return [], backend
        cold = [sys.executable, "-c", "import imocheck.cli"]
        walls = []
        for _ in range(SETUP_SAMPLES):
            walls.append(run_child(cold, self.env, self.hard_deadline).wall)
            self.speed.append(host_speed_sample())
        return walls, backend

    def loop(self, blocks, count: int, traced: list) -> None:
        """Send the first ``count`` blocks."""
        i = 0
        for block in itertools.islice(blocks, count):
            for req in block:
                prepare(req)
                resp = self.call(req)
                self.walls[req.kind].append(resp.wall)
                speed = self.sample_speed(resp.wall)
                self.maxrss_kb = max(self.maxrss_kb, resp.maxrss_kb)
                if self.args.trace:
                    tresp, stats = self.call_traced(req, i)
                    traced.append((req, resp, speed, tresp, self.sample_speed(tresp.wall), stats))
                i += 1

    def sample_speed(self, wall: float) -> float:
        """Time the speed loop once per half second of the request just done; their median."""
        samples = [host_speed_sample() for _ in range(max(1, round(wall / 0.5)))]
        self.speed += samples
        return statistics.median(samples)

    def call_traced(self, req: gen.Request, i: int) -> tuple[Response, dict]:
        stats_path = os.path.join(WORKDIR, f"trace_{i:05d}.json")
        resp = self.call(req, stats_path)
        try:
            with open(stats_path, encoding="utf-8") as fh:
                return resp, json.load(fh)
        except (OSError, ValueError) as exc:
            self.problems.append(f"no trace stats for {req.argv}: {exc}")
            return resp, {"targets": {}, "missing": []}


def host_speed_sample() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i % 7
    return time.perf_counter() - t0


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, list[str]]:
    walls = [w for ws in run.walls.values() for w in ws]
    t_value, t_pct, t_beyond = tail(walls)
    raw = {
        "setup_s": statistics.median(setup),
        "p50_ms": 1000 * statistics.median(walls),
        "tail_ms": 1000 * t_value,
        "requests_per_s": len(walls) / sum(walls),
    }
    factor = REF_LOOP_S / statistics.median(run.speed)
    metrics = {name: v / factor if name == "requests_per_s" else v * factor
               for name, v in raw.items()}
    metrics["peak_rss_mb"] = run.maxrss_kb / 1024
    lines = [f"host speed: loop median {statistics.median(run.speed):.5f} s over "
             f"{len(run.speed)} samples; times below scaled by {factor:.4f} "
             f"to the nominal {REF_LOOP_S} s (raw in brackets)",
             f"setup_s {metrics['setup_s']:.4f} s [{raw['setup_s']:.4f}] samples={len(setup)} "
             "(cold 'import imocheck.cli' in a fresh interpreter)"]
    for kind, ws in run.walls.items():
        v, pct, beyond = tail(ws)
        if kind == "suite":
            lines.append(f"suite_s {statistics.median(ws):.3f} s raw samples={len(ws)}")
            lines.append(f"suite_tail_s {v:.3f} s raw p{pct} samples={len(ws)} "
                         f"beyond={beyond}")
        else:
            name = KIND_NAMES[kind]
            lines.append(f"{name}_p50_ms {1000 * statistics.median(ws):.2f} ms raw "
                         f"samples={len(ws)}")
            lines.append(f"{name}_tail_ms {1000 * v:.2f} ms raw p{pct} samples={len(ws)} "
                         f"beyond={beyond}")
    lines += [
        f"p50_ms {metrics['p50_ms']:.2f} ms [{raw['p50_ms']:.2f}] samples={len(walls)}",
        f"tail_ms {metrics['tail_ms']:.2f} ms [{raw['tail_ms']:.2f}] p{t_pct} "
        f"samples={len(walls)} beyond={t_beyond}",
        f"requests_per_s {metrics['requests_per_s']:.4f} 1/s [{raw['requests_per_s']:.4f}] "
        f"samples={len(walls)}",
        f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MB samples={len(walls)}",
    ]
    return metrics, lines


def per_layer(traced: list) -> tuple[dict, list[str]]:
    """Per-request means over the traced requests; a missing target's metrics are left out."""
    n = len(traced)
    totals: dict[str, float] = defaultdict(float)
    missing: set[str] = set()
    claims: dict[str, float] = defaultdict(float)
    for req, resp, speed, tresp, tspeed, stats in traced:
        missing.update(stats.get("missing", []))
        targets = stats.get("targets", {})
        for target, fields in targets.items():
            for f, v in fields.items():
                totals[f"{target}.{f}"] += v
        main_s = targets.get("cli.main", {}).get("s")
        if main_s is None:
            missing.add("cli.startup_s")
        else:
            totals["cli.startup_s"] += tresp.wall - main_s
        totals["trace.overhead_s"] += REF_LOOP_S * (tresp.wall / tspeed - resp.wall / speed)
        totals["request.max_index"] += max(targets.get("a2.build", {}).get("max_index", 0),
                                           targets.get("a2.verify", {}).get("max_index", 0))
        if req.kind == "suite":
            for claim, gap in claim_gaps(tresp).items():
                claims[claim] += gap
    metrics: dict[str, float] = {}
    for target, f, _ in LAYER_FIELDS:
        if target not in missing:
            metrics[f"{target}.{f}"] = totals[f"{target}.{f}"] / n
    for name, (num, dens) in LAYER_RATIOS.items():
        if not any(term.rsplit(".", 1)[0] in missing for term in (num,) + dens):
            base = sum(totals[d] for d in dens)
            metrics[name] = totals[num] / base if base else 0.0
    for name in ("cli.startup_s", "trace.overhead_s"):
        if name not in missing:
            metrics[name] = totals[name] / n
    for claim in sorted(set(claims) | set(oracles.SUITE_CLAIMS)):
        metrics[f"suite.claim.{claim}.s"] = claims.get(claim, 0.0) / n
    untraced = sum(r.wall for _, r, *_ in traced) / n
    lines = [f"traced requests={n}; trace.overhead_s is "
             f"{100 * metrics.get('trace.overhead_s', 0) / untraced:.1f}% of the untraced "
             f"{untraced:.3f} s"]
    if missing:
        lines.append(f"missing (target gone from the program): {sorted(missing)}")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record here")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (PROGRAM / "__main__.py").is_file():
        print(f"perfbench: no {PROGRAM}/__main__.py here; run from the root of an imocheck "
              "source checkout", file=sys.stderr)
        return 2
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    run = Run(args, started + RUN_LIMIT_S)
    traced: list = []
    try:
        setup, backend = run.setup_samples()
        env = environment(backend)
        blocks = gen.blocks(args.workload, args.seed, WORKDIR)
        try:
            count = max(1, int(args.seconds / BLOCK_SECONDS[args.workload]))
            run.loop(blocks, max(1, count // 3) if args.trace else count, traced)
        except RunOutOfTime as exc:
            run.attempted += 1
            run.failed += 1
            run.problems.append(f"killed at the run's time limit: {exc}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if not run.walls:
        print(f"perfbench: no request completed: {run.problems}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, lines = per_layer(traced) if traced else ({}, [])
        units = per_layer_units()
    else:
        metrics, lines = end_to_end(run, setup)
        units = END_TO_END
    lines.append(f"fail_frac {run.failed / max(run.attempted, 1):.6f} "
                 f"({run.failed}/{run.attempted} requests or claims wrong)")
    header = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}",
              "env " + " ".join(f"{k}={v}" for k, v in env.items())]
    for line in header + lines + [f"problem: {p}" for p in run.problems[:20]]:
        print(line)
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "s")}
                    for name, value in metrics.items()},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "report": lines,
                  "host_speed_samples": run.speed,
                  "problems": run.problems, **result}
        Path(args.out).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
