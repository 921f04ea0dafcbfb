"""Traced child: run ``imocheck`` as ``python -m imocheck`` would, with timing wrappers.

Usage: python -u tracer.py STATS_JSON imocheck-args...

Before the CLI starts, each target below is replaced by a wrapper that
counts its calls and times them, in every ``imocheck`` module that holds a
reference to it (so names bound by ``from ... import`` are rebound too).
A ``span`` target keeps a frame on a stack, so its self time excludes the
wrapped calls it makes; a ``leaf`` target (called 10^5 times and more) only
adds to its call count and total time; a ``gen`` target is a generator,
timed on every resume.  Nothing is kept per call.  When the process exits
the aggregates go to STATS_JSON.  A target that no longer exists is listed
as missing; the run goes on without it.
"""

from __future__ import annotations

import importlib
import json
import runpy
import sys
import time

# metric name -> (module, attribute path, kind)
TARGETS = {
    "cli.main": ("cli", "main", "span"),
    "report.record_line": ("report", "ClaimReport.record_line", "span"),
    "tiling.enumerate_tilings": ("tiling", "enumerate_tilings", "gen"),
    "tiling.is_valid_tiling": ("tiling", "is_valid_tiling", "span"),
    "tiling.witness": ("tiling", "witness", "span"),
    "tiling.find_green_tile": ("tiling", "find_green_tile", "span"),
    "tiling.gen_guillotine": ("tiling", "gen_guillotine", "span"),
    "tiling.pinwheel": ("tiling", "pinwheel", "span"),
    "tiling.parse_tiling": ("tiling", "parse_tiling", "span"),
    "tiling.tiling_problems": ("tiling", "tiling_problems", "span"),
    "n1.classify": ("n1", "classify", "span"),
    "n1.n1_step": ("n1", "n1_step", "leaf"),
    "n1.orbit": ("n1", "orbit", "span"),
    "n1.check_claim2": ("n1", "check_claim2", "span"),
    "a2.build": ("a2", "build", "span"),
    "a2.verify": ("a2", "verify", "span"),
    "a2.extend": ("a2", "extend", "span"),
    "a2.closed_form_next": ("a2", "closed_form_next", "span"),
    "a2.recurrence_residual": ("a2", "recurrence_residual", "span"),
    "rational.finite_sum": ("rational", "finite_sum", "leaf"),
    "backend.isqrt": ("backend", "isqrt", "leaf"),
    "backend.orbit_fill": ("backend", "orbit_fill", "span"),
    "backend.confirm_plus3_run": ("backend", "confirm_plus3_run", "span"),
    "backend.enum_tilings": ("backend", "enum_tilings", "span"),
}


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


# metric name -> {count name: (function of (args, kwargs, result), "sum" | "max")}
COUNTS = {
    "backend.enum_tilings": {"tilings": (lambda a, k, r: len(r), "sum")},
    "backend.orbit_fill": {"values": (lambda a, k, r: len(r), "sum")},
    "backend.confirm_plus3_run": {
        "window_steps": (lambda a, k, r: _arg(a, k, 1, "nsteps"), "sum")},
    "n1.classify": {
        "stepped_steps": (lambda a, k, r: len(r.values) - 1, "sum"),
        "budget": (lambda a, k, r: _arg(a, k, 1, "budget"), "sum")},
    "a2.build": {"max_index": (lambda a, k, r: _arg(a, k, 0, "n"), "max")},
    "a2.verify": {"max_index": (lambda a, k, r: _arg(a, k, 0, "n_max"), "max")},
}


class Stat:
    __slots__ = ("calls", "s", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}


class Tracer:
    """Wrappers plus their aggregates for one process."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self.count_errors: set[str] = set()
        self.stack = [[0.0]]        # child time charged to each open span frame
        self.leaf_depth = [0]       # leaves inside leaves charge no frame

    def install(self, package: str = "imocheck") -> None:
        for name, (mod_name, path, kind) in TARGETS.items():
            try:
                owner = importlib.import_module(f"{package}.{mod_name}")
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                orig = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            st = self.stats[name] = Stat()
            make = {"span": self._span, "leaf": self._leaf, "gen": self._gen}[kind]
            wrapper = make(orig, st, COUNTS.get(name, {}), name)
            setattr(owner, parts[-1], wrapper)
            for mod_key, mod in list(sys.modules.items()):
                if mod_key == package or mod_key.startswith(package + "."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)

    def _count(self, st: Stat, counts: dict, name: str, args, kwargs, result) -> None:
        for key, (fn, op) in counts.items():
            try:
                v = fn(args, kwargs, result)
            except Exception:       # a changed signature loses the count, not the run
                self.count_errors.add(f"{name}.{key}")
                continue
            old = st.counts.get(key, 0)
            st.counts[key] = old + v if op == "sum" else max(old, v)

    def _span(self, fn, st: Stat, counts: dict, name: str):
        stack, depth, pc = self.stack, self.leaf_depth, time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            outer = depth[0]
            depth[0] = 0
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                depth[0] = outer
                stack.pop()
                st.calls += 1
                st.s += dt
                st.self_s += dt - frame[0]
                if not outer:
                    stack[-1][0] += dt
            if counts:
                self._count(st, counts, name, args, kwargs, result)
            return result

        return span

    def _leaf(self, fn, st: Stat, counts: dict, name: str):
        stack, depth, pc = self.stack, self.leaf_depth, time.perf_counter

        def leaf(*args, **kwargs):
            depth[0] += 1
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                depth[0] -= 1
                st.calls += 1
                st.s += dt
                if not depth[0]:
                    stack[-1][0] += dt

        return leaf

    def _gen(self, fn, st: Stat, counts: dict, name: str):
        stack, pc = self.stack, time.perf_counter

        def resume(gen):
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = pc()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = pc() - t0
                    stack.pop()
                    st.s += dt
                    st.self_s += dt - frame[0]
                    stack[-1][0] += dt
                yield item

        def gen_wrapper(*args, **kwargs):
            st.calls += 1
            return resume(fn(*args, **kwargs))

        return gen_wrapper

    def dump(self, path: str) -> None:
        data = {
            "targets": {name: {"calls": st.calls, "s": st.s, **st.counts,
                               **({} if TARGETS[name][2] == "leaf" else {"self_s": st.self_s})}
                        for name, st in self.stats.items()},
            "missing": self.missing,
            "count_errors": sorted(self.count_errors),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def main() -> None:
    stats_path = sys.argv[1]
    sys.argv = ["imocheck"] + sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        runpy.run_module("imocheck", run_name="__main__", alter_sys=True)
    finally:
        tracer.dump(stats_path)


if __name__ == "__main__":
    main()
