#!/usr/bin/env python3
"""Summarise result records written by ``run.py --out``, and compare two sets.

    python3 perfbench/summary.py RESULT.json...
    python3 perfbench/summary.py BASE.json... --against HEAD.json...

For each workload and metric it prints the median, the quartiles and the
spread (third minus first quartile, as a share of the median).  End-to-end
metrics show their bound from BENCHMARK.json and are flagged when the
spread reaches a third of it.  With ``--against`` it also prints how far
the second set's median is from the first's, in the metric's worse
direction, and exits 1 when that exceeds the bound.

Results from different backends (pure Python or compiled kernels) measure
different programs, so mixing them is an error: the script exits 2 and
names the backends it saw.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def values_by_metric(records: list[dict]) -> dict[tuple, list[float]]:
    out: dict[tuple, list[float]] = defaultdict(list)
    for rec in records:
        for name, m in rec["metrics"].items():
            out[(rec["workload"], rec["trace"], name)].append(m["value"])
    return out


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args(argv)
    base, head = load(args.results), load(args.against)
    backends = {rec["env"]["backend"] for rec in base + head}
    if len(backends) > 1:
        print(f"summary: results come from different backends {sorted(backends)}; "
              "they measure different programs and cannot be compared", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base_v, head_v = values_by_metric(base), values_by_metric(head)
    failed = False
    for key in sorted(base_v):
        workload, trace, name = key
        med, q1, q3, sp = spread(base_v[key])
        line = (f"{workload:15s} t{trace} {name:40s} n={len(base_v[key]):2d} median={med:.6g} "
                f"q1={q1:.6g} q3={q3:.6g} spread={sp:.4f}")
        bound = e2e[name]["bound"] if trace == 0 and name in e2e else None
        if bound is not None:
            line += f" bound={bound}" + ("  SPREAD>=BOUND/3" if sp >= bound / 3 else "")
        if key in head_v:
            hmed = statistics.median(head_v[key])
            sign = -1 if name in e2e and e2e[name]["better"] == "higher" else 1
            worse = sign * (hmed - med) / med if med else 0.0
            line += f" | against median={hmed:.6g} worse_by={worse:+.4f}"
            if bound is not None and worse > bound:
                line += "  REGRESSION"
                failed = True
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
