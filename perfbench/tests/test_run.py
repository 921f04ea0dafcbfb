"""The traced child, the run's statistics and its refusal outside a checkout."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import summary
import tracer

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def traced(tmp_path, *argv, prelude=""):
    """Run the traced child on argv in a fresh interpreter; return (exit, stats, stdout)."""
    stats = tmp_path / "stats.json"
    code = "\n".join([f"import sys; sys.path.insert(0, {str(BENCH)!r}); import tracer",
                      prelude,
                      f"sys.argv = ['tracer.py', {str(stats)!r}, *{list(argv)!r}]",
                      "tracer.main()"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          timeout=120)
    return done.returncode, json.loads(stats.read_text()), done.stdout.decode()


def test_traced_child_counts_calls_and_rebinds_from_imports(tmp_path):
    rc, stats, out = traced(tmp_path, "a2", "--n", "6", "--verify")
    assert rc == 0 and out.splitlines()[0] == "0\t-1/1"
    t = stats["targets"]
    assert t["a2.extend"]["calls"] == 12            # build(6) and verify(6)
    assert t["a2.build"]["max_index"] == 6
    # a2 binds finite_sum with "from .rational import", so only a rebound name counts
    assert t["rational.finite_sum"]["calls"] > 0
    assert 0 < t["a2.verify"]["self_s"] <= t["a2.verify"]["s"] <= t["cli.main"]["s"]
    assert stats["missing"] == []


def test_traced_child_reports_a_missing_target_and_still_runs(tmp_path):
    prelude = "tracer.TARGETS['n1.gone'] = ('n1', 'no_such_function', 'span')"
    rc, stats, out = traced(tmp_path, "n1", "--a0", "7", "--classify", prelude=prelude)
    assert rc == 0 and out == "DivergentViaMod1 m=5\n"
    assert stats["missing"] == ["n1.gone"]
    t = stats["targets"]
    assert t["n1.classify"]["stepped_steps"] == 5
    assert t["n1.n1_step"]["calls"] == 5
    assert t["backend.confirm_plus3_run"]["calls"] == 1


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90, 10)
    assert run.tail([float(i) for i in range(1, 31)]) == (20.0, 66, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)


def test_claim_gaps_start_at_the_seed_line():
    resp = run.Response(1.0, 0, b"CLAIM a.x outcome=pass\nCLAIM a.y outcome=pass\n",
                        b"backend=pure\nsuite seed=1\n2/2 claims passed\n", 0,
                        out_times=[1.5, 4.0], err_times=[0.0, 1.0, 4.0])
    assert run.claim_gaps(resp) == {"a.x": 0.5, "a.y": 2.5}


def test_benchmark_json_lists_exactly_the_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(tracer.TARGETS) >= {t for t, _, _ in run.LAYER_FIELDS}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "n1_classify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode != 0 and done.stdout == b""


def test_summary_refuses_to_mix_backends(tmp_path, capsys):
    paths = []
    for backend in ("pure", "cython"):
        rec = {"workload": "n1_classify", "trace": 0, "env": {"backend": backend},
               "metrics": {"p50_ms": {"value": 1.0, "unit": "ms"}}}
        paths.append(tmp_path / f"{backend}.json")
        paths[-1].write_text(json.dumps(rec))
    assert summary.main([str(paths[0]), "--against", str(paths[1])]) == 2
    assert "different backends" in capsys.readouterr().err
