"""Smoke test of the benchmark: every workload at tiny size, trace off and on.

    python3 bench/smoke.py            (or: python -m pytest -q bench/smoke.py)

Checks that each run prints every metric BENCHMARK.json names, with its
unit, that every answer matches the expected record (failed_frac is 0),
that traced answers equal untraced ones, that work counts repeat exactly
between two traced runs, and that the benchmark refuses to run without
the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return lines, last


def check_metrics(workload, lines, last, wanted):
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    for name, unit in list(wanted.items()) + [("failed_frac", "ratio")]:
        assert any(line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert f"{workload} failed_frac = 0 ratio" in lines


def test_untraced_runs():
    for workload in WORKLOADS:
        lines, last = result(run(workload, 0))
        check_metrics(workload, lines, last, END_TO_END)
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_traced_runs_repeat_and_match():
    for workload in WORKLOADS:
        runs = [result(run(workload, 1)) for _ in range(2)]
        for lines, last in runs:
            check_metrics(workload, lines, last, PER_LAYER)
        counts = [{k: v["value"] for k, v in last["metrics"].items() if v["unit"] == "count"}
                  for _, last in runs]
        assert counts[0] == counts[1], workload
        saved = json.loads((BENCH_DIR / "out" / f"{workload}-seed7-trace.json").read_text())
        assert saved["traced_answers_match"] and not saved["problems"]
        assert (ROOT / saved["spans_file"]).stat().st_size > 0


def test_refuses_without_library():
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_untraced_runs, test_traced_runs_repeat_and_match, test_refuses_without_library):
        test()
        print(f"ok {test.__name__}")
