"""Run one trimatch benchmark workload and print its metrics.

    python3 bench/run.py --workload graph --seed 1 --seconds 30 --trace 0

The workload runs in this one process and thread, pass after pass over the
same seeded inputs, until --seconds are used up; every end-to-end metric is
the median over those passes.  Times are CPU seconds, and the gated ones are
stated in multiples of a reference computation timed around each pass (see
bench/README.md).  --trace 1 alternates untraced and traced passes and
reports the per-layer metrics of the traced ones instead.  All answers are
checked after timing; the last line of stdout is one JSON object with the
metrics BENCHMARK.json names, and the exit code is 0 only if every answer
was right.

Full results, the slowest item's payload (replayable through the CLI) and,
for traced runs, the spans go to bench/out/.
"""

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("suite", "graph", "extremal", "homology")
# set-up is a few hundred milliseconds, so take the median of several
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import trimatch and the benchmark modules from this checkout only."""
    if not (SRC / "trimatch" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import trimatch

    if Path(trimatch.__file__).resolve().parent != SRC / "trimatch":
        return None
    import tracer
    import workloads

    return workloads, tracer


def measure_setup(args, workloads):
    """Median over fresh interpreters that import trimatch and build the
    inputs, from interpreter start to exit: CPU seconds, and the same scaled
    to the nominal reference speed (see workloads.REFERENCE_NOMINAL_S)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]

    def children_cpu():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        ref = workloads.reference_s()
        before = children_cpu()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        raw.append(children_cpu() - before)
        scaled.append(raw[-1] * workloads.REFERENCE_NOMINAL_S / ref)
    return statistics.median(raw), statistics.median(scaled)


def run_pass(workloads, wl, trace=None):
    p = workloads.Pass()
    if trace is None:
        on_item = lambda key: None
    else:
        on_item = lambda key: setattr(trace, "instance", key)
    ref_before = workloads.reference_s()
    start, cpu_start = time.perf_counter(), workloads.CLOCK()
    wl.run_pass(p, on_item)
    p.cpu_s = workloads.CLOCK() - cpu_start
    p.elapsed_s = time.perf_counter() - start
    p.ref_s = (ref_before + workloads.reference_s()) / 2
    return p


def measure(workloads, wl, seconds, trace):
    """Passes until the time is used up: one untraced pass per round, and
    with a tracer one traced pass after it."""
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(run_pass(workloads, wl))
        if trace is not None:
            trace.reset()
            trace.keep_spans = not traced  # the first traced pass only
            with trace:
                traced.append(run_pass(workloads, wl, trace))
            layers.append(trace.layer_metrics())
        per_round = statistics.median(p.elapsed_s for p in untraced)
        if traced:
            per_round += statistics.median(p.elapsed_s for p in traced)
        if time.perf_counter() + per_round > deadline:
            return untraced, traced, layers


def end_to_end(passes, setup):
    """Medians over the passes, in seconds and in multiples of the reference."""
    med = lambda values: statistics.median(list(values))
    slowest = lambda p: max((t for _, t in p.items), default=0.0)
    return {
        "wall_ref": (med(p.cpu_s / p.ref_s for p in passes), "ref"),
        "instances_per_ref": (med(p.instances * p.ref_s / p.cpu_s for p in passes), "1/ref"),
        "slowest_item_ref": (med(slowest(p) / p.ref_s for p in passes), "ref"),
        "wall_s": (med(p.cpu_s for p in passes), "s"),
        "instances_per_s": (med(p.instances / p.cpu_s for p in passes), "1/s"),
        "slowest_item_s": (med(slowest(p) for p in passes), "s"),
        "reference_s": (med(p.ref_s for p in passes), "s"),
        "setup_cpu_s": (setup[0], "s"),
        "setup_s": (setup[1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(untraced, traced, layers):
    metrics = {}
    for name, (_, unit) in layers[0].items():
        metrics[name] = (statistics.median(row[name][0] for row in layers), unit)
    overhead = (statistics.median(p.cpu_s for p in traced)
                - statistics.median(p.cpu_s for p in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def check(wl, passes, expected, seed):
    """Compare every pass with the expected record, then run the workload's
    independent checks.  Returns (attempted, failed, list of problems)."""
    problems = []
    mismatches = 0
    for i, p in enumerate(passes):
        for key in sorted(set(expected) | set(p.answers)):
            if p.answers.get(key) != expected.get(key):
                mismatches += 1
                problems.append(f"pass {i}: {key} = {p.answers.get(key)!r}, "
                                f"expected {expected.get(key)!r}")
        problems.extend(f"pass {i}: {err}" for err in p.errors)
    checks = wl.checks(passes[0].answers, random.Random(seed))
    wrong = [(name, got, want) for name, got, want in checks if got != want]
    problems.extend(f"check {name}: got {got!r}, expected {want!r}" for name, got, want in wrong)
    attempted = sum(p.attempted for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + mismatches + len(wrong)
    return attempted, failed, problems


def slowest_item(passes):
    times = {}
    for p in passes:
        for key, t in p.items:
            times.setdefault(key, []).append(t)
    if not times:
        return None, 0.0
    key = max(times, key=lambda k: statistics.median(times[k]))
    return key, statistics.median(times[key])


def write_replay(wl, key, stem):
    payload, cli_args, via_file = wl.payload(key)
    cmd = "PYTHONPATH=src python3 -m trimatch.cli " + " ".join(cli_args)
    record = {"item": key, "payload": payload}
    if via_file:
        path = OUT_DIR / f"{stem}-slowest.json"
        path.write_text(json.dumps(payload) + "\n")
        rel = path.relative_to(ROOT)
        cmd += f" < {rel}" if "--stdin" in cli_args else f" -i {rel}"
        record["payload_file"] = str(rel)
    record["replay"] = cmd
    return record


def write_spans(trace, stem):
    path = OUT_DIR / f"{stem}-spans.jsonl"
    t0 = trace.spans[0][3] if trace.spans else 0.0
    with open(path, "w") as fh:
        for span_id, parent, name, start, end, instance in trace.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                 "start": start - t0, "end": end - t0,
                                 "instance": instance}) + "\n")
    return path.relative_to(ROOT)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    modules = import_library()
    if modules is None:
        print(f"error: no trimatch sources under {SRC}", file=sys.stderr)
        return 2
    workloads, tracer = modules
    wl = workloads.build(args.workload, args.seed, args.size)
    if args.setup_only:
        return 0

    setup = measure_setup(args, workloads)
    trace = tracer.Tracer(workloads.CLOCK) if args.trace else None
    untraced, traced, layers = measure(workloads, wl, args.seconds, trace)
    metrics = end_to_end(untraced, setup)
    expected = workloads.load_expected(args.workload, args.size)
    attempted, failed, problems = check(wl, untraced + traced, expected, args.seed)
    if trace is not None:
        metrics = per_layer(untraced, traced, layers)

    # the JSON line carries the metrics BENCHMARK.json names for this mode;
    # the human lines above it show every metric
    spec = json.loads(SPEC_PATH.read_text())
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    key, key_s = slowest_item(untraced)
    results = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "passes": len(untraced),
        "pass_cpu_s": [p.cpu_s for p in untraced],
        "pass_elapsed_s": [p.elapsed_s for p in untraced],
        "pass_reference_s": [p.ref_s for p in untraced],
        "traced_pass_cpu_s": [p.cpu_s for p in traced],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "attempted": attempted, "failed": failed, "problems": problems,
        "slowest": dict(write_replay(wl, key, stem), seconds=key_s) if key else None,
    }
    if trace is not None:
        results["traced_answers_match"] = all(p.answers == untraced[0].answers for p in traced)
        if not results["traced_answers_match"]:
            problems.append("traced answers differ from untraced answers")
        results["spans_file"] = str(write_spans(trace, stem))
        results["unmeasured_layers"] = tracer.UNMEASURED_LAYERS
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(results, indent=1) + "\n")

    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print(f"{args.workload}: {len(untraced)} untraced passes, {len(traced)} traced passes, "
          f"seed {args.seed}, size {args.size}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio")
    print(f"{args.workload}: {failed} of {attempted} items failed")
    if results["slowest"]:
        print(f"{args.workload} slowest item {key} ({key_s:.4g} s), replay: "
              f"{results['slowest']['replay']}")
    if trace is not None:
        for layer, why in tracer.UNMEASURED_LAYERS.items():
            print(f"not measured: {layer} ({why})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
