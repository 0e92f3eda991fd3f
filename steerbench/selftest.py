#!/usr/bin/env python3
"""Self-test of the steerbench benchmark (see steerbench/BENCHMARK.md).

    python3 steerbench/selftest.py [--seconds 1] [--seed 7]

Checks, exiting 1 on the first group that fails:
  * BENCHMARK.json: metric names match [A-Za-z0-9_.-]+, at most 16
    end-to-end and 128 per-layer metrics, names unique, setup_s present,
    and the tables agree with the binary's own (--list-metrics);
  * every workload's untraced short run prints every end-to-end metric,
    non-zero, with no failed operation;
  * two traced short runs of the same seed give identical simulated
    per-layer counts (and two untraced runs the same sim_ipc);
  * each span file parses and no span's self time is negative.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
from run import build  # noqa: E402

ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# Per-layer metrics computed from simulated statistics only: they must
# repeat exactly for a seed.
SIMULATED_PREFIXES = (
    "core.skip_share", "wakeup.", "sim.resource_starved_per_cycle",
    "sim.mispredict_rate", "sim.avg_queue_occupancy", "tcache.", "loader.",
    "steer.", "engine.util.", "multicore.skip_share", "fabric.",
    "obs.events", "obs.trace_mb")
SIMULATED_EXCLUDE = ("obs.trace_mb_per_s",)

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}")
    return condition


def run(workload, seed, seconds, trace):
    command = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if not check(result.returncode == 0,
                 f"{workload} trace={trace}: exit {result.returncode}: "
                 f"{result.stderr[-800:]}"):
        return None, result.stdout
    return json.loads(result.stdout.strip().splitlines()[-1]), result.stdout


def check_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e, layer = bench["end_to_end"], bench["per_layer"]
    names = [m["name"] for m in e2e + layer] + [w["name"] for w in bench["workloads"]]
    for name in names:
        check(NAME.match(name) and len(name) <= 64, f"bad name {name!r}")
    check(len(names) == len(set(names)), "duplicate names")
    check(1 <= len(e2e) <= 16, f"{len(e2e)} end-to-end metrics")
    check(1 <= len(layer) <= 128, f"{len(layer)} per-layer metrics")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in e2e), "setup_s missing")
    check(all(0 < m["bound"] <= 0.25 for m in e2e), "a bound outside (0, 0.25]")
    # Build first (a no-op when up to date): the table check runs the binary.
    binary = build(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    listed = json.loads(subprocess.run([binary, "--list-metrics"], check=True,
                                       capture_output=True, text=True).stdout)
    strip = lambda ms: [(m["name"], m["unit"], m["better"]) for m in ms]
    check(strip(listed["end_to_end"]) == strip(e2e),
          "BENCHMARK.json end_to_end differs from the binary's table")
    check(strip(listed["per_layer"]) == strip(layer),
          "BENCHMARK.json per_layer differs from the binary's table")
    return bench


def simulated(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if k.startswith(SIMULATED_PREFIXES) and k not in SIMULATED_EXCLUDE}


def check_spans(path):
    with open(os.path.join(ROOT, path)) as f:
        events = json.load(f)["traceEvents"]
    child = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + e["dur"]
    worst = min((e["dur"] - child.get(e["args"]["span"], 0.0) for e in events),
                default=0.0)
    # Timestamps are whole nanoseconds printed in microseconds.
    check(worst >= -1e-3, f"{path}: a span's self time is negative ({worst} us)")
    check(len(events) > 0, f"{path}: no spans")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    bench = check_tables()
    e2e_names = [m["name"] for m in bench["end_to_end"]]
    layer_names = [m["name"] for m in bench["per_layer"]]
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"== {workload}")
        plain = [run(workload, args.seed, args.seconds, 0)[0] for _ in range(2)]
        for result in plain:
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0,
                  f"{workload}: {result['failed']} failed operations")
            check(sorted(result["metrics"]) == sorted(e2e_names),
                  f"{workload}: end-to-end metrics differ from BENCHMARK.json")
            for name in e2e_names:
                value = result["metrics"].get(name, {}).get("value", 0)
                check(value > 0, f"{workload}: {name} is {value}")
        if None not in plain:
            check(plain[0]["metrics"]["sim_ipc"] == plain[1]["metrics"]["sim_ipc"],
                  f"{workload}: sim_ipc differs between runs of one seed")
        traced = [run(workload, args.seed, args.seconds, 1) for _ in range(2)]
        if any(result is None for result, _ in traced):
            continue
        for result, _ in traced:
            check(result["correct"] and result["failed"] == 0,
                  f"{workload}: traced run failed operations")
            check(sorted(result["metrics"]) == sorted(layer_names),
                  f"{workload}: per-layer metrics differ from BENCHMARK.json")
        a, b = (simulated(result["metrics"]) for result, _ in traced)
        for name in sorted(a):
            check(a[name] == b.get(name),
                  f"{workload}: simulated {name} differs: {a[name]} vs {b.get(name)}")
        span_file = next(line.split()[-1] for line in traced[0][1].splitlines()
                         if line.strip().startswith("span_file"))
        check_spans(span_file)
    print("selftest:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
