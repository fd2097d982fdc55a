#!/usr/bin/env python3
"""CellScope benchmark: builds the benchmark program from source, runs one workload,
checks its outputs and prints every metric.

    python3 perfbench/run.py --workload batch_city|replay_city|serve_live \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/perfbench
(CMake, Release-with-debug-info, the repository's own sources). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 every end_to_end metric of
BENCHMARK.json, with --trace 1 every per_layer metric. The lines before
it print every metric the program measured, by the names of README.md,
with its unit, plus the output checks and the CELLSCOPE_* variables set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "cellscope_bench")

WORKLOADS = ("batch_city", "replay_city", "serve_live")

# Set-up is measured in this many fresh processes per run (the measuring
# process and extra set-up-only ones); setup_s is their median.
SETUP_SAMPLES = 3

# Which measured figure each end_to_end metric reports on each workload.
# Every workload reports every end_to_end metric, so op_p50_ms is a role:
# the median of the workload's main unit of work — a batch pass, a replay
# pass, a model-mix request at the nominal step. (source, factor to ms)
ROLES = {
    "batch_city": {"op_p50_ms": ("batch_s", 1000.0)},
    "replay_city": {"op_p50_ms": ("replay_s", 1000.0)},
    "serve_live": {"op_p50_ms": ("model_p50_us", 0.001)},
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no CellScope sources under src/: nothing to build")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", "cellscope_bench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def run_program(args):
    done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        fail("cellscope_bench exited with %d: %s" % (done.returncode, " ".join(args)))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("cellscope_bench printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    os.makedirs(WORK_DIR, exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--work-dir", WORK_DIR]
    result = run_program(common + ["--trace", str(args.trace)])
    raw = result["metrics"]
    if args.trace == 0:
        setups = [raw["setup_s"]["value"]]
        for _ in range(SETUP_SAMPLES - 1):
            extra = run_program(common + ["--setup-only"])
            setups.append(extra["metrics"]["setup_s"]["value"])
        raw["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["info"]["setup_s.samples"] = " ".join("%.4f" % s for s in setups)

    print("workload %s, seed %d, %g s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for name in sorted(raw):
        print("  %-32s %16.6f %s" % (name, raw[name]["value"], raw[name]["unit"]))
    for key in sorted(result["info"]):
        print("  info %-27s %s" % (key, result["info"][key]))
    attempted = result["attempted"]
    print("  error_ratio %d/%d = %.6f" % (result["failed"], attempted,
                                          result["failed"] / max(attempted, 1)))
    for failure in result["check_failures"]:
        print("  CHECK FAILED: " + failure)

    metrics = {}
    if args.trace == 0:
        roles = ROLES[args.workload]
        for m in spec["end_to_end"]:
            source, factor = roles.get(m["name"], (m["name"], 1.0))
            if source not in raw:
                fail("workload measured no %s" % source)
            metrics[m["name"]] = {"value": raw[source]["value"] * factor,
                                  "unit": m["unit"]}
    else:
        # A layer the workload does not run reports 0: it did no work.
        for m in spec["per_layer"]:
            value = raw[m["name"]]["value"] if m["name"] in raw else 0.0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(json.dumps({"correct": result["correct"],
                      "attempted": attempted, "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
