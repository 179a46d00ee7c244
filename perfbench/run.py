#!/usr/bin/env python3
"""End-to-end benchmark of CAESAR: builds perfbench from this checkout and
runs one workload.

    python3 perfbench/run.py --workload lr-parallel-wal --seed 1 --seconds 30 --trace 0

prints a metric table on stderr and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-module metrics with --trace 1.

    python3 perfbench/run.py --workload caesard-2tenant --seed 1 --seconds 30 --repeat 5

runs seeds 1..5 and prints the median and quartiles of every metric instead.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lr-serial", "lr-parallel-wal", "pam-seq", "caesard-2tenant")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds perfbench and caesard; returns the
    build directory."""
    for needed in ("src/runtime/engine.h", "tools/caesard.cc",
                   "examples/models/traffic.caesar", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a CAESAR checkout: %s is missing" % needed)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build failed: %s" % error)
        if done.returncode != 0:
            fail("build failed: %s" % " ".join(step))
    return build_dir


def run_once(build_dir, workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, parsed JSON line)."""
    out_dir = os.path.join(ROOT, ".bench_out")
    command = [os.path.join(build_dir, "perfbench"),
               "--workload=" + workload, "--seed=%d" % seed,
               "--seconds=%d" % seconds, "--trace=%d" % trace,
               "--root=" + ROOT, "--out=" + out_dir,
               "--caesard=" + os.path.join(build_dir, "caesard")]
    # Own process group, so a timeout also stops the daemon it spawned.
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("%s seed %d timed out" % (workload, seed))
    lines = stdout.decode().strip().splitlines()
    if not lines:
        fail("%s seed %d printed no result (exit %d)"
             % (workload, seed, child.returncode))
    return child.returncode, json.loads(lines[-1])


def select(result, declared):
    """The metrics named in BENCHMARK.json, in its order and units. A
    declared per-module metric a workload does not reach reads 0."""
    metrics = {}
    measured = dict(result["end_to_end"])
    measured.update(result["per_layer"])
    for entry in declared:
        name = entry["name"]
        if name in measured:
            if measured[name]["unit"] != entry["unit"]:
                fail("%s: unit %s, BENCHMARK.json says %s"
                     % (name, measured[name]["unit"], entry["unit"]))
            metrics[name] = measured[name]
        elif entry in DECLARED_E2E:
            fail("end-to-end metric %s was not measured" % name)
        else:
            metrics[name] = {"value": 0, "unit": entry["unit"]}
    unknown = set(result["per_layer"]) - {e["name"] for e in DECLARED_LAYER}
    if unknown:
        fail("per-module metrics missing from BENCHMARK.json: %s"
             % ", ".join(sorted(unknown)))
    return metrics


def load_declared():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    return spec["end_to_end"], spec["per_layer"]


DECLARED_E2E, DECLARED_LAYER = load_declared()


def repeat(build_dir, args):
    """Runs seeds seed..seed+N-1 and prints median and quartiles."""
    samples = {}
    for i in range(args.repeat):
        _, result = run_once(build_dir, args.workload, args.seed + i,
                             args.seconds, args.trace)
        declared = DECLARED_LAYER if args.trace else DECLARED_E2E
        selected = select(result, declared)
        print("seed %d: %s" % (args.seed + i, " ".join(
            "%s=%.6g" % (name, metric["value"])
            for name, metric in selected.items())), file=sys.stderr)
        for name, metric in selected.items():
            samples.setdefault(name, (metric["unit"], []))[1].append(
                metric["value"])
    summary = {}
    print("%-44s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                          "iqr/med"))
    for name, (unit, values) in samples.items():
        q1, median, q3 = (statistics.quantiles(values, n=4)
                          if len(values) > 1 else (values[0],) * 3)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "unit": unit}
        print("%-44s %14.6g %14.6g %14.6g %8.3f %s"
              % (name, median, q1, q3, spread, unit))
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "metrics": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N seeds and print quartiles")
    args = parser.parse_args()
    build_dir = build()
    if args.repeat > 0:
        repeat(build_dir, args)
        return 0
    code, result = run_once(build_dir, args.workload, args.seed, args.seconds,
                            args.trace)
    declared = DECLARED_LAYER if args.trace else DECLARED_E2E
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": select(result, declared)}))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
