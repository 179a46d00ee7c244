#!/usr/bin/env python3
"""Regenerates BENCH_baseline.json, the checked-in benchmark baseline.

Stdlib only. Runs the baseline benches from an existing build tree, captures
their --metrics-out envelopes, and writes the wrapper document
check_metrics_schema.py validates:

  {"baseline_version": 1, "generated": "YYYY-MM-DD",
   "benches": {name: {"envelope": {...}}}}

Usage: update_bench_baseline.py [--build-dir DIR] [--out FILE]
Exit status: 0 on success; a failing bench run aborts with its exit code.
"""

import argparse
import datetime
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run_bench(binary, args, out_path):
    command = [str(binary)] + args
    print("+ " + " ".join(command), file=sys.stderr)
    result = subprocess.run(command)
    if result.returncode != 0:
        print(f"{binary.name} failed with exit {result.returncode}",
              file=sys.stderr)
        sys.exit(result.returncode or 1)
    with open(out_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="BENCH_baseline.json")
    args = parser.parse_args()

    bench_dir = Path(args.build_dir) / "bench"
    benches = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # Reduced workloads keep the checked-in file reviewable; the trends
        # (scaling curve, durability overhead) survive the shrink.
        metrics = tmp / "parallel.json"
        benches["bench_parallel_scaling"] = {
            "envelope": run_bench(
                bench_dir / "bench_parallel_scaling",
                ["--roads=2", "--segments=8", "--duration=300",
                 "--metrics=operator", f"--metrics-out={metrics}"],
                metrics,
            ),
        }
        metrics = tmp / "durability.json"
        benches["bench_durability"] = {
            "envelope": run_bench(
                bench_dir / "bench_durability",
                ["--segments=6", "--duration=300",
                 f"--metrics-out={metrics}"],
                metrics,
            ),
        }

    doc = {
        "baseline_version": 1,
        "generated": datetime.date.today().isoformat(),
        "benches": benches,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
