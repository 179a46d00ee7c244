#!/usr/bin/env python3
"""Validates the JSON emitted by the benches' --metrics-out flag.

Stdlib only (runs in CI without installing anything). Checks the sink
envelope {benchmark, schema_version, runs[]} and, for every run, the
StatisticsReport JSON produced by StatisticsToJson: required keys, types,
internal consistency of the power-of-2 histogram blocks, and the
transaction counters against their histograms and per-worker breakdown.

Files carrying a top-level "baseline_version" key (BENCH_baseline.json,
written by tools/update_bench_baseline.py) are validated as a baseline
wrapper instead: every contained envelope is checked as above, plus the
durability on/off runs and the parallel scaling rows it must carry.

Files carrying a top-level "scaling_schema_version" key (--scaling-out from
bench_parallel_scaling) are validated as scaling rows: identical derived
counts across thread counts, one pool dispatch per measured Run at every
thread count (1 included), and, when the recording machine had >= 4
hardware threads, a >= 1.5x Run wall-clock speedup at 4 threads.

Usage: check_metrics_schema.py FILE [FILE ...]
Exit status: 0 when every file validates, 1 otherwise.
"""

import json
import sys

SCHEMA_VERSION = 1


class SchemaError(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise SchemaError(message)


def check_histogram(hist, where):
    expect(isinstance(hist, dict), f"{where}: histogram must be an object")
    for key in ("count", "sum", "max", "buckets"):
        expect(key in hist, f"{where}: histogram missing '{key}'")
    expect(isinstance(hist["buckets"], list), f"{where}: buckets must be a list")
    total = 0
    for entry in hist["buckets"]:
        expect(
            isinstance(entry, list) and len(entry) == 2,
            f"{where}: each bucket is a [lower_bound, count] pair",
        )
        lower, count = entry
        expect(
            isinstance(lower, int) and isinstance(count, int) and count > 0,
            f"{where}: bucket entries are positive integer counts",
        )
        total += count
    expect(
        total == hist["count"],
        f"{where}: bucket counts sum to {total}, header says {hist['count']}",
    )


def check_durability(block, where):
    expect(isinstance(block, dict), f"{where}: durability must be an object")
    for key in ("mode", "wal_records", "wal_bytes", "fsyncs",
                "checkpoints_written", "recovered",
                "recovery_replayed_events", "torn_tail_truncations",
                "recovery_diagnostics"):
        expect(key in block, f"{where}: durability missing '{key}'")
    expect(block["mode"] in ("wal", "wal+checkpoint"),
           f"{where}: unknown durability mode {block['mode']!r} "
           "(mode 'off' must omit the block entirely)")
    expect(block["recovered"] in ("true", "false"),
           f"{where}: recovered must be 'true'/'false'")
    for key in ("wal_records", "wal_bytes", "fsyncs", "checkpoints_written",
                "recovery_replayed_events", "torn_tail_truncations"):
        expect(isinstance(block[key], int) and block[key] >= 0,
               f"{where}: durability.{key} must be a non-negative integer")
    expect(isinstance(block["recovery_diagnostics"], list),
           f"{where}: recovery_diagnostics must be a list")
    if block["recovered"] == "false":
        expect(block["recovery_replayed_events"] == 0,
               f"{where}: non-recovered run cannot have replayed events")


def check_executor(block, where):
    expect(isinstance(block, dict), f"{where}: executor must be an object")
    for key in ("workers", "dispatches", "tasks", "imbalance", "barrier_wait",
                "tasks_per_dispatch", "imbalance_per_dispatch"):
        expect(key in block, f"{where}: executor missing '{key}'")
    for key in ("workers", "dispatches", "tasks", "imbalance"):
        expect(isinstance(block[key], int) and block[key] >= 0,
               f"{where}: executor.{key} must be a non-negative integer")
    check_histogram(block["tasks_per_dispatch"],
                    f"{where}: executor.tasks_per_dispatch")
    check_histogram(block["imbalance_per_dispatch"],
                    f"{where}: executor.imbalance_per_dispatch")
    # The per-dispatch histograms record every dispatch (including balanced
    # ones) so skew is readable independently of run length.
    for key in ("tasks_per_dispatch", "imbalance_per_dispatch"):
        expect(block[key]["count"] == block["dispatches"],
               f"{where}: executor.{key} counted {block[key]['count']} "
               f"dispatches, header says {block['dispatches']}")
    expect(block["tasks_per_dispatch"]["sum"] == block["tasks"],
           f"{where}: executor.tasks_per_dispatch sums to "
           f"{block['tasks_per_dispatch']['sum']}, "
           f"counter says {block['tasks']}")
    expect(block["imbalance_per_dispatch"]["sum"] == block["imbalance"],
           f"{where}: executor.imbalance_per_dispatch sums to "
           f"{block['imbalance_per_dispatch']['sum']}, "
           f"counter says {block['imbalance']}")


def check_running_stats(stats, where):
    expect(isinstance(stats, dict), f"{where}: running stats must be an object")
    for key in ("count", "sum", "mean", "min", "max"):
        expect(key in stats, f"{where}: running stats missing '{key}'")
    expect(isinstance(stats["count"], int) and stats["count"] >= 0,
           f"{where}: count must be a non-negative integer")
    expect(stats["sum"] >= 0, f"{where}: a wall time cannot sum below 0")


def check_transaction_counters(report, where):
    """The transaction counters are the count and sums of the two
    transaction histograms."""
    totals = {entry["name"]: entry["total"] for entry in report["counters"]}
    histograms = {entry["name"]: entry["histogram"]
                  for entry in report.get("histograms", [])}
    for name in ("transaction_events", "transaction_derived"):
        expect(name in histograms,
               f"{where}: counters without the {name} histogram")
    events = histograms["transaction_events"]
    derived = histograms["transaction_derived"]
    for counter, expected, what in (
            ("transactions", events["count"], "transaction_events count"),
            ("transaction_input_events", events["sum"],
             "transaction_events sum"),
            ("transaction_derived_events", derived["sum"],
             "transaction_derived sum")):
        expect(counter in totals, f"{where}: counters missing '{counter}'")
        expect(totals[counter] == expected,
               f"{where}: counter {counter} is {totals[counter]}, "
               f"the {what} is {expected}")


def check_report(report, where):
    expect(isinstance(report, dict), f"{where}: report must be an object")
    for key in ("schema_version", "granularity", "deterministic", "ingest",
                "operators"):
        expect(key in report, f"{where}: report missing '{key}'")
    expect(
        report["schema_version"] == SCHEMA_VERSION,
        f"{where}: schema_version {report['schema_version']} != {SCHEMA_VERSION}",
    )
    expect(
        report["granularity"] in ("off", "engine", "operator"),
        f"{where}: unknown granularity {report['granularity']!r}",
    )
    # The tenant dimension (caesard per-tenant scrapes) is optional and,
    # when present, a non-empty string: library engines omit the key
    # entirely rather than emitting tenant="".
    if "tenant" in report:
        expect(
            isinstance(report["tenant"], str) and report["tenant"],
            f"{where}: tenant must be a non-empty string when present",
        )

    ingest = report["ingest"]
    for key in ("admitted", "reordered", "dropped_late", "quarantined",
                "quarantine_rate", "reorder_rate"):
        expect(key in ingest, f"{where}: ingest missing '{key}'")

    if "durability" in report:
        check_durability(report["durability"], where)
    if "executor" in report:
        check_executor(report["executor"], where)

    expect(isinstance(report["operators"], list),
           f"{where}: operators must be a list")
    for i, op in enumerate(report["operators"]):
        op_where = f"{where}: operators[{i}]"
        for key in ("query", "op", "kind", "invocations", "input_events",
                    "output_events", "selectivity", "unit_cost"):
            expect(key in op, f"{op_where} missing '{key}'")
        # Rows with no observed input carry null estimates, never 0/0.
        if op["input_events"] == 0:
            expect(op["selectivity"] is None,
                   f"{op_where}: selectivity must be null with no input")
            expect(op["unit_cost"] is None,
                   f"{op_where}: unit_cost must be null with no input")
        for hist_name in ("input_batch", "output_batch",
                          "work_per_invocation"):
            if hist_name in op:
                check_histogram(op[hist_name], f"{op_where}.{hist_name}")

    if "ticks" in report:
        ticks = report["ticks"]
        expect("ticks" in ticks, f"{where}: ticks missing 'ticks'")
        expect("gc_runs" in ticks, f"{where}: ticks missing 'gc_runs'")
        for name in ("events_per_tick", "partitions_per_tick",
                     "derived_per_tick", "context_switches_per_tick"):
            if name in ticks:
                check_histogram(ticks[name], f"{where}: ticks.{name}")
        # Time Runs blocked on the WAL log thread: wall clock, so never in
        # a deterministic export, and only accrued with durability on.
        if "wal_wait_seconds" in ticks:
            wal_wait = ticks["wal_wait_seconds"]
            check_running_stats(wal_wait, f"{where}: ticks.wal_wait_seconds")
            expect(report["deterministic"] == "false",
                   f"{where}: deterministic export carries wall-clock "
                   "ticks.wal_wait_seconds")
            expect(wal_wait["count"] == 0 or "durability" in report,
                   f"{where}: ticks.wal_wait_seconds counted "
                   f"{wal_wait['count']} logged Runs without a durability "
                   "block")
    if "histograms" in report:
        expect(isinstance(report["histograms"], list),
               f"{where}: histograms must be a list")
        for entry in report["histograms"]:
            expect("name" in entry and "histogram" in entry,
                   f"{where}: histogram entries are {{name, help, histogram}}")
            check_histogram(entry["histogram"],
                            f"{where}: histograms[{entry['name']}]")
    if "counters" in report:
        expect(isinstance(report["counters"], list),
               f"{where}: counters must be a list")
        for entry in report["counters"]:
            expect("name" in entry and "total" in entry,
                   f"{where}: counter entries carry name and total")
            # Non-deterministic exports break each counter down per
            # executing worker; the breakdown adds up to the total.
            if report["deterministic"] == "false":
                expect("per_shard" in entry,
                       f"{where}: counters[{entry['name']}] lacks per_shard")
                expect(sum(entry["per_shard"]) == entry["total"],
                       f"{where}: counters[{entry['name']}] per_shard sums "
                       f"to {sum(entry['per_shard'])}, total is "
                       f"{entry['total']}")
        if report["counters"]:
            check_transaction_counters(report, where)
    if "timeline" in report:
        timeline = report["timeline"]
        expect(isinstance(timeline, dict), f"{where}: timeline is an object")
        expect("points" in timeline and "dropped" in timeline,
               f"{where}: timeline missing 'points'/'dropped'")
        for j, point in enumerate(timeline["points"]):
            for key in ("t", "events", "derived", "partitions",
                        "executed_chains", "suspended_chains", "activity"):
                expect(key in point,
                       f"{where}: timeline.points[{j}] missing '{key}'")


def check_scaling(doc):
    """Validates a --scaling-out file from bench_parallel_scaling."""
    for key in ("benchmark", "scaling_schema_version", "hardware_threads",
                "roads", "segments", "duration", "rows"):
        expect(key in doc, f"scaling file missing '{key}'")
    expect(doc["scaling_schema_version"] == 1,
           f"unknown scaling_schema_version {doc['scaling_schema_version']}")
    rows = doc["rows"]
    expect(isinstance(rows, list) and rows, "'rows' must be a non-empty list")
    for i, row in enumerate(rows):
        for key in ("threads", "run_s", "dispatch_s", "events", "derived",
                    "events_per_s", "speedup", "dispatches", "tasks",
                    "imbalance"):
            expect(key in row, f"scaling rows[{i}] missing '{key}'")
        expect(row["run_s"] > 0, f"scaling rows[{i}] has no wall time")
    expect(rows[0]["threads"] == 1, "scaling rows must start at 1 thread")
    derived = {row["derived"] for row in rows}
    expect(len(derived) == 1,
           f"derived counts differ across thread counts: {sorted(derived)}")
    # One dispatch per Run: the measured Run is a single pool dispatch.
    for row in rows:
        expect(row["dispatches"] == 1,
               f"{row['threads']} threads: {row['dispatches']} dispatches "
               "for one Run")
    four = [row for row in rows if row["threads"] == 4]
    if doc["hardware_threads"] >= 4:
        expect(four, "scaling rows lack the 4-thread row")
        expect(four[0]["speedup"] >= 1.5,
               f"speedup {four[0]['speedup']:.2f} at 4 threads is below "
               f"1.5 on a {doc['hardware_threads']}-thread machine")
    return len(rows)


def check_baseline(doc):
    for key in ("baseline_version", "generated", "benches"):
        expect(key in doc, f"baseline missing '{key}'")
    expect(doc["baseline_version"] == 1,
           f"unknown baseline_version {doc['baseline_version']}")
    expect(isinstance(doc["benches"], dict) and doc["benches"],
           "'benches' must be a non-empty object")
    runs = 0
    for name, entry in doc["benches"].items():
        expect(isinstance(entry, dict) and "envelope" in entry,
               f"benches[{name}] must carry an 'envelope'")
        envelope = entry["envelope"]
        for key in ("benchmark", "schema_version", "runs"):
            expect(key in envelope, f"benches[{name}] envelope missing '{key}'")
        for i, run in enumerate(envelope["runs"]):
            check_report(run["report"], f"benches[{name}] runs[{i}]")
        runs += len(envelope["runs"])
        if "scaling" in entry:
            check_scaling(entry["scaling"])
    expect("bench_parallel_scaling" in doc["benches"]
           and "scaling" in doc["benches"]["bench_parallel_scaling"],
           "baseline must carry the bench_parallel_scaling scaling rows")
    expect("bench_durability" in doc["benches"],
           "baseline must carry bench_durability (WAL overhead vs off)")
    durability_runs = doc["benches"]["bench_durability"]["envelope"]["runs"]
    expect(any("durability" in run["report"] for run in durability_runs),
           "bench_durability baseline has no run with a durability block")
    expect(any("durability" not in run["report"] for run in durability_runs),
           "bench_durability baseline has no durability-off control run")
    return runs


def check_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    expect(isinstance(doc, dict), "top level must be an object")
    if "baseline_version" in doc:
        return check_baseline(doc)
    if "scaling_schema_version" in doc:
        return check_scaling(doc)
    for key in ("benchmark", "schema_version", "runs"):
        expect(key in doc, f"top level missing '{key}'")
    expect(
        doc["schema_version"] == SCHEMA_VERSION,
        f"envelope schema_version {doc['schema_version']} != {SCHEMA_VERSION}",
    )
    expect(isinstance(doc["runs"], list), "'runs' must be a list")
    for i, run in enumerate(doc["runs"]):
        expect(isinstance(run, dict) and "label" in run and "report" in run,
               f"runs[{i}] must be {{label, report}}")
        check_report(run["report"], f"runs[{i}] ({run.get('label')})")
    return len(doc["runs"])


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            runs = check_file(path)
            print(f"{path}: OK ({runs} runs)")
        except (SchemaError, OSError, json.JSONDecodeError) as error:
            print(f"{path}: FAIL: {error}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
