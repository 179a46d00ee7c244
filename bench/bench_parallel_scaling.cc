// Parallel scaling of the persistent sharded executor (Section 6 / Fig. 8:
// the runtime is partition-parallel — each road segment owns its context
// vector and operator state). Runs a multi-partition Linear Road stream
// through the optimized plan at growing worker counts and reports the
// wall time of the measured Run call (distribution, dispatch and merge),
// throughput, speedup over serial, and the pool's own metrics.
//
// Derived-event counts are checked to be identical across all thread
// counts (the determinism guarantee).
//
// Speedup depends on the hardware parallelism actually available: on an
// N-core machine the curve should approach min(threads, N, partitions); on
// a single core it stays flat at ~1x. --scaling-out records the rows with
// the machine's hardware thread count (BENCH_baseline.json keeps one).

#include <cstdio>
#include <fstream>
#include <thread>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "harness.h"
#include "workloads/linear_road.h"

namespace caesar {
namespace {

struct Row {
  int threads = 0;
  double run_s = 0.0;  // wall time of the measured Run call
  RunStats stats;
};

// Writes the rows as {"scaling_schema_version": 1, "hardware_threads", the
// workload shape, "rows": [...]}; aborts on I/O failure.
void WriteScaling(const std::string& path, int roads, int segments,
                  Timestamp duration, const std::vector<Row>& rows) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"benchmark\":\"bench_parallel_scaling\""
      << ",\"scaling_schema_version\":1,\"hardware_threads\":"
      << std::thread::hardware_concurrency()
      << ",\"roads\":" << roads << ",\"segments\":" << segments
      << ",\"duration\":" << duration << ",\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const double speedup = rows[0].run_s / row.run_s;
    out << (i > 0 ? "," : "") << "{\"threads\":" << row.threads
        << ",\"run_s\":" << row.run_s
        << ",\"dispatch_s\":" << row.stats.cpu_seconds
        << ",\"events\":" << row.stats.input_events
        << ",\"derived\":" << row.stats.derived_events
        << ",\"events_per_s\":"
        << static_cast<double>(row.stats.input_events) / row.run_s
        << ",\"speedup\":" << speedup
        << ",\"dispatches\":" << row.stats.parallel_ticks
        << ",\"tasks\":" << row.stats.parallel_tasks
        << ",\"imbalance\":" << row.stats.shard_imbalance << "}";
  }
  out << "]}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed writing --scaling-out file %s\n",
                 path.c_str());
    std::exit(1);
  }
  std::printf("scaling rows written to %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  int roads = static_cast<int>(flags.Int("roads", 4));
  int segments = static_cast<int>(flags.Int("segments", 12));
  Timestamp duration = flags.Int("duration", 600);
  int replicas = static_cast<int>(flags.Int("replicas", 3));
  int max_threads = static_cast<int>(flags.Int("max_threads", 8));
  int repetitions = static_cast<int>(flags.Int("repetitions", 2));
  double accel = flags.Double("accel", 1000.0);
  uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  std::string metrics_name = flags.Str("metrics", "off");
  std::string metrics_out = flags.Str("metrics-out", "");
  std::string scaling_out = flags.Str("scaling-out", "");
  flags.Validate();

  // --metrics=off|engine|operator: telemetry granularity of the measured
  // engines, for quantifying the observability overhead (run off vs
  // operator and compare run_s).
  MetricsGranularity granularity;
  if (!ParseMetricsGranularity(metrics_name, &granularity)) {
    std::fprintf(stderr, "unknown --metrics granularity: %s\n",
                 metrics_name.c_str());
    return 2;
  }
  bench::MetricsSink sink("bench_parallel_scaling", metrics_out);

  bench::Banner(
      "Parallel scaling: persistent sharded executor",
      "Section 6/Fig. 8: partition-parallel runtime; throughput over worker "
      "count on a multi-partition Linear Road run");
  std::printf("hardware threads: %u, partitions: %d roads x %d segments x 2 "
              "directions\n\n",
              std::thread::hardware_concurrency(), roads, segments);

  LinearRoadConfig config;
  config.num_xways = roads;
  config.num_segments = segments;
  config.duration = duration;
  config.seed = seed;
  TypeRegistry registry;
  EventBatch stream = GenerateLinearRoadStream(config, &registry);
  LinearRoadModelConfig model_config;
  model_config.processing_replicas = replicas;
  auto model = MakeLinearRoadModel(model_config, &registry);
  CAESAR_CHECK_OK(model.status());
  auto plan = bench::BuildPlan(model.value(), bench::PlanMode::kOptimized);
  CAESAR_CHECK_OK(plan.status());

  // The first 20% of the stream warms each engine up (partitions, plan
  // instances); the rest is one measured Run.
  size_t split = 0;
  Timestamp boundary = 0;
  if (!stream.empty()) {
    const Timestamp span = stream.back()->time() - stream.front()->time();
    boundary = stream.front()->time() + static_cast<Timestamp>(span * 0.2);
  }
  while (split < stream.size() && stream[split]->time() <= boundary) ++split;
  const EventBatch warmup(stream.begin(), stream.begin() + split);
  const EventBatch measured(stream.begin() + split, stream.end());

  bench::Table table({"threads", "events", "derived", "run_s", "dispatch_s",
                      "events_per_s", "speedup", "dispatches", "imbalance",
                      "barrier_s"});
  std::vector<Row> rows;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    EngineOptions options;
    options.accel = accel;
    options.num_threads = threads;
    options.metrics = granularity;
    if (sink.enabled()) {
      options.gather_statistics = true;
      options.metrics = MetricsGranularity::kOperator;
    }
    // Fastest of `repetitions` fresh engines: the minimum filters the
    // shared machine's scheduling noise.
    Row row;
    row.threads = threads;
    StatisticsReport report;
    for (int rep = 0; rep < repetitions; ++rep) {
      Engine engine(plan.value(), options);
      engine.Run(warmup).value();
      Stopwatch watch;
      RunStats stats = engine.Run(measured).value();
      const double run_s = watch.ElapsedSeconds();
      if (rep == 0 || run_s < row.run_s) {
        row.run_s = run_s;
        row.stats = stats;
        if (sink.enabled()) report = engine.CollectStatistics();
      }
    }
    sink.Add("threads=" + std::to_string(threads), report);
    // Determinism guarantee: the parallel merge must not change results.
    CAESAR_CHECK_EQ(row.stats.derived_events,
                    rows.empty() ? row.stats.derived_events
                                 : rows[0].stats.derived_events)
        << "parallel run diverged from serial at " << threads << " threads";
    rows.push_back(row);
    const RunStats& stats = row.stats;
    table.Row({bench::FmtInt(threads), bench::FmtInt(stats.input_events),
               bench::FmtInt(stats.derived_events), bench::Fmt(row.run_s),
               bench::Fmt(stats.cpu_seconds),
               bench::Fmt(static_cast<double>(stats.input_events) / row.run_s,
                          0),
               bench::Fmt(rows[0].run_s / row.run_s, 2),
               bench::FmtInt(stats.parallel_ticks),
               bench::FmtInt(stats.shard_imbalance),
               bench::Fmt(stats.barrier_wait_seconds)});
  }
  sink.Write();
  if (!scaling_out.empty()) {
    WriteScaling(scaling_out, roads, segments, duration, rows);
  }
  return 0;
}

}  // namespace
}  // namespace caesar

int main(int argc, char** argv) { return caesar::Main(argc, argv); }
