// Parallel scaling of the persistent sharded executor (Section 6 / Fig. 8:
// the runtime is partition-parallel — each road segment owns its context
// vector and plan instance). Runs a multi-partition Linear Road stream
// through the optimized plan at growing worker counts and reports
// throughput, speedup over serial, and the pool's own metrics.
//
// Derived-event counts are checked to be identical across all thread
// counts (the determinism guarantee).
//
// Speedup depends on the hardware parallelism actually available: on an
// N-core machine the curve should approach min(threads, N, partitions per
// tick); on a single core it stays flat at ~1x.

#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "harness.h"
#include "workloads/linear_road.h"

namespace caesar {
namespace {

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
  flags.Validate();

  // --metrics=off|engine|operator: telemetry granularity of the measured
  // engines, for quantifying the observability overhead (run off vs
  // operator and compare wall_s).
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

  bench::Table table({"threads", "events", "derived", "wall_s", "events_per_s",
                      "speedup", "pool_ticks", "imbalance", "barrier_s"});
  double serial_seconds = 0.0;
  int64_t serial_derived = 0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    EngineOptions options;
    options.accel = accel;
    options.num_threads = threads;
    options.collect_outputs = false;
    options.metrics = granularity;
    StatisticsReport report;
    RunStats stats = bench::RunExperimentWithOptions(
        model.value(), stream, bench::PlanMode::kOptimized, options,
        repetitions, 0.2, sink.enabled() ? &report : nullptr);
    sink.Add("threads=" + std::to_string(threads), report);
    if (threads == 1) {
      serial_seconds = stats.cpu_seconds;
      serial_derived = stats.derived_events;
    } else {
      // Determinism guarantee: the parallel merge must not change results.
      CAESAR_CHECK_EQ(stats.derived_events, serial_derived)
          << "parallel run diverged from serial at " << threads << " threads";
    }
    double throughput =
        stats.cpu_seconds > 0
            ? static_cast<double>(stats.input_events) / stats.cpu_seconds
            : 0.0;
    double speedup =
        stats.cpu_seconds > 0 ? serial_seconds / stats.cpu_seconds : 0.0;
    table.Row({bench::FmtInt(threads), bench::FmtInt(stats.input_events),
               bench::FmtInt(stats.derived_events),
               bench::Fmt(stats.cpu_seconds), bench::Fmt(throughput, 0),
               bench::Fmt(speedup, 2), bench::FmtInt(stats.parallel_ticks),
               bench::FmtInt(stats.shard_imbalance),
               bench::Fmt(stats.barrier_wait_seconds)});
  }
  sink.Write();
  return 0;
}

}  // namespace
}  // namespace caesar

int main(int argc, char** argv) { return caesar::Main(argc, argv); }
