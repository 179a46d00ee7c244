// Durability overhead: what crash safety costs on the hot path. Replays a
// Linear Road stream in tick-aligned batches (one Run = one WAL batch =
// one group commit) with durability off, WAL-only under each fsync policy,
// and WAL+checkpoint, and reports throughput plus the durability counters.
// Expectations: fsync=none costs only the serialization and buffered
// writes (single-digit percent), fsync=batch adds one sync per Run, and
// the checkpoint cadence adds state serialization on top of fsync=batch.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "plan/translator.h"
#include "runtime/engine.h"
#include "workloads/linear_road.h"

namespace caesar {
namespace {

struct Sample {
  double seconds = 0.0;
  RunStats stats;  // summed over all Run calls
};

// Splits the stream at tick boundaries so each Run seals one WAL batch.
std::vector<EventBatch> SplitByTicks(const EventBatch& stream,
                                     int num_batches) {
  int distinct = 0;
  Timestamp prev = 0;
  bool any = false;
  for (const EventPtr& event : stream) {
    if (!any || event->time() != prev) {
      ++distinct;
      prev = event->time();
      any = true;
    }
  }
  const int per_batch = distinct < num_batches ? 1 : distinct / num_batches;
  std::vector<EventBatch> batches;
  EventBatch current;
  int in_batch = 0;
  any = false;
  for (const EventPtr& event : stream) {
    if (!any || event->time() != prev) {
      if (in_batch == per_batch) {
        batches.push_back(std::move(current));
        current.clear();
        in_batch = 0;
      }
      ++in_batch;
      prev = event->time();
      any = true;
    }
    current.push_back(event);
  }
  if (!current.empty()) batches.push_back(std::move(current));
  return batches;
}

Sample Replay(const ExecutablePlan& plan,
              const std::vector<EventBatch>& batches, DurabilityMode mode,
              FsyncPolicy fsync, Timestamp checkpoint_interval,
              StatisticsReport* report_out) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("caesar_bench_durability_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  EngineOptions options;
  options.durability.mode = mode;
  options.durability.dir = dir.string();
  options.durability.fsync = fsync;
  options.durability.checkpoint_interval_ticks = checkpoint_interval;
  if (report_out != nullptr) options.gather_statistics = true;
  Engine engine(plan, options);
  Stopwatch watch;
  Sample sample;
  for (const EventBatch& batch : batches) {
    auto run = engine.Run(batch);
    CAESAR_CHECK_OK(run.status());
    sample.stats.input_events += run.value().input_events;
    sample.stats.derived_events += run.value().derived_events;
    sample.stats.wal_records += run.value().wal_records;
    sample.stats.wal_bytes += run.value().wal_bytes;
    sample.stats.fsyncs += run.value().fsyncs;
    sample.stats.checkpoints_written += run.value().checkpoints_written;
  }
  sample.seconds = watch.ElapsedSeconds();
  if (report_out != nullptr) *report_out = engine.CollectStatistics();
  std::filesystem::remove_all(dir);
  return sample;
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  int segments = static_cast<int>(flags.Int("segments", 10));
  Timestamp duration = flags.Int("duration", 900);
  int num_batches = static_cast<int>(flags.Int("batches", 16));
  Timestamp checkpoint_interval = flags.Int("checkpoint_interval", 64);
  uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  std::string metrics_out = flags.Str("metrics-out", "");
  flags.Validate();
  bench::MetricsSink sink("bench_durability", metrics_out);

  bench::Banner("Durability: WAL and checkpoint overhead vs off",
                "crash-safety cost of the write-ahead log across fsync "
                "policies, and of the checkpoint cadence on top");

  LinearRoadConfig config;
  config.num_segments = segments;
  config.duration = duration;
  config.seed = seed;
  TypeRegistry registry;
  EventBatch stream = GenerateLinearRoadStream(config, &registry);
  std::vector<EventBatch> batches = SplitByTicks(stream, num_batches);
  auto model = MakeLinearRoadModel(LinearRoadModelConfig(), &registry);
  CAESAR_CHECK_OK(model.status());
  auto plan = TranslateModel(model.value(), PlanOptions());
  CAESAR_CHECK_OK(plan.status());

  struct Leg {
    const char* label;
    DurabilityMode mode;
    FsyncPolicy fsync;
  };
  const Leg legs[] = {
      {"off", DurabilityMode::kOff, FsyncPolicy::kNone},
      {"wal/fsync=none", DurabilityMode::kWal, FsyncPolicy::kNone},
      {"wal/fsync=batch", DurabilityMode::kWal, FsyncPolicy::kBatch},
      {"wal+ckpt/fsync=batch", DurabilityMode::kWalCheckpoint,
       FsyncPolicy::kBatch},
  };

  double baseline_kev_s = 0.0;
  bench::Table table({"mode", "events", "kev_s", "vs_off", "wal_mb",
                      "fsyncs", "ckpts"});
  for (const Leg& leg : legs) {
    StatisticsReport report;
    Sample sample = Replay(plan.value(), batches, leg.mode, leg.fsync,
                           checkpoint_interval,
                           sink.enabled() ? &report : nullptr);
    sink.Add(leg.label, report);
    const double kev_s = sample.seconds > 0.0
                             ? static_cast<double>(sample.stats.input_events) /
                                   sample.seconds / 1e3
                             : 0.0;
    if (leg.mode == DurabilityMode::kOff) baseline_kev_s = kev_s;
    const double vs_off = baseline_kev_s > 0.0 ? kev_s / baseline_kev_s : 0.0;
    table.Row({leg.label, bench::FmtInt(sample.stats.input_events),
               bench::Fmt(kev_s, 1), bench::Fmt(vs_off, 3),
               bench::Fmt(static_cast<double>(sample.stats.wal_bytes) / 1e6,
                          2),
               bench::FmtInt(sample.stats.fsyncs),
               bench::FmtInt(sample.stats.checkpoints_written)});
  }
  sink.Write();
  return 0;
}

}  // namespace
}  // namespace caesar

int main(int argc, char** argv) { return caesar::Main(argc, argv); }
