// Ingest-policy overhead: what graceful degradation costs on the hot path.
// Replays a Linear Road stream (pristine, and perturbed by bounded per-tick
// delay) under each IngestPolicy and reports throughput plus the
// degradation counters. Expectations: kStrict on pristine input adds only a
// validation scan; kReorder adds one admission check per event plus a
// stable sort of the admitted events when they arrive out of order, and
// with a slack of max_delay still derives the identical output from the
// delayed stream. kReorder with slack 0 drops every late event instead.

#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "plan/translator.h"
#include "runtime/engine.h"
#include "tests/fault_injection.h"
#include "workloads/linear_road.h"

namespace caesar {
namespace {

struct Sample {
  double seconds = 0.0;
  RunStats stats;
};

Sample Replay(const ExecutablePlan& plan, const EventBatch& stream,
              IngestPolicy policy, Timestamp slack,
              StatisticsReport* report_out) {
  EngineOptions options;
  options.ingest_policy = policy;
  options.reorder_slack = slack;
  if (report_out != nullptr) {
    options.gather_statistics = true;
    options.metrics = MetricsGranularity::kOperator;
  }
  Engine engine(plan, options);
  Stopwatch watch;
  Sample sample;
  auto run = engine.Run(stream);
  CAESAR_CHECK_OK(run.status());
  sample.stats = run.value();
  sample.seconds = watch.ElapsedSeconds();
  if (report_out != nullptr) *report_out = engine.CollectStatistics();
  return sample;
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  int segments = static_cast<int>(flags.Int("segments", 10));
  Timestamp duration = flags.Int("duration", 900);
  Timestamp max_delay = flags.Int("max_delay", 4);
  uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  std::string metrics_out = flags.Str("metrics-out", "");
  flags.Validate();
  bench::MetricsSink sink("bench_ingest_reorder", metrics_out);

  bench::Banner("Ingest policies: strict vs reorder (slack 0 and max_delay)",
                "graceful-degradation overhead of the admission watermark, "
                "the re-sequencing sort and the quarantine sink");

  LinearRoadConfig config;
  config.num_segments = segments;
  config.duration = duration;
  config.seed = seed;
  TypeRegistry registry;
  EventBatch pristine = GenerateLinearRoadStream(config, &registry);
  testing::FaultInjector injector(seed);
  EventBatch delayed = injector.DelayTicks(pristine, max_delay);
  auto model = MakeLinearRoadModel(LinearRoadModelConfig(), &registry);
  CAESAR_CHECK_OK(model.status());
  auto plan = TranslateModel(model.value(), PlanOptions());
  CAESAR_CHECK_OK(plan.status());

  struct Leg {
    const char* label;
    const EventBatch* stream;
    IngestPolicy policy;
    Timestamp slack;
  };
  const Leg legs[] = {
      {"strict/pristine", &pristine, IngestPolicy::kStrict, 0},
      {"reorder0/pristine", &pristine, IngestPolicy::kReorder, 0},
      {"reorder/pristine", &pristine, IngestPolicy::kReorder, max_delay},
      {"reorder0/delayed", &delayed, IngestPolicy::kReorder, 0},
      {"reorder/delayed", &delayed, IngestPolicy::kReorder, max_delay},
  };

  bench::Table table({"policy/stream", "events", "kev_s", "derived",
                      "reordered", "dropped", "quarantined"});
  for (const Leg& leg : legs) {
    StatisticsReport report;
    Sample sample = Replay(plan.value(), *leg.stream, leg.policy, leg.slack,
                           sink.enabled() ? &report : nullptr);
    sink.Add(leg.label, report);
    double kev_s = sample.seconds > 0.0
                       ? static_cast<double>(sample.stats.input_events) /
                             sample.seconds / 1e3
                       : 0.0;
    table.Row({leg.label, bench::FmtInt(sample.stats.input_events),
               bench::Fmt(kev_s, 1), bench::FmtInt(sample.stats.derived_events),
               bench::FmtInt(sample.stats.events_reordered),
               bench::FmtInt(sample.stats.events_dropped_late),
               bench::FmtInt(sample.stats.events_quarantined)});
  }
  sink.Write();
  return 0;
}

}  // namespace
}  // namespace caesar

int main(int argc, char** argv) { return caesar::Main(argc, argv); }
