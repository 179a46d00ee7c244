// Ablation: context-window position in the query chains (Theorem 1
// empirically). Position 0 is full push-down (Fig. 6b); higher positions
// slide the context window up the chain towards the Fig. 6a shape. Work
// and CPU must be monotone non-decreasing in the position; derived events
// must not change.

#include <cstdio>

#include "bench_util.h"
#include "harness.h"
#include "plan/translator.h"
#include "workloads/linear_road.h"

namespace caesar {
namespace {

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  int segments = static_cast<int>(flags.Int("segments", 10));
  Timestamp duration = flags.Int("duration", 900);
  int replicas = static_cast<int>(flags.Int("replicas", 3));
  uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  std::string metrics_out = flags.Str("metrics-out", "");
  flags.Validate();
  bench::MetricsSink sink("bench_ablation_pushdown", metrics_out);

  bench::Banner("Ablation: context window push-down position",
                "Theorem 1: expected cost is minimal with the context "
                "window at the bottom of the chain");

  LinearRoadConfig config;
  config.num_segments = segments;
  config.duration = duration;
  config.seed = seed;
  TypeRegistry registry;
  EventBatch stream = GenerateLinearRoadStream(config, &registry);
  LinearRoadModelConfig model_config;
  model_config.processing_replicas = replicas;
  auto model = MakeLinearRoadModel(model_config, &registry);
  CAESAR_CHECK_OK(model.status());

  bench::Table table(
      {"cw_position", "ops", "cpu_s", "derived", "suspended"});
  for (int position = 0; position <= 3; ++position) {
    PlanOptions options;
    options.force_cw_position = position;
    options.push_predicates_into_pattern = false;
    auto plan = TranslateModel(model.value(), options);
    CAESAR_CHECK_OK(plan.status());
    EngineOptions engine_options;
    if (sink.enabled()) {
      engine_options.gather_statistics = true;
      engine_options.metrics = MetricsGranularity::kOperator;
    }
    Engine engine(std::move(plan).value(), engine_options);
    RunStats stats = engine.Run(stream).value();
    if (sink.enabled()) {
      sink.Add("cw_position=" + std::to_string(position),
               engine.CollectStatistics());
    }
    table.Row({bench::FmtInt(position),
               bench::FmtInt(static_cast<int64_t>(stats.ops_executed)),
               bench::Fmt(stats.cpu_seconds, 4),
               bench::FmtInt(stats.derived_events),
               bench::FmtInt(stats.suspended_chains)});
  }
  sink.Write();
  return 0;
}

}  // namespace
}  // namespace caesar

int main(int argc, char** argv) { return caesar::Main(argc, argv); }
