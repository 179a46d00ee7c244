// Metrics export: turning on the observability layer.
//
// Runs the quickstart temperature model with operator-level metrics,
// engine tracing, and statistics gathering enabled, then exports the
// collected StatisticsReport three ways:
//   - human-readable text (StatisticsReport::ToString) to stdout,
//   - JSON (StatisticsToJson) to metrics.json,
//   - Prometheus text exposition (StatisticsToPrometheus) to metrics.prom.
// It also writes the Chrome trace (chrome://tracing or Perfetto) that
// EngineOptions::tracing records to trace.json.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/metrics_export
//   less metrics.json metrics.prom trace.json

#include <cstdio>
#include <fstream>

#include "event/event.h"
#include "event/schema.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "runtime/engine.h"
#include "runtime/observability.h"
#include "runtime/statistics.h"

namespace {

constexpr char kModel[] = R"(
CONTEXTS normal, overheated DEFAULT normal;
PARTITION BY sensor;

QUERY detect_overheat
SWITCH CONTEXT overheated
PATTERN Temperature t
WHERE t.celsius > 90
CONTEXT normal;

QUERY detect_cooldown
SWITCH CONTEXT normal
PATTERN Temperature t
WHERE t.celsius <= 75
CONTEXT overheated;

QUERY alert
DERIVE OverheatAlert(t.sensor AS sensor, t.celsius AS celsius, t.sec AS sec)
PATTERN Temperature t
WHERE t.celsius > 95
CONTEXT overheated;
)";

bool WriteFile(const char* path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out.good()) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return false;
  }
  std::printf("wrote %s (%zu bytes)\n", path, content.size());
  return true;
}

}  // namespace

int main() {
  using namespace caesar;

  TypeRegistry registry;
  TypeId temperature =
      registry.RegisterOrGet("Temperature", {{"sensor", ValueType::kInt},
                                             {"celsius", ValueType::kDouble},
                                             {"sec", ValueType::kInt}});

  Result<CaesarModel> model = ParseModel(kModel, &registry);
  if (!model.ok()) {
    std::fprintf(stderr, "model error: %s\n", model.status().ToString().c_str());
    return 1;
  }
  Result<ExecutablePlan> plan = OptimizeModel(model.value(), OptimizerOptions());
  if (!plan.ok()) {
    std::fprintf(stderr, "plan error: %s\n", plan.status().ToString().c_str());
    return 1;
  }

  // The observability knobs: metrics granularity, per-run statistics, and
  // trace-span recording. kOperator implies the engine-level instruments
  // plus per-operator batch/selectivity/work histograms.
  EngineOptions options;
  options.gather_statistics = true;
  options.metrics = MetricsGranularity::kOperator;
  options.tracing = true;

  EventBatch input;
  const double readings[] = {70, 80, 93, 97, 99, 85, 70, 65, 98, 72};
  for (int t = 0; t < 10; ++t) {
    input.push_back(MakeEvent(
        temperature, t,
        {Value(int64_t{1}), Value(readings[t]), Value(int64_t{t})}));
  }

  Engine engine(std::move(plan).value(), options);
  RunStats stats = engine.Run(input).value();
  std::printf("run: %s\n\n", stats.ToString().c_str());
  StatisticsReport report = engine.CollectStatistics();
  Status trace_written = engine.trace()->WriteJson("trace.json");
  if (!trace_written.ok()) {
    std::fprintf(stderr, "trace error: %s\n",
                 trace_written.ToString().c_str());
    return 1;
  }

  // 1. Human-readable report.
  std::printf("%s\n", report.ToString().c_str());

  // 2. JSON, in deterministic form (wall-clock fields and per-worker
  //    breakdowns omitted, so the bytes don't depend on timing or thread
  //    count — the form the golden tests pin down).
  ExportOptions deterministic;
  deterministic.deterministic = true;
  if (!WriteFile("metrics.json", StatisticsToJson(report, deterministic))) {
    return 1;
  }

  // 3. Prometheus text exposition, full form — what a /metrics scrape
  //    endpoint would serve.
  if (!WriteFile("metrics.prom", StatisticsToPrometheus(report))) return 1;
  return 0;
}
