// Unit tests of the observability layer (runtime/observability.h): the
// power-of-2 histogram, the timeline ring buffer, the trace recorder, the
// engine's transaction counters, and the two snapshot exporters. The
// exporter format is pinned by golden files under tests/golden/
// (regenerate with CAESAR_REGEN_GOLDEN=1), and the deterministic export
// form is asserted byte-identical for 1/2/4/8 worker threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "event/event.h"
#include "event/schema.h"
#include "query/parser.h"
#include "plan/translator.h"
#include "runtime/engine.h"
#include "runtime/observability.h"
#include "runtime/statistics.h"

namespace caesar {
namespace {

// ---------------------------------------------------------------------------
// Pow2Histogram
// ---------------------------------------------------------------------------

TEST(Pow2HistogramTest, BucketLayout) {
  EXPECT_EQ(Pow2Histogram::BucketOf(0), 0);
  EXPECT_EQ(Pow2Histogram::BucketOf(1), 1);
  EXPECT_EQ(Pow2Histogram::BucketOf(2), 2);
  EXPECT_EQ(Pow2Histogram::BucketOf(3), 2);
  EXPECT_EQ(Pow2Histogram::BucketOf(4), 3);
  EXPECT_EQ(Pow2Histogram::BucketOf(7), 3);
  EXPECT_EQ(Pow2Histogram::BucketOf(8), 4);
  EXPECT_EQ(Pow2Histogram::BucketOf(std::numeric_limits<uint64_t>::max()),
            64);
  for (int i = 0; i < Pow2Histogram::kNumBuckets; ++i) {
    // Every bucket's bounds round-trip through BucketOf.
    EXPECT_EQ(Pow2Histogram::BucketOf(Pow2Histogram::BucketLowerBound(i)), i);
    EXPECT_EQ(Pow2Histogram::BucketOf(Pow2Histogram::BucketUpperBound(i)), i);
  }
  EXPECT_EQ(Pow2Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Pow2Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Pow2Histogram::BucketLowerBound(4), 8u);
  EXPECT_EQ(Pow2Histogram::BucketUpperBound(4), 15u);
  EXPECT_EQ(Pow2Histogram::BucketUpperBound(64),
            std::numeric_limits<uint64_t>::max());
}

TEST(Pow2HistogramTest, AddTracksCountSumMaxMean) {
  Pow2Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  for (uint64_t v : {0, 1, 1, 3, 8, 100}) h.Add(v);
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.sum(), 113u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 113.0 / 6.0);
  EXPECT_EQ(h.bucket(0), 1);  // {0}
  EXPECT_EQ(h.bucket(1), 2);  // {1}
  EXPECT_EQ(h.bucket(2), 1);  // [2,4)
  EXPECT_EQ(h.bucket(4), 1);  // [8,16)
  EXPECT_EQ(h.bucket(7), 1);  // [64,128)
}

TEST(Pow2HistogramTest, QuantileWalksBuckets) {
  Pow2Histogram h;
  for (int i = 0; i < 50; ++i) h.Add(0);
  for (int i = 0; i < 50; ++i) h.Add(10);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(0.25), 0u);
  // The 75th percentile falls in [8,16); the quantile reports the bucket
  // upper bound clamped to the observed max.
  EXPECT_EQ(h.Quantile(0.75), 10u);
  EXPECT_EQ(h.Quantile(1.0), 10u);
  Pow2Histogram empty;
  EXPECT_EQ(empty.Quantile(0.5), 0u);
}

TEST(Pow2HistogramTest, MergeIsIndexWise) {
  Pow2Histogram a, b;
  a.Add(1);
  a.Add(5);
  b.Add(5);
  b.Add(300);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4);
  EXPECT_EQ(a.sum(), 311u);
  EXPECT_EQ(a.max(), 300u);
  EXPECT_EQ(a.bucket(1), 1);
  EXPECT_EQ(a.bucket(3), 2);  // two 5s
  EXPECT_EQ(a.bucket(9), 1);  // [256,512)
}

TEST(Pow2HistogramTest, ToStringIsSparse) {
  Pow2Histogram h;
  h.Add(0);
  h.Add(3);
  std::string s = h.ToString();
  EXPECT_NE(s.find("count=2"), std::string::npos) << s;
  EXPECT_NE(s.find("max=3"), std::string::npos) << s;
  EXPECT_NE(s.find("0=1"), std::string::npos) << s;
  EXPECT_NE(s.find("[2,4)=1"), std::string::npos) << s;
  // Empty buckets stay out of the rendering.
  EXPECT_EQ(s.find("[4,8)"), std::string::npos) << s;
}

// ---------------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------------

TimelinePoint PointAt(Timestamp t) {
  TimelinePoint point;
  point.time = t;
  return point;
}

TEST(TimelineTest, RingKeepsMostRecentOldestFirst) {
  Timeline timeline(3);
  for (Timestamp t = 0; t < 5; ++t) timeline.Push(PointAt(t));
  EXPECT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline.total_pushed(), 5);
  EXPECT_EQ(timeline.dropped(), 2);
  std::vector<TimelinePoint> points = timeline.Snapshot();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].time, 2);
  EXPECT_EQ(points[1].time, 3);
  EXPECT_EQ(points[2].time, 4);
}

TEST(TimelineTest, PartialFill) {
  Timeline timeline(8);
  timeline.Push(PointAt(42));
  EXPECT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline.dropped(), 0);
  ASSERT_EQ(timeline.Snapshot().size(), 1u);
  EXPECT_EQ(timeline.Snapshot()[0].time, 42);
}

TEST(TimelinePointTest, ActivityFraction) {
  TimelinePoint point;
  EXPECT_DOUBLE_EQ(point.activity(), 1.0);  // idle tick counts as active
  point.executed_chains = 1;
  point.suspended_chains = 3;
  EXPECT_DOUBLE_EQ(point.activity(), 0.25);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, RecordsSpansAndRendersChromeFormat) {
  TraceRecorder recorder;
  recorder.Record("alpha", 10, 5);
  recorder.Record("be\"ta", 20, 1);  // name is escaped in the JSON
  EXPECT_EQ(recorder.size(), 2u);
  std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"be\\\"ta\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":5"), std::string::npos) << json;
}

TEST(TraceRecorderTest, SpansReportIntoCurrentScope) {
  TraceRecorder recorder;
  EXPECT_EQ(TraceRecorder::Current(), nullptr);
  {
    TraceScope scope(&recorder);
    EXPECT_EQ(TraceRecorder::Current(), &recorder);
    CAESAR_TRACE_SPAN("scoped");
  }
  EXPECT_EQ(TraceRecorder::Current(), nullptr);
  EXPECT_EQ(recorder.size(), 1u);
  EXPECT_NE(recorder.ToJson().find("\"name\":\"scoped\""), std::string::npos);
  // Spans opened with no recorder installed go nowhere (and don't crash).
  CAESAR_TRACE_SPAN("orphan");
}

TEST(TraceRecorderTest, WriteJsonRejectsBadPath) {
  TraceRecorder recorder;
  EXPECT_FALSE(recorder.WriteJson("/nonexistent-dir/trace.json").ok());
}

// ---------------------------------------------------------------------------
// Granularity names
// ---------------------------------------------------------------------------

TEST(MetricsGranularityTest, NamesRoundTrip) {
  for (MetricsGranularity g :
       {MetricsGranularity::kOff, MetricsGranularity::kEngine,
        MetricsGranularity::kOperator}) {
    MetricsGranularity parsed;
    ASSERT_TRUE(ParseMetricsGranularity(MetricsGranularityName(g), &parsed));
    EXPECT_EQ(parsed, g);
  }
  MetricsGranularity parsed;
  EXPECT_FALSE(ParseMetricsGranularity("bogus", &parsed));
}

// ---------------------------------------------------------------------------
// Exporters: golden files and cross-thread determinism
// ---------------------------------------------------------------------------

// A small deterministic workload: two temperature sensors (partitions)
// driving a context switch and an alert query. No RNG, no wall-clock
// dependence in the deterministic export.
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

StatisticsReport RunFixture(
    int num_threads, const std::string& tenant = "",
    MetricsGranularity granularity = MetricsGranularity::kOperator) {
  TypeRegistry registry;
  TypeId temperature =
      registry.RegisterOrGet("Temperature", {{"sensor", ValueType::kInt},
                                             {"celsius", ValueType::kDouble},
                                             {"sec", ValueType::kInt}});
  auto model = ParseModel(kModel, &registry);
  CAESAR_CHECK_OK(model.status());
  auto plan = TranslateModel(model.value(), PlanOptions());
  CAESAR_CHECK_OK(plan.status());

  EngineOptions options;
  options.num_threads = num_threads;
  options.gather_statistics = true;
  options.metrics = granularity;
  options.tenant = tenant;
  Engine engine(std::move(plan).value(), options);

  const double readings[] = {70, 80, 93, 97, 99, 85, 70, 65, 98, 72};
  EventBatch input;
  for (int64_t sensor = 1; sensor <= 2; ++sensor) {
    for (int t = 0; t < 10; ++t) {
      input.push_back(MakeEvent(
          temperature, t,
          {Value(sensor), Value(readings[t] + static_cast<double>(sensor)),
           Value(int64_t{t})}));
    }
  }
  std::sort(input.begin(), input.end(),
            [](const EventPtr& a, const EventPtr& b) {
              return a->time() < b->time();
            });
  engine.Run(input).value();
  return engine.CollectStatistics();
}

std::string GoldenPath(const std::string& name) {
  return std::string(CAESAR_TEST_SRCDIR) + "/golden/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with CAESAR_REGEN_GOLDEN=1)";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("CAESAR_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  EXPECT_EQ(ReadFileOrDie(path), actual)
      << "export format drifted from " << path
      << "; regenerate with CAESAR_REGEN_GOLDEN=1 if intended";
}

TEST(ExportGoldenTest, DeterministicJsonMatchesGoldenFile) {
  ExportOptions options;
  options.deterministic = true;
  CheckGolden("observability_metrics.json",
              StatisticsToJson(RunFixture(/*num_threads=*/1), options));
}

TEST(ExportGoldenTest, DeterministicPrometheusMatchesGoldenFile) {
  ExportOptions options;
  options.deterministic = true;
  CheckGolden("observability_metrics.prom",
              StatisticsToPrometheus(RunFixture(/*num_threads=*/1), options));
}

// The caesard tenant configuration: kEngine with gather_statistics, whose
// operator rows carry counters but no histograms.
TEST(ExportGoldenTest, EngineGranularityJsonMatchesGoldenFile) {
  ExportOptions options;
  options.deterministic = true;
  CheckGolden("observability_metrics_engine.json",
              StatisticsToJson(RunFixture(1, "", MetricsGranularity::kEngine),
                               options));
}

TEST(ExportGoldenTest, EngineGranularityPrometheusMatchesGoldenFile) {
  ExportOptions options;
  options.deterministic = true;
  CheckGolden(
      "observability_metrics_engine.prom",
      StatisticsToPrometheus(RunFixture(1, "", MetricsGranularity::kEngine),
                             options));
}

TEST(ExportDeterminismTest, JsonAndPrometheusByteIdenticalAcrossThreads) {
  for (MetricsGranularity granularity :
       {MetricsGranularity::kOperator, MetricsGranularity::kEngine}) {
    SCOPED_TRACE(MetricsGranularityName(granularity));
    ExportOptions options;
    options.deterministic = true;
    StatisticsReport serial = RunFixture(1, "", granularity);
    const std::string json = StatisticsToJson(serial, options);
    const std::string prom = StatisticsToPrometheus(serial, options);
    EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
    for (int num_threads : {2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(num_threads));
      StatisticsReport parallel = RunFixture(num_threads, "", granularity);
      EXPECT_EQ(json, StatisticsToJson(parallel, options));
      EXPECT_EQ(prom, StatisticsToPrometheus(parallel, options));
    }
  }
}

TEST(ExportDeterminismTest, FullExportCarriesTimingAndExecutorSections) {
  // The non-deterministic (default) form keeps what the deterministic form
  // drops: wall-clock stats and, for parallel runs, the executor section
  // and per-worker counter breakdowns.
  StatisticsReport report = RunFixture(4);
  std::string json = StatisticsToJson(report);
  EXPECT_NE(json.find("scheduler_seconds"), std::string::npos);
  EXPECT_NE(json.find("wal_wait_seconds"), std::string::npos);
  EXPECT_NE(json.find("\"executor\""), std::string::npos);
  EXPECT_NE(json.find("per_shard"), std::string::npos);
  EXPECT_NE(StatisticsToPrometheus(report).find("caesar_wal_wait_seconds_sum"),
            std::string::npos);

  ExportOptions det;
  det.deterministic = true;
  std::string deterministic = StatisticsToJson(report, det);
  EXPECT_EQ(deterministic.find("scheduler_seconds"), std::string::npos);
  EXPECT_EQ(deterministic.find("wal_wait_seconds"), std::string::npos);
  EXPECT_EQ(deterministic.find("\"executor\""), std::string::npos);
  EXPECT_EQ(deterministic.find("per_shard"), std::string::npos);
  EXPECT_EQ(StatisticsToPrometheus(report, det).find("wal_wait"),
            std::string::npos);
}

TEST(TransactionCountersTest, CountersAreTheHistogramTotalsPerWorker) {
  // The three counters are the count and sums of the two histograms, in
  // name order, with one per_shard entry per executing worker.
  StatisticsReport report = RunFixture(4);
  ASSERT_EQ(report.counters.size(), 3u);
  ASSERT_EQ(report.histograms.size(), 2u);
  EXPECT_EQ(report.counters[0].name, "transaction_derived_events");
  EXPECT_EQ(report.counters[1].name, "transaction_input_events");
  EXPECT_EQ(report.counters[2].name, "transactions");
  EXPECT_EQ(report.histograms[0].name, "transaction_derived");
  EXPECT_EQ(report.histograms[1].name, "transaction_events");
  const Pow2Histogram& derived = report.histograms[0].merged;
  const Pow2Histogram& events = report.histograms[1].merged;
  EXPECT_EQ(report.counters[0].total, static_cast<int64_t>(derived.sum()));
  EXPECT_EQ(report.counters[1].total, static_cast<int64_t>(events.sum()));
  EXPECT_EQ(report.counters[2].total, events.count());
  EXPECT_EQ(events.sum(), 20u);  // every reading is one transaction input
  for (const CounterSnapshot& counter : report.counters) {
    SCOPED_TRACE(counter.name);
    EXPECT_EQ(counter.per_shard.size(), 4u);
    int64_t sum = 0;
    for (int64_t value : counter.per_shard) sum += value;
    EXPECT_EQ(sum, counter.total);
  }
}

TEST(TenantLabelTest, EmptyTenantLeavesExportsUntouched) {
  // Library use (no tenant) must emit exactly the pre-tenant byte stream —
  // the golden tests above pin this, but assert the mechanism directly.
  ExportOptions options;
  options.deterministic = true;
  StatisticsReport report = RunFixture(1);
  EXPECT_EQ(report.tenant, "");
  EXPECT_EQ(StatisticsToJson(report, options).find("tenant"),
            std::string::npos);
  EXPECT_EQ(StatisticsToPrometheus(report, options).find("tenant"),
            std::string::npos);
}

TEST(TenantLabelTest, TenantFlowsFromEngineOptionsToEverySeries) {
  ExportOptions options;
  options.deterministic = true;
  StatisticsReport report = RunFixture(1, "acme-7");
  EXPECT_EQ(report.tenant, "acme-7");

  const std::string json = StatisticsToJson(report, options);
  EXPECT_NE(json.find("\"tenant\":\"acme-7\""), std::string::npos) << json;

  // Prometheus: every sample line (not comments, not blanks) carries the
  // tenant label — per-tenant series must never collide across tenants.
  const std::string prom = StatisticsToPrometheus(report, options);
  size_t samples = 0;
  size_t start = 0;
  while (start < prom.size()) {
    size_t end = prom.find('\n', start);
    if (end == std::string::npos) end = prom.size();
    std::string line = prom.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    ++samples;
    EXPECT_NE(line.find("tenant=\"acme-7\""), std::string::npos) << line;
  }
  EXPECT_GT(samples, 0u);
}

TEST(TenantLabelTest, ApartFromTheLabelExportsMatchTenantless) {
  // The tenant dimension is purely additive: strip the label text and the
  // tenant export is byte-identical to the library export.
  ExportOptions options;
  options.deterministic = true;
  const std::string bare = StatisticsToJson(RunFixture(1), options);
  std::string labeled = StatisticsToJson(RunFixture(1, "acme-7"), options);
  const std::string field = "\"tenant\":\"acme-7\",";
  size_t at = labeled.find(field);
  ASSERT_NE(at, std::string::npos);
  labeled.erase(at, field.size());
  EXPECT_EQ(labeled, bare);
}

TEST(ExportDeterminismTest, ReportToStringMentionsTelemetry) {
  StatisticsReport report = RunFixture(1);
  std::string text = report.ToString();
  EXPECT_NE(text.find("ticks:"), std::string::npos) << text;
  EXPECT_NE(text.find("timeline:"), std::string::npos) << text;
  EXPECT_NE(text.find("counter transactions"), std::string::npos) << text;
  EXPECT_NE(text.find("work/invocation"), std::string::npos) << text;
}

}  // namespace
}  // namespace caesar
