// Parallel determinism suite: for every workload generator (synthetic,
// Linear Road, PAMAP) the sharded executor must produce a byte-identical
// derived-event sequence — same events, same order — and equal semantic
// RunStats counters for num_threads in {2, 4, 8} vs the serial engine,
// with and without statistics gathering. Runs under TSan in CI.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "optimizer/optimizer.h"
#include "oracle/differential.h"
#include "oracle/oracle.h"
#include "plan/translator.h"
#include "runtime/engine.h"
#include "runtime/observability.h"
#include "runtime/statistics.h"
#include "workloads/linear_road.h"
#include "workloads/pamap.h"
#include "workloads/synthetic.h"

namespace caesar {
namespace {

struct RunResult {
  std::string derived;     // ToString of every output event, in order
  RunStats stats;
  std::string statistics;  // operator rows (executor line stripped)
  std::string json;        // deterministic JSON export (byte-comparable)
};

// Drops report lines that legitimately differ between serial and parallel
// runs (the executor snapshot and the wall-clock timing line of the tick
// telemetry).
std::string StripExecutorLines(const std::string& report) {
  std::istringstream in(report);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("executor:", 0) == 0) continue;
    if (line.find("scheduler_s ") != std::string::npos) continue;
    out << line << "\n";
  }
  return out.str();
}

RunResult RunWith(const ExecutablePlan& plan, const EventBatch& stream,
                  const TypeRegistry& registry, int num_threads,
                  bool gather_statistics) {
  EngineOptions options;
  options.num_threads = num_threads;
  options.gather_statistics = gather_statistics;
  if (gather_statistics) options.metrics = MetricsGranularity::kOperator;
  Engine engine(plan.Clone(), options);
  EventBatch outputs;
  RunResult result;
  result.stats = engine.Run(stream, &outputs).value();
  std::ostringstream os;
  for (const EventPtr& event : outputs) {
    os << event->time() << " " << event->ToString(registry) << "\n";
  }
  result.derived = os.str();
  if (gather_statistics) {
    StatisticsReport report = engine.CollectStatistics();
    result.statistics = StripExecutorLines(report.ToString());
    ExportOptions export_options;
    export_options.deterministic = true;
    result.json = StatisticsToJson(report, export_options);
  }
  return result;
}

// The semantic counters that must not depend on the thread count. Timing
// fields (latency, cpu_seconds, barrier wait) are excluded by design.
void ExpectEqualCounters(const RunStats& serial, const RunStats& parallel,
                         int num_threads) {
  EXPECT_EQ(serial.input_events, parallel.input_events) << num_threads;
  EXPECT_EQ(serial.derived_events, parallel.derived_events) << num_threads;
  EXPECT_EQ(serial.derived_by_type, parallel.derived_by_type) << num_threads;
  EXPECT_EQ(serial.ops_executed, parallel.ops_executed) << num_threads;
  EXPECT_EQ(serial.suspended_chains, parallel.suspended_chains)
      << num_threads;
  EXPECT_EQ(serial.executed_chains, parallel.executed_chains) << num_threads;
  EXPECT_EQ(serial.transactions, parallel.transactions) << num_threads;
  EXPECT_EQ(serial.partitions, parallel.partitions) << num_threads;
}

void ExpectParallelMatchesSerial(const ExecutablePlan& plan,
                                 const EventBatch& stream,
                                 const TypeRegistry& registry) {
  ASSERT_FALSE(stream.empty());
  for (bool gather : {false, true}) {
    RunResult serial = RunWith(plan, stream, registry, 1, gather);
    // A meaningful check needs actual derived traffic.
    EXPECT_GT(serial.stats.derived_events, 0);
    EXPECT_GT(serial.stats.partitions, 1);
    for (int num_threads : {2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(num_threads) +
                   " gather=" + std::to_string(gather));
      RunResult parallel =
          RunWith(plan, stream, registry, num_threads, gather);
      EXPECT_EQ(serial.derived, parallel.derived);
      ExpectEqualCounters(serial.stats, parallel.stats, num_threads);
      EXPECT_EQ(serial.statistics, parallel.statistics);
      // The deterministic JSON export must be byte-identical, full stop —
      // histogram buckets, counter totals and timeline included.
      EXPECT_EQ(serial.json, parallel.json);
      // The pool really ran: every tick was dispatched through it.
      EXPECT_GT(parallel.stats.parallel_ticks, 0);
      EXPECT_EQ(parallel.stats.parallel_tasks, parallel.stats.transactions);
    }
  }
}

// The automaton matcher against the independent reference: at every
// thread count the derived stream equals the oracle's (per-tick multiset;
// oracle/differential.h), on top of the byte-identity to serial above.
void ExpectCompiledMatchesOracle(const CaesarModel& model,
                                 const ExecutablePlan& plan,
                                 const EventBatch& stream,
                                 const TypeRegistry& registry) {
  auto expected = RunReferenceModel(model, stream);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_GT(expected.value().size(), 0u);
  const TickCanon want = CanonicalByTick(expected.value(), registry);
  for (int num_threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    EngineOptions options;
    options.num_threads = num_threads;
    Engine engine(plan.Clone(), options);
    EventBatch outputs;
    ASSERT_TRUE(engine.Run(stream, &outputs).ok());
    EXPECT_TRUE(CanonicalByTick(outputs, registry) == want);
  }
}

ExecutablePlan Optimize(const CaesarModel& model) {
  auto plan = OptimizeModel(model, OptimizerOptions());
  CAESAR_CHECK_OK(plan.status());
  return std::move(plan).value();
}

TEST(ParallelDeterminismTest, SyntheticWorkload) {
  SyntheticConfig config;
  config.duration = 300;
  config.num_partitions = 8;
  config.events_per_tick = 2;
  config.windows = LayOutWindows(/*count=*/3, /*length=*/60, /*overlap=*/20,
                                 /*first_start=*/30);
  config.assignment = SyntheticConfig::QueryAssignment::kPerWindowCopies;
  config.queries_per_window = 2;
  TypeRegistry registry;
  EventBatch stream = GenerateSyntheticStream(config, &registry);
  auto model = MakeSyntheticModel(config, &registry);
  CAESAR_CHECK_OK(model.status());
  ExpectParallelMatchesSerial(Optimize(model.value()), stream, registry);
}

TEST(ParallelDeterminismTest, LinearRoadWorkload) {
  LinearRoadConfig config;
  config.num_xways = 2;
  config.num_segments = 6;
  config.duration = 300;
  config.seed = 7;
  LinearRoadModelConfig model_config;
  model_config.processing_replicas = 2;
  TypeRegistry registry;
  EventBatch stream = GenerateLinearRoadStream(config, &registry);
  auto model = MakeLinearRoadModel(model_config, &registry);
  CAESAR_CHECK_OK(model.status());
  ExpectParallelMatchesSerial(Optimize(model.value()), stream, registry);
}

TEST(ParallelDeterminismTest, LinearRoadContextIndependentBaseline) {
  // The baseline plan's private guard chains and per-query context vectors
  // must also be safe under the sharded pool.
  LinearRoadConfig config;
  config.num_xways = 1;
  config.num_segments = 6;
  config.duration = 240;
  config.seed = 11;
  TypeRegistry registry;
  EventBatch stream = GenerateLinearRoadStream(config, &registry);
  auto model = MakeLinearRoadModel(LinearRoadModelConfig(), &registry);
  CAESAR_CHECK_OK(model.status());
  auto plan = BaselinePlan(model.value());
  CAESAR_CHECK_OK(plan.status());
  ExpectParallelMatchesSerial(plan.value(), stream, registry);
}

TEST(ParallelDeterminismTest, PamapWorkload) {
  PamapConfig config;
  config.num_subjects = 6;
  config.duration = 1200;
  config.exercise_phases_per_subject = 2.0;
  config.exercise_duration = 300;
  config.seed = 3;
  TypeRegistry registry;
  EventBatch stream = GeneratePamapStream(config, &registry);
  auto model = MakePamapModel(PamapModelConfig(), &registry);
  CAESAR_CHECK_OK(model.status());
  ExpectParallelMatchesSerial(Optimize(model.value()), stream, registry);
}

TEST(ParallelDeterminismTest, SyntheticWorkloadCompiledEngine) {
  SyntheticConfig config;
  config.duration = 300;
  config.num_partitions = 8;
  config.events_per_tick = 2;
  config.windows = LayOutWindows(/*count=*/3, /*length=*/60, /*overlap=*/20,
                                 /*first_start=*/30);
  config.assignment = SyntheticConfig::QueryAssignment::kPerWindowCopies;
  config.queries_per_window = 2;
  TypeRegistry registry;
  EventBatch stream = GenerateSyntheticStream(config, &registry);
  auto model = MakeSyntheticModel(config, &registry);
  CAESAR_CHECK_OK(model.status());
  // With per-window query copies, window grouping evaluates identical
  // copies once where windows overlap (Listing 1's duplicate elimination)
  // while the oracle runs every copy, so the ungrouped translation is the
  // plan held to the oracle here.
  auto plan = TranslateModel(model.value(), PlanOptions());
  CAESAR_CHECK_OK(plan.status());
  ExpectCompiledMatchesOracle(model.value(), plan.value(), stream, registry);
}

TEST(ParallelDeterminismTest, LinearRoadWorkloadCompiledEngine) {
  LinearRoadConfig config;
  config.num_xways = 2;
  config.num_segments = 6;
  config.duration = 300;
  config.seed = 7;
  LinearRoadModelConfig model_config;
  model_config.processing_replicas = 2;
  TypeRegistry registry;
  EventBatch stream = GenerateLinearRoadStream(config, &registry);
  auto model = MakeLinearRoadModel(model_config, &registry);
  CAESAR_CHECK_OK(model.status());
  ExpectCompiledMatchesOracle(model.value(), Optimize(model.value()), stream,
                              registry);
}

TEST(ParallelDeterminismTest, PamapWorkloadCompiledEngine) {
  PamapConfig config;
  config.num_subjects = 6;
  config.duration = 1200;
  config.exercise_phases_per_subject = 2.0;
  config.exercise_duration = 300;
  config.seed = 3;
  TypeRegistry registry;
  EventBatch stream = GeneratePamapStream(config, &registry);
  auto model = MakePamapModel(PamapModelConfig(), &registry);
  CAESAR_CHECK_OK(model.status());
  ExpectCompiledMatchesOracle(model.value(), Optimize(model.value()), stream,
                              registry);
}

TEST(ParallelDeterminismTest, SplitRunsMatchSingleRun) {
  // Engine state (contexts, partial matches, the worker pool) carries over
  // between Run calls; processing a stream in two halves through one
  // parallel engine must equal one uninterrupted run.
  LinearRoadConfig config;
  config.num_xways = 1;
  config.num_segments = 8;
  config.duration = 240;
  config.seed = 19;
  TypeRegistry registry;
  EventBatch stream = GenerateLinearRoadStream(config, &registry);
  auto model = MakeLinearRoadModel(LinearRoadModelConfig(), &registry);
  CAESAR_CHECK_OK(model.status());
  ExecutablePlan plan = Optimize(model.value());

  auto render = [&](const EventBatch& events) {
    std::ostringstream os;
    for (const EventPtr& event : events) {
      os << event->time() << " " << event->ToString(registry) << "\n";
    }
    return os.str();
  };

  EngineOptions options;
  options.num_threads = 4;
  Engine whole(plan.Clone(), options);
  EventBatch whole_out;
  whole.Run(stream, &whole_out).value();

  // Split at a tick boundary.
  size_t split = stream.size() / 2;
  Timestamp boundary = stream[split]->time();
  while (split > 0 && stream[split - 1]->time() == boundary) --split;
  Engine halves(plan.Clone(), options);
  EventBatch halves_out;
  halves.Run(EventBatch(stream.begin(), stream.begin() + split), &halves_out).value();
  halves.Run(EventBatch(stream.begin() + split, stream.end()), &halves_out).value();

  EXPECT_GT(whole_out.size(), 0u);
  EXPECT_EQ(render(whole_out), render(halves_out));
}

TEST(ParallelDeterminismTest, DurabilityKeepsExportsByteIdentical) {
  // Durability runs on the scheduler thread, so the WAL/checkpoint record
  // streams — and with them the durability counters in the deterministic
  // exports — must not depend on the worker count: byte-identical derived
  // output AND byte-identical deterministic JSON (durability block
  // included) for 1/2/4/8 threads, each engine logging to its own
  // directory.
  SyntheticConfig config;
  config.duration = 300;
  config.num_partitions = 8;
  config.events_per_tick = 2;
  config.windows = LayOutWindows(/*count=*/3, /*length=*/60, /*overlap=*/20,
                                 /*first_start=*/30);
  config.assignment = SyntheticConfig::QueryAssignment::kPerWindowCopies;
  config.queries_per_window = 2;
  TypeRegistry registry;
  EventBatch stream = GenerateSyntheticStream(config, &registry);
  auto model = MakeSyntheticModel(config, &registry);
  CAESAR_CHECK_OK(model.status());
  ExecutablePlan plan = Optimize(model.value());

  auto run_with = [&](int num_threads, std::string* json) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("caesar_determinism_durability_" + std::to_string(::getpid()) +
         "_t" + std::to_string(num_threads));
    std::filesystem::remove_all(dir);
    EngineOptions options;
    options.num_threads = num_threads;
    options.gather_statistics = true;
    options.durability.mode = DurabilityMode::kWalCheckpoint;
    options.durability.dir = dir.string();
    options.durability.checkpoint_interval_ticks = 64;
    Engine engine(plan.Clone(), options);
    EventBatch outputs;
    RunStats stats = engine.Run(stream, &outputs).value();
    EXPECT_GT(stats.wal_records, 0) << num_threads;
    EXPECT_GT(stats.checkpoints_written, 0) << num_threads;
    ExportOptions export_options;
    export_options.deterministic = true;
    *json = StatisticsToJson(engine.CollectStatistics(), export_options);
    std::ostringstream os;
    for (const EventPtr& event : outputs) {
      os << event->time() << " " << event->ToString(registry) << "\n";
    }
    std::filesystem::remove_all(dir);
    return os.str();
  };

  std::string serial_json;
  const std::string serial = run_with(1, &serial_json);
  EXPECT_NE(serial_json.find("\"durability\""), std::string::npos);
  for (int num_threads : {2, 4, 8}) {
    std::string json;
    const std::string derived = run_with(num_threads, &json);
    EXPECT_EQ(serial, derived) << num_threads << " threads";
    EXPECT_EQ(serial_json, json) << num_threads << " threads";
  }
}

}  // namespace
}  // namespace caesar
