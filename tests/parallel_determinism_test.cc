// Parallel determinism suite: for every workload generator (synthetic,
// Linear Road, PAMAP) the sharded executor must produce a byte-identical
// derived-event sequence — same events, same order — and equal semantic
// RunStats counters for num_threads in {2, 4, 8} vs the serial engine,
// with and without statistics gathering. Multi-tick batches (GC points
// inside a batch, partitions first seen mid-batch, a tick observer) must
// also equal one-tick-per-Run execution, including a skewed stream whose
// hot partition the pool claims first, out of key order. Runs under TSan
// in CI.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

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
      // The pool really ran: the whole stream is one Run, so one dispatch
      // with one task per partition.
      EXPECT_EQ(parallel.stats.parallel_ticks, 1);
      EXPECT_EQ(parallel.stats.parallel_tasks, parallel.stats.partitions);
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

// Splits a stream into Runs of `ticks_per_run` time stamps each.
std::vector<EventBatch> SplitByTicks(const EventBatch& stream,
                                     int ticks_per_run) {
  std::vector<EventBatch> batches;
  int distinct = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == 0 || stream[i]->time() != stream[i - 1]->time()) {
      if (distinct++ % ticks_per_run == 0) batches.emplace_back();
    }
    batches.back().push_back(stream[i]);
  }
  return batches;
}

// Drops the events of every partition whose last partition attribute is
// odd before `start`, so those partitions first appear at that tick.
EventBatch DelayOddPartitions(const ExecutablePlan& plan,
                              const EventBatch& stream,
                              const TypeRegistry& registry, Timestamp start) {
  EventBatch delayed;
  for (const EventPtr& event : stream) {
    const int index = registry.type(event->type_id())
                          .schema.IndexOf(plan.partition_by.back());
    if (event->time() < start && index >= 0 &&
        event->value(index).AsInt() % 2 != 0) {
      continue;
    }
    delayed.push_back(event);
  }
  return delayed;
}

// The partition attribute values of `event`, as the engine hashes them.
std::vector<uint64_t> PartitionOf(const ExecutablePlan& plan,
                                  const Event& event,
                                  const TypeRegistry& registry) {
  std::vector<uint64_t> key;
  for (const std::string& attr : plan.partition_by) {
    const int index = registry.type(event.type_id()).schema.IndexOf(attr);
    if (index >= 0) key.push_back(event.value(index).Hash());
  }
  return key;
}

constexpr Timestamp kGcInterval = 7;

// What a stream run in multi-tick batches produced: the derived stream,
// what the tick observer saw, and the deterministic JSON export.
struct BatchedRun {
  std::string derived;
  std::string observed;
  std::string json;
};

// Streams `stream` through one engine in Runs of `ticks_per_run` time
// stamps, at operator metrics with a small GC interval so GC points fall
// inside a batch. Checks the pool invariants of every Run: one dispatch,
// one task per partition with events in the batch — every partition when
// the batch holds a GC point.
BatchedRun RunInBatches(const ExecutablePlan& plan, const EventBatch& stream,
                        const TypeRegistry& registry, int num_threads,
                        int ticks_per_run) {
  EngineOptions options;
  options.num_threads = num_threads;
  options.gather_statistics = true;
  options.metrics = MetricsGranularity::kOperator;
  options.gc_interval = kGcInterval;
  options.gc_horizon = 30;
  Engine engine(plan.Clone(), options);
  std::ostringstream observed;
  engine.SetTickObserver([&](Timestamp t, const EventBatch& derived) {
    observed << t << ":";
    for (const EventPtr& event : derived) {
      observed << " " << event->ToString(registry);
    }
    observed << "\n";
  });
  EventBatch outputs;
  Timestamp last_gc = 0;
  int64_t dispatches = 0;
  for (const EventBatch& batch : SplitByTicks(stream, ticks_per_run)) {
    std::set<std::vector<uint64_t>> touched;
    bool gc_point = false;
    for (size_t i = 0; i < batch.size(); ++i) {
      touched.insert(PartitionOf(plan, *batch[i], registry));
      const Timestamp t = batch[i]->time();
      if ((i == 0 || t != batch[i - 1]->time()) && t - last_gc >= kGcInterval) {
        gc_point = true;
        last_gc = t;
      }
    }
    RunStats stats = engine.Run(batch, &outputs).value();
    dispatches += stats.parallel_ticks;
    // Every width, 1 included, runs the Run as one pool dispatch.
    EXPECT_EQ(stats.parallel_ticks, 1);
    EXPECT_EQ(stats.parallel_tasks,
              gc_point ? stats.partitions
                       : static_cast<int64_t>(touched.size()));
  }
  EXPECT_EQ(dispatches, static_cast<int64_t>(
                            SplitByTicks(stream, ticks_per_run).size()));
  BatchedRun result;
  std::ostringstream derived;
  for (const EventPtr& event : outputs) {
    derived << event->time() << " " << event->ToString(registry) << "\n";
  }
  result.derived = derived.str();
  result.observed = observed.str();
  ExportOptions export_options;
  export_options.deterministic = true;
  result.json = StatisticsToJson(engine.CollectStatistics(), export_options);
  return result;
}

// 10-tick Runs at 1/2/4/8 threads against one tick per Run, serially.
// Half of the partitions first appear at tick 25, inside a batch and
// after a GC point of that batch.
void ExpectBatchesMatchTicks(const ExecutablePlan& plan,
                             const EventBatch& stream,
                             const TypeRegistry& registry) {
  const EventBatch delayed = DelayOddPartitions(plan, stream, registry, 25);
  const BatchedRun ticks = RunInBatches(plan, delayed, registry, 1, 1);
  EXPECT_FALSE(ticks.derived.empty());
  EXPECT_EQ(ticks.json.find("\"gc_runs\":0,"), std::string::npos);
  for (int num_threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    const BatchedRun batched =
        RunInBatches(plan, delayed, registry, num_threads, 10);
    EXPECT_EQ(ticks.derived, batched.derived);
    EXPECT_EQ(ticks.observed, batched.observed);
    EXPECT_EQ(ticks.json, batched.json);
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

TEST(ParallelDeterminismTest, LinearRoadMultiTickBatches) {
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
  ExpectBatchesMatchTicks(Optimize(model.value()), stream, registry);
}

TEST(ParallelDeterminismTest, PamapMultiTickBatches) {
  PamapConfig config;
  config.num_subjects = 6;
  config.duration = 600;
  config.exercise_phases_per_subject = 2.0;
  config.exercise_duration = 150;
  config.seed = 3;
  TypeRegistry registry;
  EventBatch stream = GeneratePamapStream(config, &registry);
  auto model = MakePamapModel(PamapModelConfig(), &registry);
  CAESAR_CHECK_OK(model.status());
  ExpectBatchesMatchTicks(Optimize(model.value()), stream, registry);
}

TEST(ParallelDeterminismTest, SkewedPartitionClaimedFirst) {
  // The pool claims partition runs heaviest first, so a hot partition runs
  // out of key order. Give the partition with the largest key every one of
  // its events and keep only one tick in ten of the others: its run is
  // the heaviest of every batch and is claimed first, yet the merge must
  // still emit (tick, partition key) order at every width and batch split.
  LinearRoadConfig config;
  config.num_xways = 1;
  config.num_segments = 6;
  config.duration = 600;
  config.cars_per_segment = 8;
  config.seed = 11;
  TypeRegistry registry;
  EventBatch stream = GenerateLinearRoadStream(config, &registry);
  auto model = MakeLinearRoadModel(LinearRoadModelConfig(), &registry);
  CAESAR_CHECK_OK(model.status());
  ExecutablePlan plan = Optimize(model.value());

  // The engine key of every partition, from a throwaway engine fed one of
  // its events.
  std::map<std::vector<uint64_t>, uint64_t> key_of;
  for (const EventPtr& event : stream) {
    std::vector<uint64_t> partition = PartitionOf(plan, *event, registry);
    if (key_of.count(partition) != 0) continue;
    Engine probe(plan.Clone(), EngineOptions());
    ASSERT_TRUE(probe.Run({event}, nullptr).ok());
    ASSERT_EQ(probe.partition_keys().size(), 1u);
    key_of[partition] = probe.partition_keys()[0];
  }
  ASSERT_GE(key_of.size(), 4u);
  std::vector<uint64_t> hot;
  uint64_t hot_key = 0;
  for (const auto& [partition, key] : key_of) {
    if (hot.empty() || key > hot_key) {
      hot = partition;
      hot_key = key;
    }
  }

  EventBatch skewed;
  size_t hot_events = 0;
  for (const EventPtr& event : stream) {
    const bool is_hot = PartitionOf(plan, *event, registry) == hot;
    if (!is_hot && event->time() % 10 != 0) continue;
    hot_events += is_hot ? 1 : 0;
    skewed.push_back(event);
  }
  ASSERT_GE(hot_events * 10, skewed.size() * 3)
      << hot_events << " of " << skewed.size() << " events";

  const BatchedRun reference = RunInBatches(plan, skewed, registry, 1, 1);
  EXPECT_FALSE(reference.derived.empty());
  for (int ticks_per_run : {1, 3, 10, static_cast<int>(config.duration)}) {
    for (int num_threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("ticks_per_run=" + std::to_string(ticks_per_run) +
                   " threads=" + std::to_string(num_threads));
      const BatchedRun run =
          RunInBatches(plan, skewed, registry, num_threads, ticks_per_run);
      EXPECT_EQ(reference.derived, run.derived);
      EXPECT_EQ(reference.observed, run.observed);
      EXPECT_EQ(reference.json, run.json);
    }
  }
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
