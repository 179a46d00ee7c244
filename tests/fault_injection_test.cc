// Graceful-degradation suite: seeded fault injection against every workload
// generator (synthetic, Linear Road, PAMAP). The headline property: a
// stream perturbed by bounded per-tick delay, replayed under
// IngestPolicy::kReorder with reorder_slack >= the injected delay, derives
// a byte-identical output sequence to the pristine stream under kStrict —
// at 1, 2, 4 and 8 worker threads. Drop (slack 0) and quarantine behavior
// is deterministic: counters match a replicated reference computation and
// are identical across thread counts.

#include "fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "optimizer/optimizer.h"
#include "runtime/engine.h"
#include "workloads/linear_road.h"
#include "workloads/pamap.h"
#include "workloads/synthetic.h"

namespace caesar {
namespace {

using testing::FaultInjector;

constexpr Timestamp kMaxDelay = 4;
constexpr uint64_t kSeed = 0xCAE5A;

struct RunResult {
  std::string derived;
  RunStats stats;
};

std::string Render(const EventBatch& events, const TypeRegistry& registry) {
  std::ostringstream os;
  for (const EventPtr& event : events) {
    os << event->time() << " " << event->ToString(registry) << "\n";
  }
  return os.str();
}

// Runs a fresh engine over `stream`; hands the engine to the caller via
// `keep` when its quarantine/ingest state is part of the assertions.
RunResult RunWith(const ExecutablePlan& plan, const EventBatch& stream,
                  const TypeRegistry& registry, const EngineOptions& options,
                  std::unique_ptr<Engine>* keep = nullptr) {
  auto engine = std::make_unique<Engine>(plan.Clone(), options);
  EventBatch outputs;
  RunResult result;
  result.stats = engine->Run(stream, &outputs).value();
  result.derived = Render(outputs, registry);
  if (keep != nullptr) *keep = std::move(engine);
  return result;
}

// The semantic counters that must not depend on the thread count or on how
// the stream was perturbed-and-repaired. Timing fields are excluded.
void ExpectEqualCounters(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.derived_events, b.derived_events);
  EXPECT_EQ(a.derived_by_type, b.derived_by_type);
  EXPECT_EQ(a.ops_executed, b.ops_executed);
  EXPECT_EQ(a.suspended_chains, b.suspended_chains);
  EXPECT_EQ(a.executed_chains, b.executed_chains);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.partitions, b.partitions);
}

// Core property: bounded lateness + sufficient slack == lossless repair.
void ExpectReorderRestoresStrictOutput(const ExecutablePlan& plan,
                                       const EventBatch& pristine,
                                       const TypeRegistry& registry) {
  ASSERT_FALSE(pristine.empty());
  ASSERT_TRUE(IsTimeOrdered(pristine));

  FaultInjector injector(kSeed);
  EventBatch delayed = injector.DelayTicks(pristine, kMaxDelay);
  ASSERT_EQ(delayed.size(), pristine.size());
  ASSERT_FALSE(IsTimeOrdered(delayed));  // the injection really disordered

  RunResult baseline = RunWith(plan, pristine, registry, EngineOptions());
  EXPECT_GT(baseline.stats.derived_events, 0);

  for (int num_threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    EngineOptions options;
    options.num_threads = num_threads;
    options.ingest_policy = IngestPolicy::kReorder;
    options.reorder_slack = kMaxDelay;
    std::unique_ptr<Engine> engine;
    RunResult repaired = RunWith(plan, delayed, registry, options, &engine);

    EXPECT_EQ(repaired.derived, baseline.derived);
    ExpectEqualCounters(baseline.stats, repaired.stats);
    EXPECT_EQ(repaired.stats.input_events, baseline.stats.input_events);
    // Disorder was really repaired, within the contract.
    EXPECT_GT(repaired.stats.events_reordered, 0);
    EXPECT_GT(repaired.stats.max_observed_lateness, 0);
    EXPECT_LE(repaired.stats.max_observed_lateness, kMaxDelay);
    EXPECT_EQ(repaired.stats.events_dropped_late, 0);
    EXPECT_EQ(repaired.stats.events_quarantined, 0);
    EXPECT_EQ(engine->quarantine().total(), 0);
    EXPECT_EQ(engine->ingest_metrics().admitted,
              static_cast<int64_t>(pristine.size()));
  }
}

// Dropping (kReorder with slack 0) under arbitrary local shuffles: survival
// is the running-max rule, replicated here event by event; every thread
// count agrees.
void ExpectDropPolicyIsDeterministic(const ExecutablePlan& plan,
                                     const EventBatch& pristine,
                                     const TypeRegistry& registry) {
  FaultInjector injector(kSeed + 1);
  EventBatch shuffled = injector.ShuffleEvents(pristine, /*window=*/32);
  ASSERT_FALSE(IsTimeOrdered(shuffled));

  // Reference: an event survives iff it is not older than the newest
  // already-surviving time stamp.
  int64_t expected_drops = 0;
  Timestamp expected_max_lateness = 0;
  bool any = false;
  Timestamp high_water = 0;
  for (const EventPtr& event : shuffled) {
    if (any && event->time() < high_water) {
      ++expected_drops;
      expected_max_lateness =
          std::max(expected_max_lateness, high_water - event->time());
      continue;
    }
    any = true;
    high_water = event->time();
  }
  ASSERT_GT(expected_drops, 0);

  RunResult reference;
  for (int num_threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    EngineOptions options;
    options.num_threads = num_threads;
    options.ingest_policy = IngestPolicy::kReorder;  // slack 0: drop late
    std::unique_ptr<Engine> engine;
    RunResult result = RunWith(plan, shuffled, registry, options, &engine);

    EXPECT_EQ(result.stats.events_dropped_late, expected_drops);
    EXPECT_EQ(result.stats.events_quarantined, expected_drops);
    EXPECT_EQ(result.stats.max_observed_lateness, expected_max_lateness);
    EXPECT_EQ(engine->quarantine().count(QuarantineReason::kLateBeyondSlack),
              expected_drops);
    if (num_threads == 1) {
      reference = result;
    } else {
      EXPECT_EQ(result.derived, reference.derived);
      ExpectEqualCounters(reference.stats, result.stats);
    }
  }
}

// Malformed events: quarantine counts per reason equal a replica of the
// engine's classification (same precedence), at every thread count.
void ExpectQuarantineCountsAreDeterministic(const ExecutablePlan& plan,
                                            const EventBatch& pristine,
                                            const TypeRegistry& registry) {
  FaultInjector injector(kSeed + 2);
  TypeId bad_type = static_cast<TypeId>(registry.num_types()) + 7;
  EventBatch corrupted = injector.CorruptTypes(pristine, 0.03, bad_type);
  corrupted = injector.CorruptTimes(corrupted, 0.03);
  corrupted = injector.CorruptIntervals(corrupted, 0.03);

  // Replicate ClassifyMalformed's precedence: unknown type, then negative
  // time, then inverted interval.
  int64_t expected[kNumQuarantineReasons] = {};
  for (const EventPtr& event : corrupted) {
    if (event->type_id() < 0 ||
        event->type_id() >= static_cast<TypeId>(registry.num_types())) {
      ++expected[static_cast<int>(QuarantineReason::kUnknownType)];
    } else if (event->time() < 0) {
      ++expected[static_cast<int>(QuarantineReason::kNegativeTime)];
    } else if (event->end_time() < event->start_time()) {
      ++expected[static_cast<int>(QuarantineReason::kInvertedInterval)];
    }
  }
  int64_t expected_total =
      expected[static_cast<int>(QuarantineReason::kUnknownType)] +
      expected[static_cast<int>(QuarantineReason::kNegativeTime)] +
      expected[static_cast<int>(QuarantineReason::kInvertedInterval)];
  ASSERT_GT(expected[static_cast<int>(QuarantineReason::kUnknownType)], 0);
  ASSERT_GT(expected[static_cast<int>(QuarantineReason::kNegativeTime)], 0);
  ASSERT_GT(expected[static_cast<int>(QuarantineReason::kInvertedInterval)],
            0);

  RunResult reference;
  for (int num_threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    EngineOptions options;
    options.num_threads = num_threads;
    options.ingest_policy = IngestPolicy::kReorder;
    std::unique_ptr<Engine> engine;
    RunResult result = RunWith(plan, corrupted, registry, options, &engine);

    // Removing malformed events leaves the pristine order: nothing is late.
    EXPECT_EQ(result.stats.events_dropped_late, 0);
    EXPECT_EQ(result.stats.events_quarantined, expected_total);
    for (int r = 0; r < kNumQuarantineReasons; ++r) {
      EXPECT_EQ(engine->quarantine().count(static_cast<QuarantineReason>(r)),
                expected[r])
          << QuarantineReasonName(static_cast<QuarantineReason>(r));
    }
    if (num_threads == 1) {
      reference = result;
    } else {
      EXPECT_EQ(result.derived, reference.derived);
      ExpectEqualCounters(reference.stats, result.stats);
    }
  }
}

// Duplicated events are legal input (same time stamp twice); the engine
// stays deterministic across thread counts. Nulled-out attribute values
// are legal too (expressions over null evaluate to null): no crash, same
// output at every thread count.
void ExpectBenignFaultsStayDeterministic(const ExecutablePlan& plan,
                                         const EventBatch& pristine,
                                         const TypeRegistry& registry) {
  FaultInjector injector(kSeed + 3);
  EventBatch duplicated = injector.Duplicate(pristine, 0.1);
  ASSERT_GT(duplicated.size(), pristine.size());
  ASSERT_TRUE(IsTimeOrdered(duplicated));
  EventBatch nulled = injector.CorruptFields(pristine, 0.05);
  ASSERT_TRUE(IsTimeOrdered(nulled));

  for (const EventBatch* stream : {&duplicated, &nulled}) {
    RunResult reference;
    for (int num_threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(num_threads));
      EngineOptions options;
      options.num_threads = num_threads;
      RunResult result = RunWith(plan, *stream, registry, options);
      if (num_threads == 1) {
        reference = result;
      } else {
        EXPECT_EQ(result.derived, reference.derived);
        ExpectEqualCounters(reference.stats, result.stats);
      }
    }
  }
}

void ExpectStrictRejectsButStaysUsable(const ExecutablePlan& plan,
                                       const EventBatch& pristine,
                                       const TypeRegistry& registry) {
  FaultInjector injector(kSeed + 4);
  EventBatch shuffled = injector.ShuffleEvents(pristine, /*window=*/32);
  ASSERT_FALSE(IsTimeOrdered(shuffled));

  Engine engine(plan.Clone(), EngineOptions());
  auto rejected = engine.Run(shuffled);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.status().message().find("not time-ordered at index"),
            std::string::npos)
      << rejected.status();
  EXPECT_NE(rejected.status().message().find("IngestPolicy::kReorder"),
            std::string::npos)
      << rejected.status();

  // The rejection mutated nothing: the engine now processes the pristine
  // stream exactly like a fresh one.
  EventBatch out_after, out_fresh;
  RunStats after = engine.Run(pristine, &out_after).value();
  Engine fresh(plan.Clone(), EngineOptions());
  RunStats fresh_stats = fresh.Run(pristine, &out_fresh).value();
  EXPECT_EQ(Render(out_after, registry), Render(out_fresh, registry));
  ExpectEqualCounters(fresh_stats, after);
  EXPECT_EQ(engine.quarantine().total(), 0);
}

ExecutablePlan Optimize(const CaesarModel& model) {
  auto plan = OptimizeModel(model, OptimizerOptions());
  CAESAR_CHECK_OK(plan.status());
  return std::move(plan).value();
}

struct Workload {
  ExecutablePlan plan;
  EventBatch stream;
};

class FaultInjectionTest : public ::testing::Test {
 protected:
  Workload Synthetic() {
    SyntheticConfig config;
    config.duration = 240;
    config.num_partitions = 8;
    config.events_per_tick = 2;
    config.windows = LayOutWindows(/*count=*/3, /*length=*/60, /*overlap=*/20,
                                   /*first_start=*/30);
    config.assignment = SyntheticConfig::QueryAssignment::kPerWindowCopies;
    config.queries_per_window = 2;
    EventBatch stream = GenerateSyntheticStream(config, &registry_);
    auto model = MakeSyntheticModel(config, &registry_);
    CAESAR_CHECK_OK(model.status());
    return {Optimize(model.value()), std::move(stream)};
  }

  Workload LinearRoad() {
    LinearRoadConfig config;
    config.num_xways = 2;
    config.num_segments = 6;
    config.duration = 240;
    config.seed = 7;
    LinearRoadModelConfig model_config;
    model_config.processing_replicas = 2;
    EventBatch stream = GenerateLinearRoadStream(config, &registry_);
    auto model = MakeLinearRoadModel(model_config, &registry_);
    CAESAR_CHECK_OK(model.status());
    return {Optimize(model.value()), std::move(stream)};
  }

  Workload Pamap() {
    PamapConfig config;
    config.num_subjects = 6;
    config.duration = 900;
    config.exercise_phases_per_subject = 2.0;
    config.exercise_duration = 300;
    config.seed = 3;
    EventBatch stream = GeneratePamapStream(config, &registry_);
    auto model = MakePamapModel(PamapModelConfig(), &registry_);
    CAESAR_CHECK_OK(model.status());
    return {Optimize(model.value()), std::move(stream)};
  }

  TypeRegistry registry_;
};

TEST_F(FaultInjectionTest, SyntheticReorderRestoresStrictOutput) {
  Workload w = Synthetic();
  ExpectReorderRestoresStrictOutput(w.plan, w.stream, registry_);
}

TEST_F(FaultInjectionTest, LinearRoadReorderRestoresStrictOutput) {
  Workload w = LinearRoad();
  ExpectReorderRestoresStrictOutput(w.plan, w.stream, registry_);
}

TEST_F(FaultInjectionTest, PamapReorderRestoresStrictOutput) {
  Workload w = Pamap();
  ExpectReorderRestoresStrictOutput(w.plan, w.stream, registry_);
}

TEST_F(FaultInjectionTest, SyntheticDropPolicyIsDeterministic) {
  Workload w = Synthetic();
  ExpectDropPolicyIsDeterministic(w.plan, w.stream, registry_);
}

TEST_F(FaultInjectionTest, LinearRoadDropPolicyIsDeterministic) {
  Workload w = LinearRoad();
  ExpectDropPolicyIsDeterministic(w.plan, w.stream, registry_);
}

TEST_F(FaultInjectionTest, PamapDropPolicyIsDeterministic) {
  Workload w = Pamap();
  ExpectDropPolicyIsDeterministic(w.plan, w.stream, registry_);
}

TEST_F(FaultInjectionTest, SyntheticQuarantineCountsAreDeterministic) {
  Workload w = Synthetic();
  ExpectQuarantineCountsAreDeterministic(w.plan, w.stream, registry_);
}

TEST_F(FaultInjectionTest, LinearRoadQuarantineCountsAreDeterministic) {
  Workload w = LinearRoad();
  ExpectQuarantineCountsAreDeterministic(w.plan, w.stream, registry_);
}

TEST_F(FaultInjectionTest, PamapQuarantineCountsAreDeterministic) {
  Workload w = Pamap();
  ExpectQuarantineCountsAreDeterministic(w.plan, w.stream, registry_);
}

TEST_F(FaultInjectionTest, SyntheticBenignFaultsStayDeterministic) {
  Workload w = Synthetic();
  ExpectBenignFaultsStayDeterministic(w.plan, w.stream, registry_);
}

TEST_F(FaultInjectionTest, LinearRoadStrictRejectsButStaysUsable) {
  Workload w = LinearRoad();
  ExpectStrictRejectsButStaysUsable(w.plan, w.stream, registry_);
}

}  // namespace
}  // namespace caesar
