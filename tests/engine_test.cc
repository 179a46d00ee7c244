// End-to-end tests of the CAESAR runtime: context transitions driven by the
// stream, suspension of irrelevant queries, partitioned execution, context
// history management, and equivalence between the context-aware engine and
// the context-independent baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "optimizer/optimizer.h"
#include "oracle/oracle.h"
#include "plan/translator.h"
#include "query/parser.h"
#include "runtime/engine.h"
#include "runtime/observability.h"
#include "runtime/statistics.h"

namespace caesar {
namespace {

constexpr char kMiniModel[] = R"(
CONTEXTS normal, high DEFAULT normal;
PARTITION BY seg;

QUERY go_high
SWITCH CONTEXT high
PATTERN Reading r
WHERE r.value > 10
CONTEXT normal;

QUERY go_normal
SWITCH CONTEXT normal
PATTERN Reading r
WHERE r.value <= 10
CONTEXT high;

QUERY alert
DERIVE Alert(r.seg AS seg, r.value AS value)
PATTERN Reading r
WHERE r.value > 15
CONTEXT high;
)";

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    reading_ = registry_.RegisterOrGet("Reading", {{"seg", ValueType::kInt},
                                                   {"value", ValueType::kInt},
                                                   {"sec", ValueType::kInt}});
  }

  CaesarModel Parse(const std::string& text) {
    auto model = ParseModel(text, &registry_);
    EXPECT_TRUE(model.ok()) << model.status();
    return std::move(model).value();
  }

  EventPtr Reading(int64_t seg, int64_t value, Timestamp sec) {
    return MakeEvent(reading_, sec, {Value(seg), Value(value), Value(sec)});
  }

  // Canonical string form of derived events for output comparison.
  std::string Canonical(const EventBatch& events) {
    std::multiset<std::string> lines;
    for (const EventPtr& event : events) {
      lines.insert(event->ToString(registry_));
    }
    std::ostringstream os;
    for (const std::string& line : lines) os << line << "\n";
    return os.str();
  }

  TypeRegistry registry_;
  TypeId reading_;
};

TEST_F(EngineTest, ContextTransitionsGateProcessing) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok()) << plan.status();
  Engine engine(std::move(plan).value(), EngineOptions());

  EventBatch input = {
      Reading(1, 5, 0),    // normal; alert chain suspended
      Reading(1, 12, 1),   // switch to high; 12 <= 15: no alert
      Reading(1, 20, 2),   // high: alert
      Reading(1, 8, 3),    // switch back to normal
      Reading(1, 14, 4),   // re-triggers high (14 > 10) but 14 <= 15
  };
  EventBatch outputs;
  RunStats stats = engine.Run(input, &outputs).value();

  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(registry_.type(outputs[0]->type_id()).name, "Alert");
  EXPECT_EQ(outputs[0]->value(1).AsInt(), 20);
  EXPECT_EQ(outputs[0]->time(), 2);
  EXPECT_EQ(stats.input_events, 5);
  EXPECT_EQ(stats.derived_events, 1);
  EXPECT_EQ(stats.derived_by_type.at("Alert"), 1);
  // The alert chain was suspended during normal time stamps (0, 4), and the
  // go_normal chain during normal ones etc.
  EXPECT_GT(stats.suspended_chains, 0);
}

TEST_F(EngineTest, SwitchAtSameTimestampAffectsProcessingPhase) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  Engine engine(std::move(plan).value(), EngineOptions());
  // A single event both switches to high AND satisfies the alert predicate:
  // derivation runs first, so the alert fires at the same time stamp.
  EventBatch outputs;
  engine.Run({Reading(1, 99, 0)}, &outputs).value();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0]->value(1).AsInt(), 99);
}

TEST_F(EngineTest, PartitionsHaveIndependentContexts) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  Engine engine(std::move(plan).value(), EngineOptions());
  EventBatch outputs;
  engine.Run(
      {
          Reading(1, 50, 0),  // seg 1 -> high, alert
          Reading(2, 5, 0),   // seg 2 stays normal
          Reading(1, 60, 1),  // seg 1 alert
          Reading(2, 60, 1),  // seg 2: switches high now; 60 > 15 -> alert
          Reading(2, 5, 2),   // seg 2 back to normal
          Reading(2, 70, 3),  // seg 2 normal again: switch + alert
      },
      &outputs).value();
  EXPECT_EQ(engine.num_partitions(), 2);
  // seg1: alerts at 0 and 1. seg2: alerts at 1 and 3.
  EXPECT_EQ(outputs.size(), 4u);
}

TEST_F(EngineTest, IncrementalRunsCarryState) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  Engine engine(std::move(plan).value(), EngineOptions());
  EventBatch outputs;
  engine.Run({Reading(1, 50, 0)}, &outputs).value();   // -> high
  engine.Run({Reading(1, 20, 10)}, &outputs).value();  // still high: alert
  EXPECT_EQ(outputs.size(), 2u);
}

TEST_F(EngineTest, TickObserverSeesDerivedEventsPerTimestamp) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  Engine engine(std::move(plan).value(), EngineOptions());
  std::map<Timestamp, int> derived_per_tick;
  engine.SetTickObserver([&](Timestamp t, const EventBatch& derived) {
    derived_per_tick[t] = static_cast<int>(derived.size());
  });
  engine.Run({Reading(1, 5, 0), Reading(1, 50, 1), Reading(1, 60, 2)}).value();
  EXPECT_EQ(derived_per_tick[0], 0);
  EXPECT_EQ(derived_per_tick[1], 1);
  EXPECT_EQ(derived_per_tick[2], 1);
}

TEST_F(EngineTest, StatsArepopulated) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  Engine engine(std::move(plan).value(), EngineOptions());
  RunStats stats = engine.Run({Reading(1, 5, 0), Reading(1, 50, 1)}).value();
  EXPECT_EQ(stats.input_events, 2);
  EXPECT_EQ(stats.transactions, 2);
  EXPECT_EQ(stats.partitions, 1);
  EXPECT_GT(stats.ops_executed, 0u);
  EXPECT_GT(stats.cpu_seconds, 0.0);
  EXPECT_GE(stats.max_latency, 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

// SEQ context history: partial matches are discarded when the scoping
// window ends.
TEST_F(EngineTest, ContextHistoryDiscardedAtWindowEnd) {
  CaesarModel model = Parse(R"(
CONTEXTS normal, high DEFAULT normal;
PARTITION BY seg;

QUERY go_high
SWITCH CONTEXT high PATTERN Reading r WHERE r.value > 10 CONTEXT normal;
QUERY go_normal
SWITCH CONTEXT normal PATTERN Reading r WHERE r.value <= 10 CONTEXT high;

QUERY pair
DERIVE Pair(a.sec AS first_sec, b.sec AS second_sec)
PATTERN SEQ(Reading a, Reading b) WITHIN 100
WHERE a.value = 77 AND b.value = 88
CONTEXT high;
)");
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok()) << plan.status();
  Engine engine(std::move(plan).value(), EngineOptions());
  EventBatch outputs;
  engine.Run(
      {
          Reading(1, 77, 0),   // switches high; also the pair's first half
          Reading(1, 5, 1),    // back to normal: window ends, history gone
          Reading(1, 88, 2),   // high again (88 > 10); second half
      },
      &outputs).value();
  // No pair: the partial from t=0 belonged to the closed window.
  EXPECT_TRUE(outputs.empty());

  // Control: without the interruption the pair completes.
  auto plan2 = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan2.ok());
  Engine engine2(std::move(plan2).value(), EngineOptions());
  EventBatch outputs2;
  engine2.Run({Reading(1, 77, 0), Reading(1, 88, 2)}, &outputs2).value();
  EXPECT_EQ(outputs2.size(), 1u);
}

// The context-aware engine and the context-independent baseline must derive
// the same complex events (the optimizations are semantics-preserving).
TEST_F(EngineTest, ContextAwareMatchesBaselineOnRandomStreams) {
  CaesarModel model = Parse(kMiniModel);
  Rng rng(2026);
  for (int trial = 0; trial < 5; ++trial) {
    EventBatch input;
    for (Timestamp t = 0; t < 200; ++t) {
      for (int64_t seg = 1; seg <= 3; ++seg) {
        if (rng.Bernoulli(0.7)) {
          input.push_back(Reading(seg, rng.Uniform(0, 30), t));
        }
      }
    }
    auto ca_plan = TranslateModel(model, PlanOptions());
    ASSERT_TRUE(ca_plan.ok());
    auto ci_plan = BaselinePlan(model);
    ASSERT_TRUE(ci_plan.ok());
    Engine ca(std::move(ca_plan).value(), EngineOptions());
    Engine ci(std::move(ci_plan).value(), EngineOptions());
    EventBatch ca_out, ci_out;
    ca.Run(input, &ca_out).value();
    ci.Run(input, &ci_out).value();
    EXPECT_EQ(Canonical(ca_out), Canonical(ci_out)) << "trial " << trial;
  }
}

// Push-down must not change results, only cost. Uses a SEQ workload so the
// suspended pattern work dominates the context-window probe overhead.
TEST_F(EngineTest, PushDownPreservesSemantics) {
  CaesarModel model = Parse(R"(
CONTEXTS normal, high DEFAULT normal;
PARTITION BY seg;

QUERY go_high
SWITCH CONTEXT high PATTERN Reading r WHERE r.value > 10 CONTEXT normal;
QUERY go_normal
SWITCH CONTEXT normal PATTERN Reading r WHERE r.value <= 10 CONTEXT high;

QUERY pair
DERIVE Pair(a.sec AS first_sec, b.sec AS second_sec)
PATTERN SEQ(Reading a, Reading b) WITHIN 50
WHERE a.value = b.value
CONTEXT high;
)");
  Rng rng(7);
  EventBatch input;
  for (Timestamp t = 0; t < 300; ++t) {
    for (int e = 0; e < 5; ++e) {
      input.push_back(Reading(1, rng.Uniform(0, 30), t));
    }
  }
  PlanOptions pushed;
  pushed.push_down_context_windows = true;
  PlanOptions unpushed;
  unpushed.push_down_context_windows = false;

  auto plan_a = TranslateModel(model, pushed);
  auto plan_b = TranslateModel(model, unpushed);
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  Engine a(std::move(plan_a).value(), EngineOptions());
  Engine b(std::move(plan_b).value(), EngineOptions());
  EventBatch out_a, out_b;
  RunStats stats_a = a.Run(input, &out_a).value();
  RunStats stats_b = b.Run(input, &out_b).value();
  EXPECT_EQ(Canonical(out_a), Canonical(out_b));
  // Push-down strictly reduces operator work.
  EXPECT_LT(stats_a.ops_executed, stats_b.ops_executed);
  EXPECT_GT(stats_a.suspended_chains, 0);
  EXPECT_EQ(stats_b.suspended_chains, 0);
}

// Regression: partition attribute indices are resolved eagerly at engine
// construction (PartitionKeyOf must not mutate shared state once worker
// threads exist). Types registered *after* construction still resolve via
// the scheduler-thread-only lazy fallback — including in parallel mode.
TEST_F(EngineTest, PartitionAttrCacheHandlesLateRegisteredTypes) {
  CaesarModel model = Parse(kMiniModel);
  auto make_engine = [&](int num_threads) {
    auto plan = TranslateModel(model, PlanOptions());
    CAESAR_CHECK_OK(plan.status());
    EngineOptions options;
    options.num_threads = num_threads;
    return std::make_unique<Engine>(std::move(plan).value(), options);
  };
  auto serial = make_engine(1);
  auto parallel = make_engine(4);

  // Register an additional partitioned type only after both engines (and
  // the parallel engine's workers) exist.
  TypeId extra = registry_.RegisterOrGet(
      "Extra", {{"seg", ValueType::kInt}, {"sec", ValueType::kInt}});
  EventBatch input;
  for (Timestamp t = 0; t < 60; ++t) {
    for (int64_t seg = 1; seg <= 5; ++seg) {
      input.push_back(Reading(seg, (t + seg) % 30, t));
      input.push_back(MakeEvent(extra, t, {Value(seg), Value(t)}));
    }
  }
  EventBatch out_serial, out_parallel;
  RunStats stats_serial = serial->Run(input, &out_serial).value();
  RunStats stats_parallel = parallel->Run(input, &out_parallel).value();
  EXPECT_EQ(serial->num_partitions(), 5);
  EXPECT_EQ(parallel->num_partitions(), 5);
  EXPECT_EQ(stats_serial.derived_events, stats_parallel.derived_events);
  EXPECT_GT(stats_serial.derived_events, 0);
  EXPECT_EQ(Canonical(out_serial), Canonical(out_parallel));
}

TEST_F(EngineTest, MultiThreadedMatchesSerial) {
  CaesarModel model = Parse(kMiniModel);
  Rng rng(11);
  EventBatch input;
  for (Timestamp t = 0; t < 100; ++t) {
    for (int64_t seg = 1; seg <= 8; ++seg) {
      input.push_back(Reading(seg, rng.Uniform(0, 30), t));
    }
  }
  auto plan_a = TranslateModel(model, PlanOptions());
  auto plan_b = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  EngineOptions serial;
  EngineOptions parallel;
  parallel.num_threads = 4;
  Engine a(std::move(plan_a).value(), serial);
  Engine b(std::move(plan_b).value(), parallel);
  EventBatch out_a, out_b;
  a.Run(input, &out_a).value();
  b.Run(input, &out_b).value();
  EXPECT_EQ(Canonical(out_a), Canonical(out_b));
}

// Run(input) without an output batch derives and counts exactly what
// Run(input, &out) collects: only the collection is skipped.
TEST_F(EngineTest, NullOutputsCountEverythingCollected) {
  CaesarModel model = Parse(kMiniModel);
  Rng rng(23);
  EventBatch input;
  for (Timestamp t = 0; t < 200; ++t) {
    for (int64_t seg = 1; seg <= 4; ++seg) {
      input.push_back(Reading(seg, rng.Uniform(0, 30), t));
    }
  }
  EngineOptions options;
  options.metrics = MetricsGranularity::kOperator;
  Engine collecting(TranslateModel(model, PlanOptions()).value(), options);
  Engine counting(TranslateModel(model, PlanOptions()).value(), options);
  EventBatch out;
  RunStats collected = collecting.Run(input, &out).value();
  RunStats counted = counting.Run(input).value();

  EXPECT_GT(collected.derived_events, 0);
  EXPECT_EQ(static_cast<int64_t>(out.size()), collected.derived_events);
  EXPECT_EQ(counted.input_events, collected.input_events);
  EXPECT_EQ(counted.derived_events, collected.derived_events);
  EXPECT_EQ(counted.derived_by_type, collected.derived_by_type);
  EXPECT_EQ(counted.ops_executed, collected.ops_executed);
  EXPECT_EQ(counted.executed_chains, collected.executed_chains);
  EXPECT_EQ(counted.suspended_chains, collected.suspended_chains);
  EXPECT_EQ(counted.transactions, collected.transactions);
  EXPECT_EQ(counted.partitions, collected.partitions);
  ExportOptions deterministic;
  deterministic.deterministic = true;
  EXPECT_EQ(StatisticsToJson(counting.CollectStatistics(), deterministic),
            StatisticsToJson(collecting.CollectStatistics(), deterministic));
}

TEST_F(EngineTest, WideSeqWithInteriorNegationMatchesOracle) {
  // SEQ of 20 positions (19 positive, NOT Gap between a8 and a9): any width
  // compiles to an automaton and runs like every other SEQ.
  std::ostringstream text;
  for (int p = 0; p < 19; ++p) text << "TYPE P" << p << "(k int, v int);\n";
  text << "TYPE Gap(k int, v int);\n"
       << "CONTEXTS c DEFAULT c;\nPARTITION BY k;\n"
       << "QUERY wide\nDERIVE Wide(a0.v AS first, a18.v AS last)\n"
       << "PATTERN SEQ(";
  for (int p = 0; p < 19; ++p) {
    if (p > 0) text << ", ";
    if (p == 9) text << "NOT Gap g, ";
    text << "P" << p << " a" << p;
  }
  text << ") WITHIN 45\nWHERE g.v = a0.v\nCONTEXT c;\n";
  CaesarModel model = Parse(text.str());
  ASSERT_EQ(model.query(0).pattern->items.size(), 20u);

  // Per partition and round: two candidate starts (v = round, round + 10),
  // then P1..P18 two ticks apart. Round 1 places a Gap blocking the second
  // start in the (a8, a9) interval; round 2's Gap matches neither start.
  EventBatch input;
  for (int64_t round = 0; round < 4; ++round) {
    const Timestamp base = 10 + 100 * round;
    for (int64_t k = 1; k <= 2; ++k) {
      auto add = [&](const std::string& type, Timestamp t, int64_t v) {
        input.push_back(MakeEvent(registry_.Lookup(type), t,
                                  {Value(k), Value(v)}));
      };
      add("P0", base - 1, round);
      add("P0", base, round + 10);
      for (int p = 1; p < 19; ++p) {
        add(std::string("P").append(std::to_string(p)), base + 2 * p, p);
      }
      if (round == 1) add("Gap", base + 17, round + 10);
      if (round == 2) add("Gap", base + 17, 99);
    }
  }
  std::stable_sort(input.begin(), input.end(),
                   [](const EventPtr& a, const EventPtr& b) {
                     return a->time() < b->time();
                   });

  auto expected = RunReferenceModel(model, input);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(expected.value().size(), 2u * (4 * 2 - 1));

  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok()) << plan.status();
  Engine engine(std::move(plan).value(), EngineOptions());
  EventBatch outputs;
  ASSERT_TRUE(engine.Run(input, &outputs).ok());
  EXPECT_EQ(Canonical(outputs), Canonical(expected.value()));
}

TEST_F(EngineTest, GcHorizonClampsToZeroOnShortStreams) {
  // Regression: with gc_interval=1 and gc_horizon larger than every input
  // timestamp, the periodic GC used to compute `t - gc_horizon` on signed
  // time and pass a *negative* horizon to ExpireBefore. The current
  // operators treat a negative horizon like zero, so the bug was invisible
  // in outputs — tick telemetry (gc_horizon_min) makes it observable: the
  // clamped horizon must never go below 0.
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EngineOptions options;
  options.gc_interval = 1;
  options.gc_horizon = 1000;  // > max(t): every tick's horizon clamps to 0
  options.metrics = MetricsGranularity::kEngine;
  Engine engine(std::move(plan).value(), options);

  EventBatch input;
  for (Timestamp t = 0; t < 20; ++t) input.push_back(Reading(1, 20, t));
  EventBatch outputs;
  RunStats stats = engine.Run(input, &outputs).value();
  EXPECT_GT(stats.derived_events, 0);

  StatisticsReport report = engine.CollectStatistics();
  ASSERT_GT(report.ticks.gc_runs, 0);
  EXPECT_GE(report.ticks.gc_horizon_min, 0);
  EXPECT_EQ(report.ticks.gc_horizon_min, 0);

  // And the aggressive-GC run still derives exactly what a GC-free run does.
  auto plan_nogc = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan_nogc.ok());
  Engine nogc(std::move(plan_nogc).value(), EngineOptions());
  EventBatch outputs_nogc;
  nogc.Run(input, &outputs_nogc).value();
  EXPECT_EQ(Canonical(outputs), Canonical(outputs_nogc));
}

}  // namespace
}  // namespace caesar
