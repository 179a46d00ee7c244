// Unit tests of the graceful-degradation ingest layer: the bounded
// QuarantineSink, EngineOptions validation, and the engine-level
// drop/reorder/strict policies and their shared admission watermark on a
// mini model.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "plan/translator.h"
#include "query/parser.h"
#include "runtime/engine.h"
#include "runtime/ingest.h"

namespace caesar {
namespace {

EventPtr At(Timestamp t, int64_t tag = 0) {
  return MakeEvent(/*type_id=*/0, t, {Value(tag)});
}

TEST(QuarantineSinkTest, CountersStayExactPastCapacity) {
  QuarantineSink sink(/*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    sink.Add(At(i), QuarantineReason::kOutOfOrder, /*partition_key=*/i % 2);
  }
  sink.Add(At(99), QuarantineReason::kUnknownType, /*partition_key=*/0);
  EXPECT_EQ(sink.total(), 6);
  EXPECT_EQ(sink.count(QuarantineReason::kOutOfOrder), 5);
  EXPECT_EQ(sink.count(QuarantineReason::kUnknownType), 1);
  EXPECT_EQ(sink.count(QuarantineReason::kNegativeTime), 0);
  ASSERT_EQ(sink.entries().size(), 2u);  // only the head is retained
  EXPECT_EQ(sink.overflow(), 4);
  EXPECT_EQ(sink.entries()[0].event->time(), 0);
  EXPECT_EQ(sink.entries()[1].event->time(), 1);
  EXPECT_EQ(sink.by_partition().at(0), 4);  // 0,2,4 + the unknown-type event
  EXPECT_EQ(sink.by_partition().at(1), 2);
}

TEST(EngineOptionsTest, ValidateNamesTheOffendingField) {
  EngineOptions options;
  EXPECT_TRUE(options.Validate().ok());

  options.num_threads = 0;
  Status bad_threads = options.Validate();
  EXPECT_FALSE(bad_threads.ok());
  EXPECT_NE(bad_threads.message().find("num_threads"), std::string::npos)
      << bad_threads;

  options = EngineOptions();
  options.reorder_slack = -1;
  Status bad_slack = options.Validate();
  EXPECT_FALSE(bad_slack.ok());
  EXPECT_NE(bad_slack.message().find("reorder_slack"), std::string::npos)
      << bad_slack;

  options = EngineOptions();
  options.accel = 0.0;
  EXPECT_NE(options.Validate().message().find("accel"), std::string::npos);

  options = EngineOptions();
  options.gc_interval = 0;
  EXPECT_NE(options.Validate().message().find("gc_interval"),
            std::string::npos);

  options = EngineOptions();
  options.gc_horizon = -5;
  EXPECT_NE(options.Validate().message().find("gc_horizon"),
            std::string::npos);
}

constexpr char kMiniModel[] = R"(
CONTEXTS only;
PARTITION BY seg;

QUERY echo
DERIVE Echo(r.seg AS seg, r.value AS value)
PATTERN Reading r;
)";

class IngestEngineTest : public ::testing::Test {
 protected:
  IngestEngineTest() {
    reading_ = registry_.RegisterOrGet("Reading", {{"seg", ValueType::kInt},
                                                   {"value", ValueType::kInt}});
  }

  ExecutablePlan Plan() {
    auto model = ParseModel(kMiniModel, &registry_);
    EXPECT_TRUE(model.ok()) << model.status();
    auto plan = TranslateModel(model.value(), PlanOptions());
    EXPECT_TRUE(plan.ok()) << plan.status();
    return std::move(plan).value();
  }

  EventPtr Reading(int64_t seg, int64_t value, Timestamp t) {
    return MakeEvent(reading_, t, {Value(seg), Value(value)});
  }

  // "time:value" per derived event — the admitted sequence as the engine
  // saw it (echo derives one event per admitted Reading).
  std::string Echoed(const EventBatch& outputs) {
    std::ostringstream os;
    for (const EventPtr& event : outputs) {
      os << event->time() << ":" << event->value(1).AsInt() << " ";
    }
    return os.str();
  }

  TypeRegistry registry_;
  TypeId reading_;
};

TEST_F(IngestEngineTest, CreateRejectsBadOptionsWithoutAborting) {
  EngineOptions bad;
  bad.num_threads = -4;
  auto engine = Engine::Create(Plan(), bad);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(engine.status().message().find("num_threads"), std::string::npos);

  auto good = Engine::Create(Plan(), EngineOptions());
  ASSERT_TRUE(good.ok()) << good.status();
  EventBatch outputs;
  RunStats stats =
      good.value()->Run({Reading(1, 10, 0), Reading(1, 20, 1)}, &outputs)
          .value();
  EXPECT_EQ(stats.derived_events, 2);
}

TEST_F(IngestEngineTest, StrictPolicyReturnsStatusOnDisorder) {
  Engine engine(Plan(), EngineOptions());
  EventBatch disordered = {Reading(1, 10, 5), Reading(1, 20, 3)};
  auto run = engine.Run(disordered);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(run.status().message().find("not time-ordered at index 1"),
            std::string::npos)
      << run.status();
  EXPECT_NE(run.status().message().find("time 3 after 5"), std::string::npos)
      << run.status();

  // Nothing was mutated: the engine still processes a good batch, and no
  // degradation was recorded.
  EventBatch outputs;
  RunStats stats = engine.Run({Reading(1, 10, 0)}, &outputs).value();
  EXPECT_EQ(stats.derived_events, 1);
  EXPECT_EQ(engine.quarantine().total(), 0);
  EXPECT_EQ(engine.ingest_metrics().admitted, 1);
}

TEST_F(IngestEngineTest,
       StrictPolicyRejectsABatchOlderThanTheLastProcessedTick) {
  Engine engine(Plan(), EngineOptions());
  EventBatch outputs;
  engine.Run({Reading(1, 1, 10), Reading(1, 2, 20)}, &outputs).value();
  EXPECT_EQ(Echoed(outputs), "10:1 20:2 ");

  // Each batch is ordered on its own, but the second starts before a tick
  // the engine already processed.
  EventBatch late_out;
  auto run = engine.Run({Reading(1, 3, 5)}, &late_out);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(run.status().message().find("time 5"), std::string::npos)
      << run.status();
  EXPECT_NE(run.status().message().find("last processed tick 20"),
            std::string::npos)
      << run.status();
  EXPECT_TRUE(late_out.empty());
  EXPECT_EQ(engine.ingest_metrics().admitted, 2);
  EXPECT_EQ(engine.quarantine().total(), 0);

  // Equal time continues the last tick; later times run as usual.
  EventBatch more_out;
  engine.Run({Reading(1, 4, 20)}, &more_out).value();
  engine.Run({Reading(1, 5, 21)}, &more_out).value();
  EXPECT_EQ(Echoed(more_out), "20:4 21:5 ");
  EXPECT_EQ(engine.ingest_metrics().admitted, 4);
}

TEST_F(IngestEngineTest, StrictPolicyReturnsStatusOnMalformedEvent) {
  Engine engine(Plan(), EngineOptions());
  EventBatch batch = {Reading(1, 10, 0),
                      MakeEvent(/*type_id=*/999, 1, {})};
  auto run = engine.Run(batch);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("malformed event at index 1"),
            std::string::npos)
      << run.status();
  EXPECT_NE(run.status().message().find("unknown_type"), std::string::npos)
      << run.status();
}

TEST_F(IngestEngineTest, DropPolicyKeepsRunningMaxAndQuarantinesTheRest) {
  EngineOptions options;
  options.ingest_policy = IngestPolicy::kDrop;
  Engine engine(Plan(), options);
  EventBatch outputs;
  // t = 3 is older than the admitted high-water mark 5 -> dropped; the
  // second 5 equals it -> kept.
  EventBatch input = {Reading(1, 1, 0), Reading(1, 2, 5), Reading(1, 3, 3),
                      Reading(1, 4, 5), Reading(1, 5, 7)};
  RunStats stats = engine.Run(input, &outputs).value();
  EXPECT_EQ(Echoed(outputs), "0:1 5:2 5:4 7:5 ");
  EXPECT_EQ(stats.input_events, 5);
  EXPECT_EQ(stats.derived_events, 4);
  EXPECT_EQ(stats.events_dropped_late, 1);
  EXPECT_EQ(stats.events_quarantined, 1);
  EXPECT_EQ(stats.events_reordered, 0);
  EXPECT_EQ(stats.max_observed_lateness, 2);  // 5 - 3
  EXPECT_EQ(engine.quarantine().count(QuarantineReason::kOutOfOrder), 1);
  ASSERT_EQ(engine.quarantine().entries().size(), 1u);
  EXPECT_EQ(engine.quarantine().entries()[0].event->value(1).AsInt(), 3);

  // The high-water mark persists across Run calls.
  EventBatch more_out;
  RunStats more = engine.Run({Reading(1, 6, 4)}, &more_out).value();
  EXPECT_EQ(more.events_dropped_late, 1);
  EXPECT_EQ(more.max_observed_lateness, 3);  // 7 - 4
  EXPECT_TRUE(more_out.empty());
  EXPECT_EQ(engine.ingest_metrics().dropped_late, 2);
}

TEST_F(IngestEngineTest, ReorderPolicyResequencesWithinSlack) {
  EngineOptions options;
  options.ingest_policy = IngestPolicy::kReorder;
  options.reorder_slack = 2;
  Engine engine(Plan(), options);
  EventBatch outputs;
  EventBatch input = {Reading(1, 1, 2), Reading(1, 2, 0), Reading(1, 3, 1),
                      Reading(1, 4, 3), Reading(1, 5, 9), Reading(1, 6, 6)};
  RunStats stats = engine.Run(input, &outputs).value();
  // 0,1 are late by <= 2 and re-sequenced; 6 is late by 3 > slack.
  EXPECT_EQ(Echoed(outputs), "0:2 1:3 2:1 3:4 9:5 ");
  EXPECT_EQ(stats.events_reordered, 2);
  EXPECT_EQ(stats.events_dropped_late, 1);
  EXPECT_EQ(stats.events_quarantined, 1);
  EXPECT_EQ(stats.max_observed_lateness, 3);  // 9 - 6
  EXPECT_EQ(engine.quarantine().count(QuarantineReason::kLateBeyondSlack), 1);

  // Across Runs: the high-water mark persists, so an old event stays late.
  EventBatch more_out;
  RunStats more = engine.Run({Reading(1, 7, 5)}, &more_out).value();
  EXPECT_EQ(more.events_dropped_late, 1);
  EXPECT_TRUE(more_out.empty());
}

TEST_F(IngestEngineTest, ReorderRunsWithinSlackInTimeOrder) {
  EngineOptions options;
  options.ingest_policy = IngestPolicy::kReorder;
  options.reorder_slack = 2;
  Engine engine(Plan(), options);
  EventBatch outputs;
  // 3 is late by 2 == slack; 4 by 1. Both run before 5.
  RunStats stats = engine
                       .Run({Reading(1, 1, 5), Reading(1, 2, 3),
                             Reading(1, 3, 4), Reading(1, 4, 8)},
                            &outputs)
                       .value();
  EXPECT_EQ(Echoed(outputs), "3:2 4:3 5:1 8:4 ");
  EXPECT_EQ(stats.events_reordered, 2);
  EXPECT_EQ(stats.events_quarantined, 0);
}

TEST_F(IngestEngineTest, ReorderSlackBoundaryIsInclusive) {
  EngineOptions options;
  options.ingest_policy = IngestPolicy::kReorder;
  options.reorder_slack = 3;
  Engine engine(Plan(), options);
  EventBatch outputs;
  // 7 is late by exactly the slack (admitted), 6 by one tick more.
  RunStats stats = engine
                       .Run({Reading(1, 1, 10), Reading(1, 2, 7),
                             Reading(1, 3, 6)},
                            &outputs)
                       .value();
  EXPECT_EQ(Echoed(outputs), "7:2 10:1 ");
  EXPECT_EQ(stats.events_reordered, 1);
  EXPECT_EQ(stats.events_dropped_late, 1);
  EXPECT_EQ(stats.max_observed_lateness, 4);
  ASSERT_EQ(engine.quarantine().entries().size(), 1u);
  EXPECT_EQ(engine.quarantine().entries()[0].reason,
            QuarantineReason::kLateBeyondSlack);
  EXPECT_EQ(engine.quarantine().entries()[0].event->time(), 6);
}

TEST_F(IngestEngineTest, FirstEventIsNeverLate) {
  // Before anything was admitted or processed there is no watermark: the
  // first event is admitted wherever the stream starts — far from 0, or at
  // 0, below where `0 - slack` would put a cut-off.
  for (Timestamp start : {Timestamp{0}, Timestamp{1000000}}) {
    for (IngestPolicy policy : {IngestPolicy::kDrop, IngestPolicy::kReorder}) {
      SCOPED_TRACE(std::string(IngestPolicyName(policy)) + " from " +
                   std::to_string(start));
      EngineOptions options;
      options.ingest_policy = policy;
      options.reorder_slack = 3;
      Engine engine(Plan(), options);
      EventBatch outputs;
      engine.Run({Reading(1, 1, start)}, &outputs).value();
      EXPECT_EQ(Echoed(outputs), std::to_string(start) + ":1 ");
      EXPECT_EQ(engine.quarantine().total(), 0);
    }
  }
  EngineOptions options;
  options.ingest_policy = IngestPolicy::kReorder;
  options.reorder_slack = 3;
  Engine engine(Plan(), options);
  EventBatch outputs;
  engine
      .Run({Reading(1, 1, 1000), Reading(1, 2, 998), Reading(1, 3, 996)},
           &outputs)
      .value();
  EXPECT_EQ(Echoed(outputs), "998:2 1000:1 ");  // 996 is beyond the slack
  EXPECT_EQ(engine.quarantine().total(), 1);
}

TEST_F(IngestEngineTest, ReorderEqualTimesKeepArrivalOrder) {
  EngineOptions options;
  options.ingest_policy = IngestPolicy::kReorder;
  options.reorder_slack = 5;
  Engine engine(Plan(), options);
  EventBatch outputs;
  engine
      .Run({Reading(1, 1, 4), Reading(1, 2, 2), Reading(1, 3, 2),
            Reading(1, 4, 4)},
           &outputs)
      .value();
  EXPECT_EQ(Echoed(outputs), "2:2 2:3 4:1 4:4 ");
}

TEST_F(IngestEngineTest, NothingAdmittedBelowAnEarlierRunsMax) {
  EngineOptions options;
  options.ingest_policy = IngestPolicy::kReorder;
  options.reorder_slack = 10;
  Engine engine(Plan(), options);
  EventBatch outputs;
  engine.Run({Reading(1, 1, 5)}, &outputs).value();
  ASSERT_EQ(Echoed(outputs), "5:1 ");
  // 4 is within the slack but older than tick 5, which already ran; equal
  // time continues that tick.
  EventBatch more_out;
  RunStats more = engine
                      .Run({Reading(1, 2, 4), Reading(1, 3, 5),
                            Reading(1, 4, 6)},
                           &more_out)
                      .value();
  EXPECT_EQ(Echoed(more_out), "5:3 6:4 ");
  EXPECT_EQ(more.events_dropped_late, 1);
  EXPECT_EQ(engine.quarantine().count(QuarantineReason::kLateBeyondSlack),
            1);
}

TEST_F(IngestEngineTest, ReorderEmissionIsMonotoneUnderHeavyDisorder) {
  EngineOptions options;
  options.ingest_policy = IngestPolicy::kReorder;
  options.reorder_slack = 4;
  Engine engine(Plan(), options);
  // A deterministic zig-zag with every lateness from 0 to 6.
  EventBatch input;
  for (Timestamp t : {0, 4, 1, 7, 3, 9, 5, 12, 8, 6, 15, 11}) {
    input.push_back(Reading(1, t, t));
  }
  EventBatch outputs;
  RunStats stats = engine.Run(input, &outputs).value();
  EXPECT_EQ(stats.events_quarantined, 1);  // 6, late by 6
  EXPECT_EQ(static_cast<int64_t>(outputs.size()),
            engine.ingest_metrics().admitted);
  for (size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_LE(outputs[i - 1]->time(), outputs[i]->time()) << i;
  }
}

TEST_F(IngestEngineTest, MalformedEventsAreQuarantinedWithReasons) {
  EngineOptions options;
  options.ingest_policy = IngestPolicy::kDrop;
  Engine engine(Plan(), options);
  EventBatch outputs;
  EventBatch input = {
      Reading(1, 1, 0),
      MakeEvent(/*type_id=*/999, 1, {}),                        // unknown type
      MakeEvent(reading_, -4, {Value(int64_t{1}), Value(int64_t{2})}),
      MakeComplexEvent(reading_, /*start=*/3, /*end=*/2,
                       {Value(int64_t{1}), Value(int64_t{3})}),  // inverted
      Reading(1, 4, 2),
  };
  RunStats stats = engine.Run(input, &outputs).value();
  EXPECT_EQ(stats.derived_events, 2);
  EXPECT_EQ(stats.events_quarantined, 3);
  EXPECT_EQ(stats.events_dropped_late, 0);  // malformed, not late
  const QuarantineSink& sink = engine.quarantine();
  EXPECT_EQ(sink.count(QuarantineReason::kUnknownType), 1);
  EXPECT_EQ(sink.count(QuarantineReason::kNegativeTime), 1);
  EXPECT_EQ(sink.count(QuarantineReason::kInvertedInterval), 1);
  ASSERT_EQ(sink.entries().size(), 3u);
  EXPECT_EQ(sink.entries()[0].reason, QuarantineReason::kUnknownType);
  EXPECT_EQ(sink.entries()[0].partition_key, 0u);  // unpartitionable

  // The report surfaces the same counters.
  StatisticsReport report = engine.CollectStatistics();
  EXPECT_EQ(report.ingest.quarantined, 3);
  EXPECT_EQ(report.quarantine_by_reason[static_cast<int>(
                QuarantineReason::kUnknownType)],
            1);
  EXPECT_NE(report.ToString().find("quarantine:"), std::string::npos);
}

TEST_F(IngestEngineTest, RunStatsToStringMentionsDegradation) {
  EngineOptions options;
  options.ingest_policy = IngestPolicy::kDrop;
  Engine engine(Plan(), options);
  RunStats stats =
      engine.Run({Reading(1, 1, 5), Reading(1, 2, 3)}).value();
  std::string text = stats.ToString();
  EXPECT_NE(text.find("dropped_late=1"), std::string::npos) << text;
  EXPECT_NE(text.find("quarantined=1"), std::string::npos) << text;
}

TEST(IngestNamesTest, PolicyAndReasonNamesAreStable) {
  EXPECT_STREQ(IngestPolicyName(IngestPolicy::kStrict), "strict");
  EXPECT_STREQ(IngestPolicyName(IngestPolicy::kDrop), "drop");
  EXPECT_STREQ(IngestPolicyName(IngestPolicy::kReorder), "reorder");
  EXPECT_STREQ(QuarantineReasonName(QuarantineReason::kOutOfOrder),
               "out_of_order");
  EXPECT_STREQ(QuarantineReasonName(QuarantineReason::kLateBeyondSlack),
               "late_beyond_slack");
  EXPECT_STREQ(QuarantineReasonName(QuarantineReason::kUnknownType),
               "unknown_type");
  EXPECT_STREQ(QuarantineReasonName(QuarantineReason::kNegativeTime),
               "negative_time");
  EXPECT_STREQ(QuarantineReasonName(QuarantineReason::kInvertedInterval),
               "inverted_interval");
}

}  // namespace
}  // namespace caesar
