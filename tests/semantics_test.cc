// Edge-case semantics of context-aware execution: window-boundary scoping
// of complex events, overlapping contexts, same-time-stamp derivation
// chains, default-context reactivation, and partitioning of events lacking
// the partition attributes or carrying them as int in one type and double
// in another.

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.h"
#include "plan/translator.h"
#include "query/parser.h"
#include "runtime/engine.h"

namespace caesar {
namespace {

class SemanticsTest : public ::testing::Test {
 protected:
  SemanticsTest() {
    reading_ = registry_.RegisterOrGet("Reading", {{"seg", ValueType::kInt},
                                                   {"value", ValueType::kInt},
                                                   {"sec", ValueType::kInt}});
    marker_ = registry_.RegisterOrGet("Marker", {{"sec", ValueType::kInt}});
  }

  CaesarModel Parse(const std::string& text) {
    auto model = ParseModel(text, &registry_);
    CAESAR_CHECK_OK(model.status());
    return std::move(model).value();
  }

  EventPtr Reading(int64_t seg, int64_t value, Timestamp sec) {
    return MakeEvent(reading_, sec, {Value(seg), Value(value), Value(sec)});
  }

  EventBatch Run(const CaesarModel& model, const PlanOptions& options,
                 const EventBatch& input) {
    auto plan = TranslateModel(model, options);
    CAESAR_CHECK_OK(plan.status());
    Engine engine(std::move(plan).value(), EngineOptions());
    EventBatch outputs;
    engine.Run(input, &outputs).value();
    return outputs;
  }

  TypeRegistry registry_;
  TypeId reading_;
  TypeId marker_;
};

// A SEQ whose first component falls before the window start must not match,
// in the pushed-down AND the non-optimized plan shapes.
TEST_F(SemanticsTest, MatchesNeverSpanIntoAWindowFromOutside) {
  CaesarModel model = Parse(R"(
CONTEXTS off, on DEFAULT off;
PARTITION BY seg;
QUERY go SWITCH CONTEXT on PATTERN Reading r WHERE r.value = 100 CONTEXT off;
QUERY stop SWITCH CONTEXT off PATTERN Reading r WHERE r.value = 0 CONTEXT on;
QUERY pair
DERIVE Pair(a.sec AS s1, b.sec AS s2)
PATTERN SEQ(Reading a, Reading b) WITHIN 50
WHERE a.value = 7 AND b.value = 7
CONTEXT on;
)");
  EventBatch input = {
      Reading(1, 7, 0),    // candidate first half, but `on` is not active
      Reading(1, 100, 5),  // window opens at t=5
      Reading(1, 7, 10),   // first half inside the window
      Reading(1, 7, 20),   // completes [10, 20]
  };
  for (bool pushed : {true, false}) {
    PlanOptions options;
    options.push_down_context_windows = pushed;
    EventBatch outputs = Run(model, options, input);
    ASSERT_EQ(outputs.size(), 1u) << "pushed=" << pushed;
    // Only [10, 20]; never [0, 10] or [0, 20].
    EXPECT_EQ(outputs[0]->start_time(), 10);
    EXPECT_EQ(outputs[0]->end_time(), 20);
  }
}

// A query belonging to two overlapping contexts executes once per event,
// not once per active context.
TEST_F(SemanticsTest, OverlappingContextsDoNotDoubleDerive) {
  CaesarModel model = Parse(R"(
CONTEXTS idle, red, blue DEFAULT idle;
PARTITION BY seg;
QUERY start_red INITIATE CONTEXT red
PATTERN Reading r WHERE r.value = 1 CONTEXT idle, blue;
QUERY start_blue INITIATE CONTEXT blue
PATTERN Reading r WHERE r.value = 2 CONTEXT idle, red;
QUERY both
DERIVE Seen(r.sec AS sec)
PATTERN Reading r
CONTEXT red, blue;
)");
  EventBatch input = {
      Reading(1, 1, 0),  // red on
      Reading(1, 2, 1),  // blue on too (overlap)
      Reading(1, 9, 2),  // both active: derive exactly one Seen
  };
  EventBatch outputs = Run(model, PlanOptions(), input);
  int seen = 0;
  for (const EventPtr& event : outputs) {
    if (registry_.type(event->type_id()).name == "Seen") ++seen;
  }
  EXPECT_EQ(seen, 3);  // one per event from t=0 on (red active since 0)
}

// Derivation chains resolve within one time stamp: a deriving query's
// output is visible to context processing queries at the same tick.
TEST_F(SemanticsTest, SameTickDerivationChain) {
  CaesarModel model = Parse(R"(
CONTEXTS idle, alerting DEFAULT idle;
PARTITION BY seg;
QUERY detect
INITIATE CONTEXT alerting
DERIVE Incident(r.seg AS seg, r.sec AS sec)
PATTERN Reading r WHERE r.value > 50
CONTEXT idle;
QUERY notify
DERIVE Notification(i.seg AS seg, i.sec AS sec)
PATTERN Incident i
CONTEXT alerting;
)");
  EventBatch outputs = Run(model, PlanOptions(), {Reading(1, 60, 7)});
  std::multiset<std::string> names;
  for (const EventPtr& event : outputs) {
    names.insert(registry_.type(event->type_id()).name);
  }
  // Incident derived AND notification sent, all at t=7.
  EXPECT_EQ(names.count("Incident"), 1u);
  EXPECT_EQ(names.count("Notification"), 1u);
  for (const EventPtr& event : outputs) EXPECT_EQ(event->time(), 7);
}

// When the last context terminates, the default context window begins at
// the terminating event's time stamp.
TEST_F(SemanticsTest, DefaultContextReactivatesOnTermination) {
  CaesarModel model = Parse(R"(
CONTEXTS idle, busy DEFAULT idle;
PARTITION BY seg;
QUERY go INITIATE CONTEXT busy PATTERN Reading r WHERE r.value = 1 CONTEXT idle;
QUERY stop TERMINATE CONTEXT busy PATTERN Reading r WHERE r.value = 0 CONTEXT busy;
QUERY idle_work
DERIVE IdleSeen(r.sec AS sec)
PATTERN Reading r
CONTEXT idle;
)");
  auto plan = TranslateModel(model, PlanOptions());
  CAESAR_CHECK_OK(plan.status());
  Engine engine(std::move(plan).value(), EngineOptions());
  EventBatch outputs;
  engine.Run(
      {
          Reading(1, 9, 0),  // idle: IdleSeen
          Reading(1, 1, 1),  // busy begins: idle_work suspended
          Reading(1, 9, 2),  // suspended
          Reading(1, 0, 3),  // busy ends; idle resumes at t=3
          Reading(1, 9, 4),  // IdleSeen again
      },
      &outputs).value();
  std::vector<Timestamp> idle_seen;
  for (const EventPtr& event : outputs) {
    if (registry_.type(event->type_id()).name == "IdleSeen") {
      idle_seen.push_back(event->time());
    }
  }
  // t=0 before busy; t=3 (the terminating event itself re-enters idle
  // within the same tick, derivation-before-processing); t=4 after.
  EXPECT_EQ(idle_seen, (std::vector<Timestamp>{0, 3, 4}));
}

// Events whose type lacks the partition attributes land in one shared
// partition rather than being dropped.
TEST_F(SemanticsTest, EventsWithoutPartitionAttrsStillProcessed) {
  CaesarModel model = Parse(R"(
CONTEXTS only;
PARTITION BY seg;
QUERY count_markers
DERIVE MarkerSeen(m.sec AS sec)
PATTERN Marker m
CONTEXT only;
)");
  EventBatch input = {
      MakeEvent(marker_, 0, {Value(int64_t{0})}),
      MakeEvent(marker_, 1, {Value(int64_t{1})}),
  };
  EventBatch outputs = Run(model, PlanOptions(), input);
  EXPECT_EQ(outputs.size(), 2u);
}

// INITIATE of an already-active context leaves its window start untouched
// (only one window of a type at a time).
TEST_F(SemanticsTest, ReinitiationDoesNotRestartTheWindow) {
  CaesarModel model = Parse(R"(
CONTEXTS idle, busy DEFAULT idle;
PARTITION BY seg;
QUERY go INITIATE CONTEXT busy PATTERN Reading r WHERE r.value >= 1 CONTEXT idle, busy;
QUERY pair
DERIVE Pair(a.sec AS s1, b.sec AS s2)
PATTERN SEQ(Reading a, Reading b) WITHIN 100
WHERE a.value = 5 AND b.value = 5
CONTEXT busy;
)");
  // The initiator keeps firing (value >= 1 in busy too); if each firing
  // restarted the window, the pair spanning [1, 3] would be rejected by the
  // window-start scoping.
  EventBatch outputs = Run(model, PlanOptions(),
                           {Reading(1, 5, 1), Reading(1, 7, 2),
                            Reading(1, 5, 3)});
  bool found = false;
  for (const EventPtr& event : outputs) {
    if (registry_.type(event->type_id()).name == "Pair") {
      found = true;
      EXPECT_EQ(event->start_time(), 1);
      EXPECT_EQ(event->end_time(), 3);
    }
  }
  EXPECT_TRUE(found);
}

// Partition keys follow Value equality across numeric types: an int and a
// double attribute holding the same number put their events in one
// partition, so a SEQ across the two types matches. The expected output is
// spelled out by hand (the oracle computes keys with the same hash).
TEST_F(SemanticsTest, IntAndDoublePartitionValuesShareAPartition) {
  CaesarModel model = Parse(R"(
TYPE A(x int);
TYPE B(x double);
CONTEXTS c0 DEFAULT c0;
PARTITION BY x;
QUERY pair
DERIVE Pair(a.x AS ax, b.x AS bx)
PATTERN SEQ(A a, B b) WITHIN 10
CONTEXT c0;
)");
  const TypeId a = registry_.Lookup("A");
  const TypeId b = registry_.Lookup("B");
  const EventBatch input = {
      MakeEvent(a, 1, {Value(int64_t{1})}),
      MakeEvent(b, 2, {Value(2.0)}),  // another partition: no match
      MakeEvent(b, 3, {Value(1.0)}),
  };
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok()) << plan.status();
  Engine engine(std::move(plan).value(), EngineOptions());
  EventBatch outputs;
  ASSERT_TRUE(engine.Run(input, &outputs).ok());
  EXPECT_EQ(engine.num_partitions(), 2);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(registry_.type(outputs[0]->type_id()).name, "Pair");
  EXPECT_EQ(outputs[0]->start_time(), 1);
  EXPECT_EQ(outputs[0]->end_time(), 3);
  EXPECT_EQ(outputs[0]->value(0).type(), ValueType::kInt);
  EXPECT_EQ(outputs[0]->value(0).AsInt(), 1);
  EXPECT_EQ(outputs[0]->value(1).type(), ValueType::kDouble);
  EXPECT_EQ(outputs[0]->value(1).AsDouble(), 1.0);
}

}  // namespace
}  // namespace caesar
