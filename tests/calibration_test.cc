// Tests for the statistics-to-cost-model calibration loop (the Fig. 8
// feedback edge).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "optimizer/calibration.h"
#include "plan/translator.h"
#include "query/parser.h"
#include "runtime/engine.h"

namespace caesar {
namespace {

constexpr char kMiniModel[] = R"(
CONTEXTS normal, high DEFAULT normal;
PARTITION BY seg;
QUERY go_high
SWITCH CONTEXT high PATTERN Reading r WHERE r.value > 10 CONTEXT normal;
QUERY go_normal
SWITCH CONTEXT normal PATTERN Reading r WHERE r.value <= 10 CONTEXT high;
QUERY alert
DERIVE Alert(r.seg AS seg, r.value AS value)
PATTERN Reading r WHERE r.value > 15 CONTEXT high;
)";

class CalibrationTest : public ::testing::Test {
 protected:
  CalibrationTest() {
    reading_ = registry_.RegisterOrGet("Reading", {{"seg", ValueType::kInt},
                                                   {"value", ValueType::kInt},
                                                   {"sec", ValueType::kInt}});
  }

  EventPtr Reading(int64_t seg, int64_t value, Timestamp sec) {
    return MakeEvent(reading_, sec, {Value(seg), Value(value), Value(sec)});
  }

  TypeRegistry registry_;
  TypeId reading_;
};

TEST_F(CalibrationTest, CalibratedParamsReflectObservedActivity) {
  auto model = ParseModel(kMiniModel, &registry_);
  CAESAR_CHECK_OK(model.status());
  auto plan = TranslateModel(model.value(), PlanOptions());
  CAESAR_CHECK_OK(plan.status());
  ExecutablePlan plan_copy = plan.value();

  EngineOptions options;
  options.gather_statistics = true;
  Engine engine(std::move(plan).value(), options);
  // Mostly-normal stream: the high-gated queries are usually suspended.
  EventBatch input;
  Rng rng(4);
  for (Timestamp t = 0; t < 300; ++t) {
    input.push_back(Reading(1, rng.Uniform(0, 13), t));
  }
  engine.Run(input).value();
  StatisticsReport report = engine.CollectStatistics();

  CostModelParams calibrated = CalibrateCostParams(report);
  EXPECT_GT(calibrated.context_activity, 0.0);
  EXPECT_LT(calibrated.context_activity, 1.0);

  // Calibrated estimate exists and responds to activity: a plan costed at
  // the observed (low) activity is cheaper than at full activity.
  double at_observed =
      EstimatePlanCostCalibrated(plan_copy, report, calibrated);
  CostModelParams always_on = calibrated;
  always_on.context_activity = 1.0;
  double at_full = EstimatePlanCostCalibrated(plan_copy, report, always_on);
  EXPECT_GT(at_observed, 0.0);
  EXPECT_LT(at_observed, at_full);
}

TEST_F(CalibrationTest, ObservedSelectivitiesReplaceDefaults) {
  auto model = ParseModel(R"(
CONTEXTS only;
QUERY narrow DERIVE A(r.value AS value) PATTERN Reading r WHERE r.value = 1;
)",
                          &registry_);
  CAESAR_CHECK_OK(model.status());
  auto plan = TranslateModel(model.value(), PlanOptions());
  CAESAR_CHECK_OK(plan.status());
  ExecutablePlan plan_copy = plan.value();

  EngineOptions options;
  options.gather_statistics = true;
  Engine engine(std::move(plan).value(), options);
  EventBatch input;
  for (Timestamp t = 0; t < 100; ++t) {
    input.push_back(Reading(1, t % 50, t));  // filter passes 2% of events
  }
  engine.Run(input).value();
  StatisticsReport report = engine.CollectStatistics();

  // The filter's observed selectivity (~0.02) is far below the static 0.5
  // default, so the calibrated plan cost undercuts the static estimate
  // (less reaches the projection).
  CostModelParams params = CalibrateCostParams(report);
  double calibrated = EstimatePlanCostCalibrated(plan_copy, report, params);
  double static_estimate = EstimatePlanCost(plan_copy, params);
  EXPECT_LT(calibrated, static_estimate);
}

TEST_F(CalibrationTest, OperatorsThatNeverRanKeepStaticEstimates) {
  // Regression: an operator with zero observed input used to report a
  // selectivity of 0 (0/0 collapsed to "drops everything"), so one run in
  // which a context-gated query stayed suspended convinced the optimizer
  // that query was free. Such rows now carry no observation (has_data()
  // false) and the calibration skips them.
  auto model = ParseModel(kMiniModel, &registry_);
  CAESAR_CHECK_OK(model.status());
  auto plan = TranslateModel(model.value(), PlanOptions());
  CAESAR_CHECK_OK(plan.status());
  ExecutablePlan plan_copy = plan.value();

  EngineOptions options;
  options.gather_statistics = true;
  Engine engine(std::move(plan).value(), options);
  // Values never exceed 10, so the `high` context never activates and the
  // high-gated `alert` query stays suspended for the whole run: none of its
  // operators is ever invoked.
  EventBatch input;
  for (Timestamp t = 0; t < 50; ++t) input.push_back(Reading(1, t % 10, t));
  RunStats stats = engine.Run(input).value();
  EXPECT_GT(stats.suspended_chains, 0);
  StatisticsReport report = engine.CollectStatistics();

  // The chain's gate (the context window at position 0) genuinely observes
  // 50 in / 0 out — selectivity 0 is real data there. Everything behind the
  // gate never ran and must report "no observation", not selectivity 0.
  int dormant_rows = 0;
  bool saw_live = false;
  for (const QueryOperatorStats& row : report.operators) {
    if ((row.query == "alert" || row.query == "rising") &&
        row.kind != Operator::Kind::kContextWindow) {
      ++dormant_rows;
      EXPECT_EQ(row.stats.input_events, 0);
      EXPECT_FALSE(row.stats.has_data());
      EXPECT_FALSE(row.stats.ObservedSelectivity().has_value());
      EXPECT_FALSE(row.stats.ObservedUnitCost().has_value());
    }
    if (row.query == "go_high" && row.stats.has_data()) saw_live = true;
  }
  EXPECT_GT(dormant_rows, 0);
  EXPECT_TRUE(saw_live);

  // The calibrated estimate stays finite and positive: the dormant query
  // is costed from static defaults, not from a bogus zero selectivity.
  CostModelParams params = CalibrateCostParams(report);
  double calibrated = EstimatePlanCostCalibrated(plan_copy, report, params);
  EXPECT_GT(calibrated, 0.0);
  EXPECT_TRUE(std::isfinite(calibrated));
}

TEST_F(CalibrationTest, DormantQueriesStayUnobservedUnderCompiledEngine) {
  // The engine-level dormant-query property holds for compiled SEQ chains
  // too: a suspended chain's automaton reports no observations.
  const std::string seq_model = std::string(kMiniModel) + R"(
QUERY rising
DERIVE Rise(b.seg AS seg, b.value AS value)
PATTERN SEQ(Reading a, Reading b) WITHIN 5 WHERE b.value > a.value
CONTEXT high;
)";
  auto model = ParseModel(seq_model, &registry_);
  CAESAR_CHECK_OK(model.status());
  auto plan = TranslateModel(model.value(), PlanOptions());
  CAESAR_CHECK_OK(plan.status());

  EngineOptions options;
  options.gather_statistics = true;
  Engine engine(std::move(plan).value(), options);
  EventBatch input;
  for (Timestamp t = 0; t < 50; ++t) input.push_back(Reading(1, t % 10, t));
  RunStats stats = engine.Run(input).value();
  EXPECT_GT(stats.suspended_chains, 0);
  StatisticsReport report = engine.CollectStatistics();

  int dormant_rows = 0;
  for (const QueryOperatorStats& row : report.operators) {
    if ((row.query == "alert" || row.query == "rising") &&
        row.kind != Operator::Kind::kContextWindow) {
      ++dormant_rows;
      EXPECT_FALSE(row.stats.has_data());
      EXPECT_FALSE(row.stats.ObservedSelectivity().has_value());
      EXPECT_FALSE(row.stats.ObservedUnitCost().has_value());
    }
  }
  EXPECT_GT(dormant_rows, 0);
}

}  // namespace
}  // namespace caesar
