// Tests for the CAESAR optimizer: cost model (Theorem 1), context window
// grouping (Listing 1 / Fig. 7), the model-level sharing transform and its
// semantics preservation, and the multi-query plan search.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/rng.h"
#include "optimizer/cost_model.h"
#include "optimizer/mqo.h"
#include "optimizer/optimizer.h"
#include "optimizer/overlap_analysis.h"
#include "optimizer/window_grouping.h"
#include "plan/translator.h"
#include "query/parser.h"
#include "runtime/engine.h"

namespace caesar {
namespace {

// Rising-signal model of Fig. 7: c1 holds for X in (10, 30], c2 for
// X in (20, 40]. q_both is duplicated across both contexts (identical
// signature) and should be shared by grouping.
constexpr char kOverlapModel[] = R"(
CONTEXTS idle, c1, c2 DEFAULT idle;
PARTITION BY seg;

QUERY start_c1
INITIATE CONTEXT c1 PATTERN S s WHERE s.x > 10 CONTEXT idle;
QUERY end_c1
TERMINATE CONTEXT c1 PATTERN S s WHERE s.x > 30 CONTEXT c1;
QUERY start_c2
INITIATE CONTEXT c2 PATTERN S s WHERE s.x > 20 CONTEXT idle, c1;
QUERY end_c2
TERMINATE CONTEXT c2 PATTERN S s WHERE s.x > 40 CONTEXT c2;

QUERY q_c1
DERIVE A(s.x AS x) PATTERN S s CONTEXT c1;
QUERY q_c2
DERIVE B(s.x AS x) PATTERN S s CONTEXT c2;
QUERY q_both_1
DERIVE C(s.x AS x) PATTERN S s CONTEXT c1;
QUERY q_both_2
DERIVE C(s.x AS x) PATTERN S s CONTEXT c2;
)";

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() {
    signal_ = registry_.RegisterOrGet(
        "S", {{"seg", ValueType::kInt}, {"x", ValueType::kInt}});
  }

  CaesarModel Parse(const std::string& text) {
    auto model = ParseModel(text, &registry_);
    EXPECT_TRUE(model.ok()) << model.status();
    return std::move(model).value();
  }

  EventPtr Signal(int64_t seg, int64_t x, Timestamp t) {
    return MakeEvent(signal_, t, {Value(seg), Value(x)});
  }

  // One rising ramp X = 0..50, one event per tick.
  EventBatch Ramp() {
    EventBatch input;
    for (Timestamp t = 0; t <= 50; ++t) {
      input.push_back(Signal(1, t, t));
    }
    return input;
  }

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
  TypeId signal_;
};

// --- Cost model / Theorem 1 -------------------------------------------------

TEST_F(OptimizerTest, Theorem1BottomPositionMinimizesEstimatedCost) {
  CaesarModel model = Parse(R"(
CONTEXTS idle, busy DEFAULT idle;
QUERY go INITIATE CONTEXT busy PATTERN S s WHERE s.x > 10 CONTEXT idle;
QUERY q DERIVE A(s.x AS x) PATTERN S s WHERE s.x > 5 CONTEXT busy;
)");
  CostModelParams params;
  params.context_activity = 0.3;
  double previous = -1.0;
  for (int position = 0; position <= 2; ++position) {
    PlanOptions options;
    options.force_cw_position = position;
    auto plan = TranslateModel(model, options);
    ASSERT_TRUE(plan.ok()) << plan.status();
    double cost = EstimateChainCost(plan.value().processing[0].chain, params);
    if (previous >= 0.0) {
      EXPECT_GE(cost, previous) << "position " << position;
    }
    previous = cost;
  }
}

TEST_F(OptimizerTest, Theorem1HoldsEmpiricallyInOperatorWork) {
  // Measured operator work with the CW forced to each position: bottom
  // must be cheapest (Theorem 1), on a stream with long inactive phases.
  CaesarModel model = Parse(R"(
CONTEXTS idle, busy DEFAULT idle;
PARTITION BY seg;
QUERY go INITIATE CONTEXT busy PATTERN S s WHERE s.x > 900 CONTEXT idle;
QUERY stop TERMINATE CONTEXT busy PATTERN S s WHERE s.x < 100 CONTEXT busy;
QUERY pairs
DERIVE A(a.x AS x1, b.x AS x2)
PATTERN SEQ(S a, S b) WITHIN 40
WHERE a.x = b.x
CONTEXT busy;
)");
  EventBatch input;
  Rng rng(3);
  for (Timestamp t = 0; t < 400; ++t) {
    // Mostly idle: x stays low except a short busy burst.
    int64_t x = (t >= 100 && t < 140) ? 950 : rng.Uniform(101, 500);
    if (t == 140) x = 50;  // terminate busy
    input.push_back(Signal(1, x, t));
  }
  std::vector<uint64_t> ops;
  std::string reference;
  for (int position = 0; position <= 2; ++position) {
    PlanOptions options;
    options.force_cw_position = position;
    auto plan = TranslateModel(model, options);
    ASSERT_TRUE(plan.ok()) << plan.status();
    Engine engine(std::move(plan).value(), EngineOptions());
    EventBatch outputs;
    RunStats stats = engine.Run(input, &outputs).value();
    ops.push_back(stats.ops_executed);
    if (position == 0) {
      reference = Canonical(outputs);
    } else {
      EXPECT_EQ(Canonical(outputs), reference) << "position " << position;
    }
  }
  EXPECT_LT(ops[0], ops[1]);
  EXPECT_LE(ops[1], ops[2]);
}

// --- Listing 1 ---------------------------------------------------------------

TEST(WindowGroupingTest, Figure7Example) {
  // w_c1 = [10, 30) with {Q1, Q3}; w_c2 = [20, 40) with {Q1, Q2}.
  std::vector<WindowSpec> windows = {
      {"c1", 10, 30, {"Q1", "Q3"}},
      {"c2", 20, 40, {"Q1", "Q2"}},
  };
  auto grouped = GroupContextWindows(windows);
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  const auto& g = grouped.value();
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g[0].start_key, 10);
  EXPECT_EQ(g[0].end_key, 20);
  EXPECT_EQ(g[0].queries, (std::vector<std::string>{"Q1", "Q3"}));
  EXPECT_EQ(g[1].start_key, 20);
  EXPECT_EQ(g[1].end_key, 30);
  // Shared middle window: union with duplicates dropped.
  EXPECT_EQ(g[1].queries, (std::vector<std::string>{"Q1", "Q3", "Q2"}));
  EXPECT_EQ(g[1].originals, (std::vector<std::string>{"c1", "c2"}));
  EXPECT_EQ(g[2].start_key, 30);
  EXPECT_EQ(g[2].end_key, 40);
  EXPECT_EQ(g[2].queries, (std::vector<std::string>{"Q1", "Q2"}));
}

TEST(WindowGroupingTest, NonOverlappingWindowsUnchanged) {
  std::vector<WindowSpec> windows = {
      {"a", 0, 10, {"Q1"}},
      {"b", 20, 30, {"Q2"}},
  };
  auto grouped = GroupContextWindows(windows);
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped.value().size(), 2u);
  EXPECT_EQ(grouped.value()[0].name, "a");
  EXPECT_EQ(grouped.value()[1].name, "b");
}

TEST(WindowGroupingTest, IdenticalWindowsMerge) {
  std::vector<WindowSpec> windows = {
      {"a", 0, 10, {"Q1"}},
      {"b", 0, 10, {"Q2", "Q1"}},
      {"c", 5, 20, {"Q3"}},
  };
  auto grouped = GroupContextWindows(windows);
  ASSERT_TRUE(grouped.ok());
  const auto& g = grouped.value();
  // Bounds: 0,5,10,20 -> [0,5){a,b}, [5,10){a,b,c}, [10,20){c}.
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g[0].queries, (std::vector<std::string>{"Q1", "Q2"}));
  EXPECT_EQ(g[0].originals, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(g[1].queries, (std::vector<std::string>{"Q1", "Q2", "Q3"}));
  EXPECT_EQ(g[2].queries, (std::vector<std::string>{"Q3"}));
}

TEST(WindowGroupingTest, PropertiesOnRandomWindows) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    int n = static_cast<int>(rng.Uniform(1, 8));
    std::vector<WindowSpec> windows;
    for (int w = 0; w < n; ++w) {
      double start = static_cast<double>(rng.Uniform(0, 50));
      double end = start + static_cast<double>(rng.Uniform(1, 30));
      windows.push_back({std::string("w").append(std::to_string(w)), start,
                         end,
                         {std::string("Q").append(std::to_string(w % 3))}});
    }
    auto grouped = GroupContextWindows(windows);
    ASSERT_TRUE(grouped.ok());
    const auto& g = grouped.value();
    // 1. Grouped windows (from the sweep) never overlap each other.
    for (size_t a = 0; a < g.size(); ++a) {
      for (size_t b = a + 1; b < g.size(); ++b) {
        bool share_original = false;
        for (const std::string& origin : g[a].originals) {
          for (const std::string& other : g[b].originals) {
            if (origin == other) share_original = true;
          }
        }
        if (share_original) {
          bool disjoint = g[a].end_key <= g[b].start_key ||
                          g[b].end_key <= g[a].start_key;
          EXPECT_TRUE(disjoint);
        }
      }
    }
    // 2. Coverage: every point of every original window is covered by
    // grouped windows listing that original, and carries its queries.
    for (const WindowSpec& window : windows) {
      for (double p = window.start_key + 0.5; p < window.end_key; p += 1.0) {
        bool covered = false;
        for (const GroupedWindow& gw : g) {
          if (gw.start_key <= p && p < gw.end_key) {
            for (const std::string& origin : gw.originals) {
              if (origin == window.context) covered = true;
            }
            if (covered) {
              for (const std::string& query : window.queries) {
                EXPECT_NE(std::find(gw.queries.begin(), gw.queries.end(),
                                    query),
                          gw.queries.end());
              }
              break;
            }
          }
        }
        EXPECT_TRUE(covered) << "window " << window.context << " point " << p;
      }
    }
    // 3. No duplicate queries within one grouped window.
    for (const GroupedWindow& gw : g) {
      std::set<std::string> unique(gw.queries.begin(), gw.queries.end());
      EXPECT_EQ(unique.size(), gw.queries.size());
    }
  }
}

TEST(WindowGroupingTest, RejectsEmptyWindows) {
  EXPECT_FALSE(GroupContextWindows({{"a", 10, 10, {}}}).ok());
  EXPECT_FALSE(GroupContextWindows({{"a", 10, 5, {}}}).ok());
}

// --- Model-level sharing transform ------------------------------------------

TEST_F(OptimizerTest, ApplyWindowGroupingRewritesContexts) {
  CaesarModel model = Parse(kOverlapModel);
  auto grouped = ApplyWindowGrouping(model);
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  const CaesarModel& g = grouped.value();
  // idle + three grouped windows; c1/c2 replaced.
  EXPECT_EQ(g.ContextIndex("c1"), -1);
  EXPECT_EQ(g.ContextIndex("c2"), -1);
  EXPECT_EQ(g.num_contexts(), 4);
  EXPECT_EQ(g.default_context(), "idle");
  // The duplicated query pair collapsed into one shared query.
  int c_queries = 0;
  for (int qi = 0; qi < g.num_queries(); ++qi) {
    if (g.query(qi).derive.has_value() &&
        g.query(qi).derive->event_type == "C") {
      ++c_queries;
      EXPECT_EQ(g.query(qi).contexts.size(), 3u);  // all grouped windows
    }
  }
  EXPECT_EQ(c_queries, 1);
}

TEST_F(OptimizerTest, GroupedModelPreservesSemantics) {
  CaesarModel model = Parse(kOverlapModel);
  auto grouped = ApplyWindowGrouping(model);
  ASSERT_TRUE(grouped.ok()) << grouped.status();

  auto plan_orig = TranslateModel(model, PlanOptions());
  auto plan_grouped = TranslateModel(grouped.value(), PlanOptions());
  ASSERT_TRUE(plan_orig.ok()) << plan_orig.status();
  ASSERT_TRUE(plan_grouped.ok()) << plan_grouped.status();

  Engine original(std::move(plan_orig).value(), EngineOptions());
  Engine shared(std::move(plan_grouped).value(), EngineOptions());
  EventBatch out_orig, out_shared;
  RunStats stats_orig = original.Run(Ramp(), &out_orig).value();
  RunStats stats_shared = shared.Run(Ramp(), &out_shared).value();

  // Compare derived events as *sets*: the original model computes the
  // duplicated query twice during the overlap (identical C events from
  // q_both_1 and q_both_2); sharing derives each result exactly once —
  // that deduplication is the point of Listing 1.
  auto as_set = [&](const EventBatch& events) {
    std::set<std::string> lines;
    for (const EventPtr& event : events) {
      lines.insert(event->ToString(registry_));
    }
    return lines;
  };
  EXPECT_EQ(as_set(out_orig), as_set(out_shared));
  EXPECT_GT(out_orig.size(), out_shared.size());  // duplicates eliminated
  EXPECT_GT(out_orig.size(), 0u);
  // Sharing executes the duplicated workload once during the overlap.
  EXPECT_LT(stats_shared.ops_executed, stats_orig.ops_executed);
}

TEST_F(OptimizerTest, GroupedQueriesCarryHistoryAnchors) {
  CaesarModel model = Parse(kOverlapModel);
  auto grouped = ApplyWindowGrouping(model);
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  const CaesarModel& g = grouped.value();
  // The shared query C lives in all three grouped windows; its anchors must
  // point at the first grouped window of the oldest covering original:
  //   c1#...  (c1 only)        -> anchors itself
  //   c1+c2#. (c1 and c2)      -> anchored at c1's first window
  //   c2#...  (c2 only)        -> anchored at c2's first window = c1+c2#
  int shared = -1;
  for (int qi = 0; qi < g.num_queries(); ++qi) {
    if (g.query(qi).derive.has_value() &&
        g.query(qi).derive->event_type == "C") {
      shared = qi;
    }
  }
  ASSERT_GE(shared, 0);
  const Query& query = g.query(shared);
  ASSERT_EQ(query.context_anchors.size(), query.contexts.size());
  ASSERT_EQ(query.contexts.size(), 3u);
  // contexts are emitted in original-window order: c1's groups then c2's.
  EXPECT_EQ(query.context_anchors[0], query.contexts[0]);  // first: itself
  EXPECT_EQ(query.context_anchors[1], query.contexts[0]);  // overlap: c1 anchor
  EXPECT_EQ(query.context_anchors[2], query.contexts[1]);  // c2 tail: c2 start
  // A query of a single original (A in c1) anchors each group at c1's start.
  for (int qi = 0; qi < g.num_queries(); ++qi) {
    if (g.query(qi).derive.has_value() &&
        g.query(qi).derive->event_type == "A") {
      const Query& a = g.query(qi);
      ASSERT_EQ(a.contexts.size(), 2u);
      EXPECT_EQ(a.context_anchors[0], a.contexts[0]);
      EXPECT_EQ(a.context_anchors[1], a.contexts[0]);
    }
  }
}

TEST_F(OptimizerTest, GroupingLeavesNonOverlappingModelsAlone) {
  CaesarModel model = Parse(R"(
CONTEXTS idle, c1, c2 DEFAULT idle;
QUERY start_c1 INITIATE CONTEXT c1 PATTERN S s WHERE s.x > 10 CONTEXT idle;
QUERY end_c1 TERMINATE CONTEXT c1 PATTERN S s WHERE s.x > 20 CONTEXT c1;
QUERY start_c2 INITIATE CONTEXT c2 PATTERN S s WHERE s.x > 30 CONTEXT idle;
QUERY end_c2 TERMINATE CONTEXT c2 PATTERN S s WHERE s.x > 40 CONTEXT c2;
QUERY q1 DERIVE A(s.x AS x) PATTERN S s CONTEXT c1;
)");
  auto grouped = ApplyWindowGrouping(model);
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  EXPECT_GE(grouped.value().ContextIndex("c1"), 0);
  EXPECT_GE(grouped.value().ContextIndex("c2"), 0);
  EXPECT_EQ(grouped.value().num_queries(), model.num_queries());
}

// A context opening on a falling threshold (x <= 2) and closing on a
// rising one (x >= 9) has start below end, yet its bounds carry no
// crossing order: window grouping must skip it, or the optimized plan
// loses the InMid events of the overlapping `mid` window.
TEST_F(OptimizerTest, FallingOpeningBoundIsNotGrouped) {
  CaesarModel model = Parse(R"(
CONTEXTS calm, low, mid DEFAULT calm;
QUERY open_low
INITIATE CONTEXT low PATTERN S s WHERE s.x <= 2 CONTEXT calm, mid;
QUERY close_low
TERMINATE CONTEXT low PATTERN S s WHERE s.x >= 9 CONTEXT low;
QUERY open_mid
INITIATE CONTEXT mid PATTERN S s WHERE s.x >= 5 CONTEXT calm, low;
QUERY close_mid
TERMINATE CONTEXT mid PATTERN S s WHERE s.x >= 12 CONTEXT mid;
QUERY in_low DERIVE InLow(s.x AS x) PATTERN S s CONTEXT low;
QUERY in_mid DERIVE InMid(s.x AS x) PATTERN S s CONTEXT mid;
)");
  std::set<std::string> groupable;
  for (const WindowBounds& bounds : ExtractWindowBounds(model)) {
    groupable.insert(bounds.context);
  }
  EXPECT_EQ(groupable, std::set<std::string>{"mid"});

  EventBatch input;
  for (Timestamp t = 0; t <= 8; ++t) input.push_back(Signal(1, 6 + t, t));
  auto plain = TranslateModel(model, PlanOptions());
  auto optimized = OptimizeModel(model, OptimizerOptions());
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  Engine plain_engine(std::move(plain).value(), EngineOptions());
  Engine optimized_engine(std::move(optimized).value(), EngineOptions());
  EventBatch plain_out, optimized_out;
  ASSERT_TRUE(plain_engine.Run(input, &plain_out).ok());
  ASSERT_TRUE(optimized_engine.Run(input, &optimized_out).ok());
  EXPECT_EQ(plain_out.size(), 6u);
  EXPECT_EQ(Canonical(optimized_out), Canonical(plain_out));
}

TEST_F(OptimizerTest, OptimizeModelFacade) {
  CaesarModel model = Parse(kOverlapModel);
  OptimizerOptions options;
  auto plan = OptimizeModel(model, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Push-down: every chain starts with the context window.
  for (const CompiledQuery& query : plan.value().processing) {
    EXPECT_EQ(query.chain.ops[0]->kind(), Operator::Kind::kContextWindow);
  }
  // Baseline plan sanity.
  auto baseline = BaselinePlan(model);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  EXPECT_GT(EstimatePlanCost(baseline.value(), CostModelParams()),
            EstimatePlanCost(plan.value(), CostModelParams()));
}

// --- MQO search ---------------------------------------------------------------

TEST(MqoTest, SyntheticWorkloadShape) {
  Rng rng(5);
  MqoWorkload workload = MakeSyntheticWorkload(24, 4, 3, 0.5, &rng);
  EXPECT_EQ(workload.queries.size(), 6u);
  EXPECT_EQ(workload.total_operators(), 24);
}

TEST(MqoTest, ExhaustiveNeverWorseThanGreedy) {
  Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    MqoWorkload workload = MakeSyntheticWorkload(12, 3, 4, 0.4, &rng);
    MqoSearchResult exhaustive = ExhaustiveSearch(workload);
    MqoSearchResult greedy = GreedySearch(workload);
    EXPECT_LE(exhaustive.plan_cost, greedy.plan_cost + 1e-9);
    EXPECT_GT(exhaustive.candidates, greedy.candidates);
  }
}

TEST(MqoTest, GreedyExaminesFarFewerCandidates) {
  Rng rng(23);
  MqoWorkload workload = MakeSyntheticWorkload(20, 4, 5, 0.5, &rng);
  MqoSearchResult exhaustive = ExhaustiveSearch(workload);
  MqoSearchResult greedy = GreedySearch(workload);
  EXPECT_GT(exhaustive.candidates, 100 * greedy.candidates);
  EXPECT_GT(greedy.num_groups, 0);
}

TEST(MqoTest, SharingReducesGroupCost) {
  // Fully shared operators: grouping the two queries should roughly halve
  // the cost, so the exhaustive search prefers grouping them when they are
  // in one context.
  MqoWorkload workload;
  LogicalQuery q1, q2;
  for (int o = 0; o < 3; ++o) {
    LogicalOp op{o, 1.0, 0.5};
    q1.ops.push_back(op);
    q2.ops.push_back(op);
  }
  q1.context = 0;
  q2.context = 0;
  workload.queries = {q1, q2};
  MqoSearchResult result = ExhaustiveSearch(workload);
  EXPECT_EQ(result.num_groups, 1);
}

}  // namespace
}  // namespace caesar
