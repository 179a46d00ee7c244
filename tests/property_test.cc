// Property-based tests (parameterized sweeps over random seeds):
//
//  1. The sequence matcher agrees with a brute-force reference
//     implementation of the paper's SEQ semantics, including negation.
//  2. The context-aware engine, the non-optimized plan, and the
//     context-independent baseline derive identical event sets on random
//     threshold models and random streams.
//  3. The sharing transform (window grouping) preserves derived event sets
//     on random overlapping-window layouts and never increases work.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "common/rng.h"
#include "expr/compiled.h"
#include "expr/parser.h"
#include "algebra/pattern_op.h"
#include "compile/compiled_pattern_op.h"
#include "compile/compiler.h"
#include "optimizer/optimizer.h"
#include "oracle/generator.h"
#include "plan/translator.h"
#include "query/parser.h"
#include "runtime/engine.h"
#include "workloads/synthetic.h"

namespace caesar {
namespace {

// --- 1. SEQ matcher vs brute force ----------------------------------------

class SeqOracleTest : public ::testing::TestWithParam<int> {
 protected:
  SeqOracleTest() : contexts_(2, 0) {
    type_ = registry_.RegisterOrGet("E", {{"key", ValueType::kInt},
                                          {"value", ValueType::kInt},
                                          {"sec", ValueType::kInt}});
    ctx_.contexts = &contexts_;
    ctx_.ops_counter = &ops_;
  }

  EventPtr Make(int64_t key, int64_t value, Timestamp sec) {
    return MakeEvent(type_, sec, {Value(key), Value(value), Value(sec)});
  }

  std::shared_ptr<const CompiledExpr> Pred(const std::string& text,
                                           const BindingSet& bindings) {
    auto expr = ParseExpr(text);
    CAESAR_CHECK_OK(expr.status());
    auto compiled = Compile(expr.value(), bindings);
    CAESAR_CHECK_OK(compiled.status());
    return std::shared_ptr<const CompiledExpr>(std::move(compiled).value());
  }

  // Random stream: `n` events, timestamps strictly increasing by 1..3,
  // small key/value domains to force collisions.
  EventBatch RandomStream(Rng* rng, int n) {
    EventBatch events;
    Timestamp t = 0;
    for (int i = 0; i < n; ++i) {
      t += rng->Uniform(1, 3);
      events.push_back(Make(rng->Uniform(0, 3), rng->Uniform(0, 5), t));
    }
    return events;
  }

  static std::multiset<std::string> Canonical(const EventBatch& events) {
    std::multiset<std::string> result;
    for (const EventPtr& event : events) {
      std::ostringstream os;
      os << event->start_time() << ":" << event->end_time();
      for (const Value& value : event->values()) os << "," << value;
      result.insert(os.str());
    }
    return result;
  }

  TypeRegistry registry_;
  TypeId type_;
  ContextBitVector contexts_;
  uint64_t ops_ = 0;
  OpExecContext ctx_;
};

TEST_P(SeqOracleTest, PositivePairMatchesBruteForce) {
  Rng rng(GetParam());
  BindingSet bindings;
  bindings.Add({"a", type_, &registry_.type(type_).schema});
  bindings.Add({"b", type_, &registry_.type(type_).schema});
  const Timestamp within = 10;

  auto config = std::make_shared<PatternOpConfig>();
  config->positions.push_back({type_, false, {}});
  config->positions.push_back(
      {type_, false, {Pred("a.key = b.key AND b.value > a.value", bindings)}});
  config->within = within;
  config->output_type = registry_.RegisterOrGet(
      "$oracle_pair", {{"a.key", ValueType::kInt},
                       {"a.value", ValueType::kInt},
                       {"a.sec", ValueType::kInt},
                       {"b.key", ValueType::kInt},
                       {"b.value", ValueType::kInt},
                       {"b.sec", ValueType::kInt}});
  config->description = "oracle";
  CompiledPatternOp seq(CompilePattern(config));
  CompiledPatternOp::State state(&seq.automaton());

  EventBatch stream = RandomStream(&rng, 60);
  EventBatch matched;
  for (const EventPtr& event : stream) {
    seq.Process({event}, &matched, &ctx_, &state);
  }

  // Brute force: all ordered pairs within the bound satisfying the
  // predicate.
  EventBatch expected;
  for (size_t i = 0; i < stream.size(); ++i) {
    for (size_t j = i + 1; j < stream.size(); ++j) {
      const EventPtr& a = stream[i];
      const EventPtr& b = stream[j];
      if (b->time() <= a->time()) continue;
      if (b->time() - a->time() > within) continue;
      if (a->value(0) != b->value(0)) continue;
      if (!(b->value(1).AsInt() > a->value(1).AsInt())) continue;
      std::vector<Value> values = a->values();
      values.insert(values.end(), b->values().begin(), b->values().end());
      expected.push_back(MakeComplexEvent(config->output_type, a->time(),
                                          b->time(), std::move(values)));
    }
  }
  EXPECT_EQ(Canonical(matched), Canonical(expected)) << "seed " << GetParam();
}

TEST_P(SeqOracleTest, MiddleNegationMatchesBruteForce) {
  Rng rng(GetParam() + 1000);
  BindingSet bindings;
  bindings.Add({"a", type_, &registry_.type(type_).schema});
  bindings.Add({"n", type_, &registry_.type(type_).schema});
  bindings.Add({"b", type_, &registry_.type(type_).schema});
  const Timestamp within = 12;

  auto config = std::make_shared<PatternOpConfig>();
  config->positions.push_back({type_, false, {}});
  config->positions.push_back(
      {type_, true, {Pred("n.key = a.key", bindings)}});
  config->positions.push_back(
      {type_, false, {Pred("a.key = b.key", bindings)}});
  config->within = within;
  config->output_type = registry_.RegisterOrGet(
      "$oracle_neg", {{"a.key", ValueType::kInt},
                      {"a.value", ValueType::kInt},
                      {"a.sec", ValueType::kInt},
                      {"b.key", ValueType::kInt},
                      {"b.value", ValueType::kInt},
                      {"b.sec", ValueType::kInt}});
  config->description = "oracle-neg";
  CompiledPatternOp seq(CompilePattern(config));
  CompiledPatternOp::State state(&seq.automaton());

  EventBatch stream = RandomStream(&rng, 50);
  EventBatch matched;
  for (const EventPtr& event : stream) {
    seq.Process({event}, &matched, &ctx_, &state);
  }

  EventBatch expected;
  for (size_t i = 0; i < stream.size(); ++i) {
    for (size_t j = i + 1; j < stream.size(); ++j) {
      const EventPtr& a = stream[i];
      const EventPtr& b = stream[j];
      if (b->time() <= a->time()) continue;
      if (b->time() - a->time() > within) continue;
      if (a->value(0) != b->value(0)) continue;
      // Negation: no same-key event strictly between a and b.
      bool blocked = false;
      for (const EventPtr& n : stream) {
        if (n->time() > a->time() && n->time() < b->time() &&
            n->value(0) == a->value(0)) {
          blocked = true;
          break;
        }
      }
      if (blocked) continue;
      std::vector<Value> values = a->values();
      values.insert(values.end(), b->values().begin(), b->values().end());
      expected.push_back(MakeComplexEvent(config->output_type, a->time(),
                                          b->time(), std::move(values)));
    }
  }
  EXPECT_EQ(Canonical(matched), Canonical(expected)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqOracleTest, ::testing::Range(0, 12));

// --- 2. Plan-shape equivalence on random threshold models ------------------

class PlanEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  PlanEquivalenceTest() {
    reading_ = registry_.RegisterOrGet("Reading", {{"seg", ValueType::kInt},
                                                   {"value", ValueType::kInt},
                                                   {"sec", ValueType::kInt}});
  }

  TypeRegistry registry_;
  TypeId reading_;
};

TEST_P(PlanEquivalenceTest, AllPlanShapesDeriveTheSameEvents) {
  Rng rng(GetParam());
  // Random hysteresis model: thresholds drawn per seed; a SEQ query and a
  // single-event query in the non-default context.
  int64_t up = rng.Uniform(8, 20);
  int64_t down = rng.Uniform(2, 7);
  int64_t alert = rng.Uniform(10, 25);
  std::ostringstream model_text;
  model_text << "CONTEXTS low, busy DEFAULT low;\nPARTITION BY seg;\n"
             << "QUERY up SWITCH CONTEXT busy PATTERN Reading r WHERE "
                "r.value > "
             << up << " CONTEXT low;\n"
             << "QUERY down SWITCH CONTEXT low PATTERN Reading r WHERE "
                "r.value <= "
             << down << " CONTEXT busy;\n"
             << "QUERY spike DERIVE Spike(r.seg AS seg, r.sec AS sec) "
                "PATTERN Reading r WHERE r.value > "
             << alert << " CONTEXT busy;\n"
             << "QUERY pair DERIVE Pair(x.sec AS s1, y.sec AS s2) "
                "PATTERN SEQ(Reading x, Reading y) WITHIN 25 "
                "WHERE x.value = y.value CONTEXT busy;\n";
  auto model = ParseModel(model_text.str(), &registry_);
  ASSERT_TRUE(model.ok()) << model.status();

  EventBatch stream;
  for (Timestamp t = 0; t < 250; ++t) {
    for (int64_t seg = 0; seg < 2; ++seg) {
      if (rng.Bernoulli(0.8)) {
        stream.push_back(MakeEvent(
            reading_, t, {Value(seg), Value(rng.Uniform(0, 30)), Value(t)}));
      }
    }
  }

  auto run_on = [&](Result<ExecutablePlan> plan, EngineOptions options,
                    const EventBatch& input) {
    CAESAR_CHECK_OK(plan.status());
    Engine engine(std::move(plan).value(), options);
    EventBatch outputs;
    engine.Run(input, &outputs).value();
    std::multiset<std::string> lines;
    for (const EventPtr& event : outputs) {
      lines.insert(event->ToString(registry_));
    }
    return lines;
  };
  auto run = [&](Result<ExecutablePlan> plan, int num_threads) {
    EngineOptions options;
    options.num_threads = num_threads;
    return run_on(std::move(plan), options, stream);
  };

  PlanOptions optimized;  // push-down + predicate push-down
  PlanOptions plain;
  plain.push_down_context_windows = false;
  plain.push_predicates_into_pattern = false;

  auto reference = run(TranslateModel(model.value(), optimized), 1);
  EXPECT_EQ(run(TranslateModel(model.value(), plain), 1), reference)
      << "seed " << GetParam();
  EXPECT_EQ(run(BaselinePlan(model.value()), 1), reference)
      << "seed " << GetParam();
  // The multi-threaded scheduler (per-partition transactions, barrier per
  // time stamp) must agree with serial execution.
  EXPECT_EQ(run(TranslateModel(model.value(), optimized), 3), reference)
      << "seed " << GetParam();

  // Reorder ingest on a bounded-delay disordered arrival order must
  // re-sequence back to the clean derived stream, at any thread count.
  const Timestamp max_delay = 3;
  EventBatch disordered = DisorderStream(stream, GetParam() + 77, max_delay);
  auto run_reorder = [&](int num_threads) {
    EngineOptions options;
    options.num_threads = num_threads;
    options.ingest_policy = IngestPolicy::kReorder;
    options.reorder_slack = max_delay;
    return run_on(TranslateModel(model.value(), optimized), options,
                  disordered);
  };
  EXPECT_EQ(run_reorder(2), reference) << "seed " << GetParam();
  EXPECT_EQ(run_reorder(4), reference) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanEquivalenceTest, ::testing::Range(0, 10));

// --- 3. Sharing transform on random window layouts --------------------------

class SharingSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SharingSweepTest, GroupingPreservesEventsAndNeverAddsWork) {
  Rng rng(GetParam() * 7 + 1);
  TypeRegistry registry;
  SyntheticConfig config;
  int windows = static_cast<int>(rng.Uniform(2, 6));
  Timestamp length = rng.Uniform(60, 160);
  Timestamp overlap = rng.Uniform(10, length - 10);
  config.windows = LayOutWindows(windows, length, overlap, 30);
  config.duration = config.windows.back().end + 60;
  config.queries_per_window = static_cast<int>(rng.Uniform(1, 4));
  config.query_within = 25;
  config.assignment = SyntheticConfig::QueryAssignment::kPerWindowCopies;
  config.seed = GetParam();

  EventBatch stream = GenerateSyntheticStream(config, &registry);
  auto model = MakeSyntheticModel(config, &registry);
  ASSERT_TRUE(model.ok()) << model.status();

  auto run = [&](bool share, RunStats* stats) {
    OptimizerOptions options;
    options.share_overlapping = share;
    auto plan = OptimizeModel(model.value(), options);
    CAESAR_CHECK_OK(plan.status());
    Engine engine(std::move(plan).value(), EngineOptions());
    EventBatch outputs;
    *stats = engine.Run(stream, &outputs).value();
    std::set<std::string> lines;
    for (const EventPtr& event : outputs) {
      lines.insert(event->ToString(registry));
    }
    return lines;
  };

  RunStats shared_stats, plain_stats;
  std::set<std::string> shared = run(true, &shared_stats);
  std::set<std::string> plain = run(false, &plain_stats);
  std::set<std::string> only_shared, only_plain;
  std::set_difference(shared.begin(), shared.end(), plain.begin(),
                      plain.end(),
                      std::inserter(only_shared, only_shared.begin()));
  std::set_difference(plain.begin(), plain.end(), shared.begin(),
                      shared.end(),
                      std::inserter(only_plain, only_plain.begin()));
  EXPECT_EQ(only_shared, std::set<std::string>()) << "seed " << GetParam();
  EXPECT_EQ(only_plain, std::set<std::string>()) << "seed " << GetParam();
  EXPECT_LE(shared_stats.ops_executed, plain_stats.ops_executed)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharingSweepTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace caesar
