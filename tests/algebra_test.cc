// Unit tests for the CAESAR algebra operators: filter, projection, context
// init/term/window, sequence pattern matching with negation, and sliding
// aggregates.

#include <gtest/gtest.h>

#include <memory>

#include "algebra/aggregate_op.h"
#include "algebra/basic_ops.h"
#include "algebra/context_ops.h"
#include "algebra/pattern_op.h"
#include "common/rng.h"
#include "compile/compiled_pattern_op.h"
#include "compile/compiler.h"
#include "expr/compiled.h"
#include "expr/parser.h"
#include "runtime/context_vector.h"

namespace caesar {
namespace {

class AlgebraTest : public ::testing::Test {
 protected:
  AlgebraTest() : contexts_(4, 0) {
    type_ = registry_.RegisterOrGet("R", {{"vid", ValueType::kInt},
                                          {"seg", ValueType::kInt},
                                          {"speed", ValueType::kDouble},
                                          {"sec", ValueType::kInt}});
    ctx_.contexts = &contexts_;
    ctx_.ops_counter = &ops_;
  }

  EventPtr MakeR(int64_t vid, int64_t seg, double speed, int64_t sec) {
    return MakeEvent(
        type_, sec, {Value(vid), Value(seg), Value(speed), Value(sec)});
  }

  std::shared_ptr<const CompiledExpr> CompilePredicate(
      const std::string& text, const BindingSet& bindings) {
    auto expr = ParseExpr(text);
    EXPECT_TRUE(expr.ok()) << expr.status();
    auto compiled = Compile(expr.value(), bindings);
    EXPECT_TRUE(compiled.ok()) << compiled.status();
    return std::shared_ptr<const CompiledExpr>(std::move(compiled).value());
  }

  BindingSet SingleBinding(const std::string& var) {
    BindingSet bindings;
    bindings.Add({var, type_, &registry_.type(type_).schema});
    return bindings;
  }

  TypeRegistry registry_;
  TypeId type_;
  ContextBitVector contexts_;
  uint64_t ops_ = 0;
  OpExecContext ctx_;
};

// --- Filter / Projection ---------------------------------------------------

TEST_F(AlgebraTest, FilterPassesSatisfyingEvents) {
  FilterOp filter(CompilePredicate("r.speed < 40", SingleBinding("r")));
  EventBatch in = {MakeR(1, 1, 30.0, 0), MakeR(2, 1, 50.0, 0),
                   MakeR(3, 1, 39.9, 0)};
  EventBatch out;
  filter.Process(in, &out, &ctx_, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0]->value(0).AsInt(), 1);
  EXPECT_EQ(out[1]->value(0).AsInt(), 3);
  EXPECT_GE(ops_, 3u);
}

TEST_F(AlgebraTest, StatelessOperatorsHaveNoState) {
  // Six of the eight kinds keep nothing per partition.
  auto config = std::make_shared<PatternOpConfig>();
  config->positions.push_back({type_, false, {}});
  config->output_type = type_;
  config->description = "R";
  std::vector<std::unique_ptr<Operator>> stateless;
  stateless.push_back(std::make_unique<FilterOp>(
      CompilePredicate("r.vid = 1", SingleBinding("r"))));
  stateless.push_back(std::make_unique<ProjectionOp>(
      type_, std::vector<std::shared_ptr<const CompiledExpr>>{}));
  stateless.push_back(
      std::make_unique<ContextWindowOp>(std::vector<int>{1}, "c1"));
  stateless.push_back(std::make_unique<ContextInitOp>(1, "c1"));
  stateless.push_back(std::make_unique<ContextTermOp>(1, "c1"));
  stateless.push_back(std::make_unique<PatternOp>(config));
  for (const auto& op : stateless) {
    EXPECT_EQ(op->NewState(), nullptr) << OperatorKindName(op->kind());
  }
}

TEST_F(AlgebraTest, ProjectionDerivesTypedEvents) {
  TypeId out_type = registry_.RegisterOrGet(
      "Toll", {{"vid", ValueType::kInt}, {"toll", ValueType::kInt}});
  std::vector<std::shared_ptr<const CompiledExpr>> args;
  args.push_back(CompilePredicate("r.vid", SingleBinding("r")));
  args.push_back(CompilePredicate("5", SingleBinding("r")));
  ProjectionOp projection(out_type, std::move(args));
  EventBatch in = {MakeR(7, 2, 33.0, 12)};
  EventBatch out;
  projection.Process(in, &out, &ctx_, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->type_id(), out_type);
  EXPECT_EQ(out[0]->value(0).AsInt(), 7);
  EXPECT_EQ(out[0]->value(1).AsInt(), 5);
  EXPECT_EQ(out[0]->time(), 12);
}

// --- Context operators -----------------------------------------------------

TEST_F(AlgebraTest, ContextInitAndTermUpdateVector) {
  ContextInitOp init(2, "busy");
  ContextTermOp term(2, "busy");
  EventBatch in = {MakeR(1, 1, 1.0, 10)};
  EventBatch out;
  init.Process(in, &out, &ctx_, nullptr);
  EXPECT_TRUE(contexts_.IsActive(2));
  EXPECT_FALSE(contexts_.IsActive(0));  // default displaced
  EXPECT_EQ(contexts_.ActiveSince(2), 10);
  EXPECT_EQ(out.size(), 1u);  // pass-through

  out.clear();
  EventBatch in2 = {MakeR(1, 1, 1.0, 20)};
  term.Process(in2, &out, &ctx_, nullptr);
  EXPECT_FALSE(contexts_.IsActive(2));
  EXPECT_TRUE(contexts_.IsActive(0));  // default restored
  EXPECT_EQ(contexts_.ActiveSince(0), 20);
}

TEST_F(AlgebraTest, ContextVectorOnlyOneWindowPerType) {
  ContextBitVector vector(4, 0);
  EXPECT_TRUE(vector.Initiate(1, 5));
  EXPECT_FALSE(vector.Initiate(1, 9));  // already active: no-op
  EXPECT_EQ(vector.ActiveSince(1), 5);
  EXPECT_TRUE(vector.Terminate(1, 12));
  EXPECT_FALSE(vector.Terminate(1, 13));
}

TEST_F(AlgebraTest, ContextVectorOverlappingWindows) {
  ContextBitVector vector(4, 0);
  vector.Initiate(1, 5);
  vector.Initiate(2, 7);  // overlap
  EXPECT_TRUE(vector.IsActive(1));
  EXPECT_TRUE(vector.IsActive(2));
  EXPECT_EQ(vector.ActiveCount(), 2);
  vector.Terminate(1, 9);
  EXPECT_TRUE(vector.IsActive(2));
  EXPECT_FALSE(vector.IsActive(0));
}

TEST_F(AlgebraTest, ContextWindowGates) {
  ContextWindowOp window({2}, "busy");
  EventBatch in = {MakeR(1, 1, 1.0, 30)};
  EventBatch out;
  // Context inactive: nothing passes.
  window.Process(in, &out, &ctx_, nullptr);
  EXPECT_TRUE(out.empty());
  // Active since t=25: event at 30 passes.
  contexts_.Initiate(2, 25);
  window.Process(in, &out, &ctx_, nullptr);
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(AlgebraTest, ContextWindowScopesComplexEventsToWindowStart) {
  ContextWindowOp window({2}, "busy");
  contexts_.Initiate(2, 25);
  // A complex event spanning [20, 30] started before the window: dropped.
  EventBatch in = {MakeComplexEvent(type_, 20, 30,
                                    {Value(int64_t{1}), Value(int64_t{1}),
                                     Value(1.0), Value(int64_t{30})})};
  EventBatch out;
  window.Process(in, &out, &ctx_, nullptr);
  EXPECT_TRUE(out.empty());
}

TEST_F(AlgebraTest, ContextWindowOrSemantics) {
  ContextWindowOp window({1, 2}, "either");
  contexts_.Initiate(1, 0);
  EventBatch in = {MakeR(1, 1, 1.0, 5)};
  EventBatch out;
  window.Process(in, &out, &ctx_, nullptr);
  EXPECT_EQ(out.size(), 1u);
}

// --- Pattern: event matching ------------------------------------------------

TEST_F(AlgebraTest, EventMatchFiltersByType) {
  TypeId other = registry_.RegisterOrGet("Other", {{"x", ValueType::kInt}});
  auto config = std::make_shared<PatternOpConfig>();
  config->positions.push_back({type_, false, {}});
  config->output_type = type_;
  PatternOp pattern(config);
  EventBatch in = {MakeR(1, 1, 1.0, 0), MakeEvent(other, 0, {Value(int64_t{1})})};
  EventBatch out;
  pattern.Process(in, &out, &ctx_, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->type_id(), type_);
}

// --- Pattern: SEQ ------------------------------------------------------------

class SeqTest : public AlgebraTest {
 protected:
  // SEQ(R a, R b) WHERE a.vid = b.vid (pushed) WITHIN 60.
  std::unique_ptr<CompiledPatternOp> MakeSeqSameVid() {
    BindingSet bindings;
    bindings.Add({"a", type_, &registry_.type(type_).schema});
    bindings.Add({"b", type_, &registry_.type(type_).schema});
    auto config = std::make_shared<PatternOpConfig>();
    config->positions.push_back({type_, false, {}});
    config->positions.push_back(
        {type_, false, {CompilePredicate("a.vid = b.vid", bindings)}});
    config->within = 60;
    std::vector<Attribute> attrs;
    for (const char* var : {"a", "b"}) {
      for (const Attribute& attr : registry_.type(type_).schema.attributes()) {
        attrs.push_back({std::string(var) + "." + attr.name, attr.type});
      }
    }
    config->output_type = registry_.RegisterOrGet("$seq_same_vid", attrs);
    config->description = "SEQ(R a, R b)";
    return std::make_unique<CompiledPatternOp>(CompilePattern(config));
  }
};

TEST_F(SeqTest, MatchesOrderedPairsWithPredicate) {
  auto seq = MakeSeqSameVid();
  CompiledPatternOp::State state(&seq->automaton());
  EventBatch out;
  seq->Process({MakeR(1, 1, 10.0, 0)}, &out, &ctx_, &state);
  EXPECT_TRUE(out.empty());
  seq->Process({MakeR(2, 1, 10.0, 5)}, &out, &ctx_, &state);
  EXPECT_TRUE(out.empty());  // different vid
  seq->Process({MakeR(1, 1, 20.0, 10)}, &out, &ctx_, &state);
  ASSERT_EQ(out.size(), 1u);
  // Composite event: a.* then b.*, interval [0, 10].
  EXPECT_EQ(out[0]->start_time(), 0);
  EXPECT_EQ(out[0]->end_time(), 10);
  EXPECT_EQ(out[0]->value(0).AsInt(), 1);        // a.vid
  EXPECT_DOUBLE_EQ(out[0]->value(6).AsDouble(), 20.0);  // b.speed
}

TEST_F(SeqTest, StrictTimeOrdering) {
  auto seq = MakeSeqSameVid();
  CompiledPatternOp::State state(&seq->automaton());
  EventBatch out;
  // Two events with the same time stamp cannot form a sequence.
  seq->Process({MakeR(1, 1, 10.0, 5), MakeR(1, 1, 20.0, 5)}, &out, &ctx_,
               &state);
  EXPECT_TRUE(out.empty());
}

TEST_F(SeqTest, SkipTillAnyMatchProducesAllCombinations) {
  auto seq = MakeSeqSameVid();
  CompiledPatternOp::State state(&seq->automaton());
  EventBatch out;
  seq->Process({MakeR(1, 1, 1.0, 0)}, &out, &ctx_, &state);
  seq->Process({MakeR(1, 1, 2.0, 10)}, &out, &ctx_, &state);
  seq->Process({MakeR(1, 1, 3.0, 20)}, &out, &ctx_, &state);
  // Pairs: (0,10), (0,20), (10,20).
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(SeqTest, WithinBoundExpiresPartials) {
  auto seq = MakeSeqSameVid();
  CompiledPatternOp::State state(&seq->automaton());
  EventBatch out;
  seq->Process({MakeR(1, 1, 1.0, 0)}, &out, &ctx_, &state);
  EXPECT_EQ(state.num_runs(), 1u);
  // Beyond WITHIN=60.
  seq->Process({MakeR(1, 1, 2.0, 100)}, &out, &ctx_, &state);
  EXPECT_TRUE(out.empty());
  // The stale partial was expired; the new event started a fresh one.
  EXPECT_EQ(state.num_runs(), 1u);
}

TEST_F(SeqTest, ResetDiscardsState) {
  auto seq = MakeSeqSameVid();
  CompiledPatternOp::State state(&seq->automaton());
  EventBatch out;
  seq->Process({MakeR(1, 1, 1.0, 0)}, &out, &ctx_, &state);
  state.Reset();
  EXPECT_EQ(state.num_runs(), 0u);
  seq->Process({MakeR(1, 1, 2.0, 10)}, &out, &ctx_, &state);
  EXPECT_TRUE(out.empty());  // no partial to complete
}

class NegationTest : public AlgebraTest {
 protected:
  // SEQ(NOT R p1, R p2) WHERE p1.sec + 30 = p2.sec AND p1.vid = p2.vid
  // WITHIN 60 — the NewTravelingCar query of Fig. 3.
  std::unique_ptr<CompiledPatternOp> MakeNewCarSeq() {
    BindingSet bindings;
    bindings.Add({"p1", type_, &registry_.type(type_).schema});
    bindings.Add({"p2", type_, &registry_.type(type_).schema});
    auto config = std::make_shared<PatternOpConfig>();
    config->positions.push_back(
        {type_, true,
         {CompilePredicate("p1.sec + 30 = p2.sec AND p1.vid = p2.vid",
                           bindings)}});
    config->positions.push_back({type_, false, {}});
    config->within = 60;
    std::vector<Attribute> attrs;
    for (const Attribute& attr : registry_.type(type_).schema.attributes()) {
      attrs.push_back({"p2." + attr.name, attr.type});
    }
    config->output_type = registry_.RegisterOrGet("$seq_newcar", attrs);
    config->description = "SEQ(NOT R p1, R p2)";
    return std::make_unique<CompiledPatternOp>(CompilePattern(config));
  }
};

TEST_F(NegationTest, LeadingNegationBlocksMatch) {
  auto seq = MakeNewCarSeq();
  CompiledPatternOp::State state(&seq->automaton());
  EventBatch out;
  // vid 1 reported at 0; its report at 30 is NOT new (blocked).
  seq->Process({MakeR(1, 1, 1.0, 0)}, &out, &ctx_, &state);
  EXPECT_EQ(out.size(), 1u);  // the t=0 report itself is new
  out.clear();
  seq->Process({MakeR(1, 1, 1.0, 30)}, &out, &ctx_, &state);
  EXPECT_TRUE(out.empty());
}

TEST_F(NegationTest, NoPriorReportMeansNewCar) {
  auto seq = MakeNewCarSeq();
  CompiledPatternOp::State state(&seq->automaton());
  EventBatch out;
  seq->Process({MakeR(1, 1, 1.0, 0)}, &out, &ctx_, &state);
  seq->Process({MakeR(2, 1, 1.0, 30)}, &out, &ctx_, &state);  // different vid
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1]->value(0).AsInt(), 2);
}

TEST_F(NegationTest, GapLongerThanPredicateAllowsMatch) {
  auto seq = MakeNewCarSeq();
  CompiledPatternOp::State state(&seq->automaton());
  EventBatch out;
  seq->Process({MakeR(1, 1, 1.0, 0)}, &out, &ctx_, &state);
  out.clear();
  // 60 seconds later: the predicate (sec+30) does not tie them.
  seq->Process({MakeR(1, 1, 1.0, 60)}, &out, &ctx_, &state);
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(AlgebraTest, MiddleNegationChecksInterval) {
  // SEQ(R a, NOT R n, R b) with n.vid = a.vid: no event of the same vid
  // strictly between a and b.
  BindingSet bindings;
  bindings.Add({"a", type_, &registry_.type(type_).schema});
  bindings.Add({"n", type_, &registry_.type(type_).schema});
  bindings.Add({"b", type_, &registry_.type(type_).schema});
  auto config = std::make_shared<PatternOpConfig>();
  config->positions.push_back({type_, false, {}});
  config->positions.push_back(
      {type_, true, {CompilePredicate("n.vid = a.vid", bindings)}});
  config->positions.push_back(
      {type_, false, {CompilePredicate("a.vid = b.vid", bindings)}});
  config->within = 100;
  config->output_type = registry_.RegisterOrGet(
      "$seq_mid", {{"a.vid", ValueType::kInt},
                   {"a.seg", ValueType::kInt},
                   {"a.speed", ValueType::kDouble},
                   {"a.sec", ValueType::kInt},
                   {"b.vid", ValueType::kInt},
                   {"b.seg", ValueType::kInt},
                   {"b.speed", ValueType::kDouble},
                   {"b.sec", ValueType::kInt}});
  config->description = "SEQ(R a, NOT R n, R b)";
  CompiledPatternOp seq(CompilePattern(config));
  CompiledPatternOp::State state(&seq.automaton());

  EventBatch out;
  seq.Process({MakeR(1, 1, 1.0, 0)}, &out, &ctx_, &state);
  // Another vid: no block.
  seq.Process({MakeR(2, 1, 1.0, 5)}, &out, &ctx_, &state);
  seq.Process({MakeR(1, 1, 1.0, 10)}, &out, &ctx_, &state);
  // Match (0 -> 10): no vid-1 event strictly inside (0, 10)? There is none
  // (the vid-2 event does not satisfy the negation predicate).
  ASSERT_EQ(out.size(), 1u);
  out.clear();
  seq.Process({MakeR(1, 1, 1.0, 20)}, &out, &ctx_, &state);
  // Candidate matches ending at 20: (0,20) blocked by the event at 10;
  // (10,20) passes.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->start_time(), 10);
}

// --- Aggregates --------------------------------------------------------------

TEST_F(AlgebraTest, AggregateCountAvgWithHaving) {
  // Per segment: count and average speed over 60 ticks, emitting when
  // count >= 3 AND avg < 40 (the congestion condition, scaled down).
  auto config = std::make_shared<AggregateOpConfig>();
  config->input_type = type_;
  config->group_by = {1};  // seg
  config->aggregates = {{AggregateFunc::kCount, -1},
                        {AggregateFunc::kAvg, 2}};
  config->window_length = 60;
  TypeId out_type = registry_.RegisterOrGet(
      "$agg", {{"seg", ValueType::kInt},
               {"cars", ValueType::kInt},
               {"avg_speed", ValueType::kDouble}});
  config->output_type = out_type;
  {
    BindingSet bindings;
    bindings.Add({"g", out_type, &registry_.type(out_type).schema});
    auto having = ParseExpr("g.cars >= 3 AND g.avg_speed < 40");
    ASSERT_TRUE(having.ok());
    auto compiled = Compile(having.value(), bindings);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    config->having =
        std::shared_ptr<const CompiledExpr>(std::move(compiled).value());
  }
  config->description = "congestion";
  AggregateOp agg(config);
  AggregateOp::State state;

  EventBatch out;
  agg.Process({MakeR(1, 7, 30.0, 0)}, &out, &ctx_, &state);
  agg.Process({MakeR(2, 7, 35.0, 10)}, &out, &ctx_, &state);
  EXPECT_TRUE(out.empty());  // only 2 cars
  agg.Process({MakeR(3, 7, 20.0, 20)}, &out, &ctx_, &state);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->value(0).AsInt(), 7);
  EXPECT_EQ(out[0]->value(1).AsInt(), 3);
  EXPECT_NEAR(out[0]->value(2).AsDouble(), 28.33, 0.01);

  // Fast traffic does not trigger.
  out.clear();
  agg.Process({MakeR(4, 7, 80.0, 25)}, &out, &ctx_, &state);
  EXPECT_TRUE(out.empty());  // avg now >= 40? (30+35+20+80)/4 = 41.25
}

TEST_F(AlgebraTest, AggregateSlidingEviction) {
  auto config = std::make_shared<AggregateOpConfig>();
  config->input_type = type_;
  config->group_by = {1};
  config->aggregates = {{AggregateFunc::kCount, -1}};
  config->window_length = 50;
  config->output_type = registry_.RegisterOrGet(
      "$agg2", {{"seg", ValueType::kInt}, {"n", ValueType::kInt}});
  config->description = "count";
  AggregateOp agg(config);
  AggregateOp::State state;

  EventBatch out;
  agg.Process({MakeR(1, 1, 1.0, 0)}, &out, &ctx_, &state);
  agg.Process({MakeR(2, 1, 1.0, 30)}, &out, &ctx_, &state);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1]->value(1).AsInt(), 2);
  out.clear();
  // At t=60 the t=0 sample left the 50-tick window.
  agg.Process({MakeR(3, 1, 1.0, 60)}, &out, &ctx_, &state);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->value(1).AsInt(), 2);  // samples at 30 and 60
}

TEST_F(AlgebraTest, AggregateMinMax) {
  auto config = std::make_shared<AggregateOpConfig>();
  config->input_type = type_;
  config->group_by = {};
  config->aggregates = {{AggregateFunc::kMin, 2}, {AggregateFunc::kMax, 2},
                        {AggregateFunc::kSum, 2}};
  config->window_length = 100;
  config->output_type = registry_.RegisterOrGet(
      "$agg3", {{"lo", ValueType::kDouble},
                {"hi", ValueType::kDouble},
                {"sum", ValueType::kDouble}});
  config->description = "minmax";
  AggregateOp agg(config);
  AggregateOp::State state;
  EventBatch out;
  agg.Process({MakeR(1, 1, 5.0, 0), MakeR(2, 1, 9.0, 1), MakeR(3, 1, 2.0, 2)},
              &out, &ctx_, &state);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[2]->value(0).AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(out[2]->value(1).AsDouble(), 9.0);
  EXPECT_DOUBLE_EQ(out[2]->value(2).AsDouble(), 16.0);
}

TEST_F(AlgebraTest, AggregateStatesAreIndependent) {
  auto config = std::make_shared<AggregateOpConfig>();
  config->input_type = type_;
  config->group_by = {1};
  config->aggregates = {{AggregateFunc::kCount, -1}};
  config->window_length = 100;
  config->output_type = registry_.RegisterOrGet(
      "$agg4", {{"seg", ValueType::kInt}, {"n", ValueType::kInt}});
  config->description = "count";
  AggregateOp agg(config);
  std::unique_ptr<OperatorState> first = agg.NewState();
  std::unique_ptr<OperatorState> second = agg.NewState();
  auto groups = [](const std::unique_ptr<OperatorState>& state) {
    return static_cast<const AggregateOp::State&>(*state).num_groups();
  };
  EXPECT_EQ(groups(first), 0u);  // a fresh state starts empty
  EventBatch out;
  agg.Process({MakeR(1, 1, 1.0, 0), MakeR(2, 2, 1.0, 0)}, &out, &ctx_,
              first.get());
  EXPECT_EQ(groups(first), 2u);
  EXPECT_EQ(groups(second), 0u);

  // The second state counts from zero: it shares no group with the first.
  out.clear();
  agg.Process({MakeR(3, 1, 1.0, 5)}, &out, &ctx_, second.get());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->value(1).AsInt(), 1);
  EXPECT_EQ(groups(first), 2u);

  first->Reset();
  EXPECT_EQ(groups(first), 0u);
  EXPECT_EQ(groups(second), 1u);
}

TEST_F(AlgebraTest, AggregateExpiryFreesEmptyGroups) {
  // One new key per tick, WINDOW 10: only the last 10 keys hold a sample
  // in the window, and expiry must free every other group.
  auto config = std::make_shared<AggregateOpConfig>();
  config->input_type = type_;
  config->group_by = {1};
  config->aggregates = {{AggregateFunc::kCount, -1}};
  config->window_length = 10;
  config->output_type = registry_.RegisterOrGet(
      "$agg5", {{"seg", ValueType::kInt}, {"n", ValueType::kInt}});
  config->description = "count";
  AggregateOp agg(config);
  AggregateOp::State state;
  EventBatch out;
  for (int64_t t = 1; t <= 100000; ++t) {
    out.clear();
    agg.Process({MakeR(1, t, 1.0, t)}, &out, &ctx_, &state);
    if (t % 100 == 0) {
      state.ExpireBefore(t - config->window_length + 1);
      ASSERT_LE(state.num_groups(), 10u) << "at tick " << t;
    }
  }
  // A key whose group was freed starts a new group with a fresh count.
  out.clear();
  agg.Process({MakeR(1, 5, 1.0, 100001)}, &out, &ctx_, &state);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->value(1).AsInt(), 1);
}


TEST_F(AlgebraTest, AggregateSumHasNoDrift) {
  // WINDOW 1 holds one sample at a time, so each SUM is that sample's value
  // exactly. A running sum that subtracts evicted samples would round 1.0
  // away next to 1e16 and carry the error to every later output.
  auto config = std::make_shared<AggregateOpConfig>();
  config->input_type = type_;
  config->group_by = {};
  config->aggregates = {{AggregateFunc::kSum, 2}};
  config->window_length = 1;
  config->output_type =
      registry_.RegisterOrGet("$agg6", {{"sum", ValueType::kDouble}});
  config->description = "sum";
  AggregateOp agg(config);
  AggregateOp::State state;
  EventBatch out;
  agg.Process({MakeR(1, 1, 1e16, 0), MakeR(2, 1, 1.0, 1), MakeR(3, 1, 0.1, 2),
               MakeR(4, 1, 0.2, 3)},
              &out, &ctx_, &state);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0]->value(0).AsDouble(), 1e16);
  EXPECT_EQ(out[1]->value(0).AsDouble(), 1.0);
  EXPECT_EQ(out[2]->value(0).AsDouble(), 0.1);
  EXPECT_EQ(out[3]->value(0).AsDouble(), 0.2);
}

// Aggregate operator vs a brute-force sliding-window oracle.
class AggregateOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(AggregateOracleTest, CountAndAvgMatchBruteForce) {
  Rng rng(GetParam() + 77);
  TypeRegistry registry;
  TypeId type = registry.RegisterOrGet("R", {{"key", ValueType::kInt},
                                             {"v", ValueType::kDouble}});
  const Timestamp window = 15;

  auto config = std::make_shared<AggregateOpConfig>();
  config->input_type = type;
  config->group_by = {0};
  config->aggregates = {{AggregateFunc::kCount, -1},
                        {AggregateFunc::kAvg, 1},
                        {AggregateFunc::kMax, 1}};
  config->window_length = window;
  config->output_type = registry.RegisterOrGet(
      "$agg_oracle", {{"key", ValueType::kInt},
                      {"cnt", ValueType::kInt},
                      {"avg", ValueType::kDouble},
                      {"max", ValueType::kDouble}});
  config->description = "oracle";
  AggregateOp agg(config);
  AggregateOp::State state;

  ContextBitVector contexts(2, 0);
  uint64_t ops = 0;
  OpExecContext ctx;
  ctx.contexts = &contexts;
  ctx.ops_counter = &ops;

  EventBatch stream;
  Timestamp t = 0;
  for (int i = 0; i < 120; ++i) {
    t += rng.Uniform(0, 2);
    stream.push_back(MakeEvent(
        type, t, {Value(rng.Uniform(0, 2)), Value(rng.UniformReal(0, 10))}));
  }

  EventBatch outputs;
  agg.Process(stream, &outputs, &ctx, &state);
  ASSERT_EQ(outputs.size(), stream.size());

  for (size_t i = 0; i < stream.size(); ++i) {
    const EventPtr& trigger = stream[i];
    int64_t key = trigger->value(0).AsInt();
    // Brute force: same-key events with time in (t - window, t], folded
    // oldest to newest, so the outputs must match bit for bit.
    int64_t count = 0;
    double sum = 0.0;
    double max_value = -1e300;
    for (size_t j = 0; j <= i; ++j) {
      if (stream[j]->value(0).AsInt() != key) continue;
      if (stream[j]->time() <= trigger->time() - window) continue;
      ++count;
      double v = stream[j]->value(1).AsDouble();
      sum += v;
      max_value = std::max(max_value, v);
    }
    EXPECT_EQ(outputs[i]->value(1).AsInt(), count) << "event " << i;
    EXPECT_EQ(outputs[i]->value(2).AsDouble(), sum / count) << "event " << i;
    EXPECT_EQ(outputs[i]->value(3).AsDouble(), max_value) << "event " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateOracleTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace caesar
