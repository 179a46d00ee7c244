// Tests for src/compile: the pattern-to-automaton compiler and the
// automaton-backed pattern operator.
//
// The compile corpus (tests/compile_corpus/*.caesar) pins the compiler's
// deterministic dump byte-for-byte, one fixture per pattern shape: SEQ
// depth 1 (pass-through) through 4, interior and leading negation,
// equality keys, the default WITHIN, and a consumer chain over a derived
// type. Goldens are regenerable with `caesar_lint --dump-automaton
// <fixture>`. SEQ matching semantics are pinned against brute force in
// property_test and the algebra SEQ tests; the cases here cover the
// compiler, the operator's run bookkeeping, one emission-order golden, and
// equality keys (which conjuncts key, and that keyed matching keeps Value
// equality semantics across a checkpoint round trip).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>
#include <string>
#include <vector>

#include "algebra/pattern_op.h"
#include "compile/automaton.h"
#include "compile/compiled_pattern_op.h"
#include "compile/compiler.h"
#include "durability/serde.h"
#include "expr/compiled.h"
#include "expr/parser.h"
#include "plan/translator.h"
#include "query/model.h"
#include "query/parser.h"
#include "runtime/context_vector.h"

namespace caesar {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Mirrors `caesar_lint --dump-automaton`: strict parse, translate with
// default options (absint as given), dump every pattern query's automaton.
std::string DumpFixture(const std::filesystem::path& path,
                        bool absint = true) {
  TypeRegistry registry;
  ParseModelOptions parse_options;
  parse_options.source_name = path.filename().string();
  auto model = ParseModel(ReadFile(path), &registry, parse_options);
  EXPECT_TRUE(model.ok()) << model.status();
  if (!model.ok()) return "<parse error>";
  PlanOptions plan_options;
  plan_options.absint = absint;
  auto dumped = DumpModelAutomatons(model.value(), plan_options);
  EXPECT_TRUE(dumped.ok()) << dumped.status();
  return dumped.ok() ? dumped.value() : "<dump error>";
}

TEST(CompileCorpusTest, FixturesMatchGoldens) {
  const std::filesystem::path dir =
      std::filesystem::path(CAESAR_TEST_SRCDIR) / "compile_corpus";
  int fixtures = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".caesar") continue;
    ++fixtures;
    std::filesystem::path golden = entry.path();
    golden.replace_extension(".expected");
    EXPECT_EQ(DumpFixture(entry.path()), ReadFile(golden))
        << "fixture " << entry.path().filename()
        << " drifted; regenerate with tools/caesar_lint --dump-automaton";
  }
  EXPECT_GE(fixtures, 11) << "compile corpus went missing";
}

TEST(CompileCorpusTest, NoAbsintGoldensMatchWithPassDisabled) {
  // Paired goldens: every *.noabsint.expected pins the same fixture's
  // dump with the abstract-interpretation pass switched off — the
  // documented "off switch is byte-identical to a compiler without the
  // pass" contract.
  const std::filesystem::path dir =
      std::filesystem::path(CAESAR_TEST_SRCDIR) / "compile_corpus";
  int paired = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const std::string suffix = ".noabsint.expected";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    ++paired;
    std::filesystem::path fixture = dir / name;
    fixture.replace_extension().replace_extension(".caesar");
    EXPECT_EQ(DumpFixture(fixture, /*absint=*/false), ReadFile(entry.path()))
        << "fixture " << fixture.filename()
        << " drifted; regenerate with tools/caesar_lint --dump-automaton "
           "--no-absint";
  }
  EXPECT_GE(paired, 3) << "no-absint goldens went missing";
}

TEST(CompileCorpusTest, DumpIsDeterministic) {
  const std::filesystem::path dir =
      std::filesystem::path(CAESAR_TEST_SRCDIR) / "compile_corpus";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".caesar") continue;
    EXPECT_EQ(DumpFixture(entry.path()), DumpFixture(entry.path()))
        << entry.path().filename();
  }
}

// ---- Compiler unit tests ---------------------------------------------

class CompileTest : public ::testing::Test {
 protected:
  CompileTest() : contexts_(4, 0) {
    a_type_ = registry_.RegisterOrGet("A", {{"x", ValueType::kInt}});
    b_type_ = registry_.RegisterOrGet("B", {{"x", ValueType::kInt}});
    out_type_ = registry_.RegisterOrGet(
        "AB", {{"a.x", ValueType::kInt}, {"b.x", ValueType::kInt}});
    ctx_.contexts = &contexts_;
    ctx_.ops_counter = &ops_;
  }

  EventPtr MakeA(int64_t x, Timestamp t) {
    return MakeEvent(a_type_, t, {Value(x)});
  }
  EventPtr MakeB(int64_t x, Timestamp t) {
    return MakeEvent(b_type_, t, {Value(x)});
  }

  // Compiles `text` against bindings (a: A, b: B) in slot order.
  std::shared_ptr<const CompiledExpr> Predicate(const std::string& text) {
    BindingSet bindings;
    bindings.Add({"a", a_type_, &registry_.type(a_type_).schema});
    bindings.Add({"b", b_type_, &registry_.type(b_type_).schema});
    auto expr = ParseExpr(text);
    EXPECT_TRUE(expr.ok()) << expr.status();
    auto compiled = Compile(expr.value(), bindings);
    EXPECT_TRUE(compiled.ok()) << compiled.status();
    return std::shared_ptr<const CompiledExpr>(std::move(compiled).value());
  }

  // SEQ(A a, B b) WITHIN `within` with `predicates` on the B position.
  std::shared_ptr<const PatternOpConfig> SeqABConfig(
      Timestamp within,
      std::vector<std::shared_ptr<const CompiledExpr>> predicates = {}) {
    auto config = std::make_shared<PatternOpConfig>();
    config->positions.resize(2);
    config->positions[0].type_id = a_type_;
    config->positions[1].type_id = b_type_;
    config->positions[1].predicates = std::move(predicates);
    config->output_type = out_type_;
    config->within = within;
    config->description = "SEQ(A a, B b)";
    return config;
  }

  TypeRegistry registry_;
  TypeId a_type_ = kInvalidTypeId;
  TypeId b_type_ = kInvalidTypeId;
  TypeId out_type_ = kInvalidTypeId;
  ContextBitVector contexts_;
  uint64_t ops_ = 0;
  OpExecContext ctx_;
};

TEST_F(CompileTest, PredicatesSortByExpectedCostPerRejection) {
  // Config order: ordering guard (sel 0.5) before equality guard (sel 0.1).
  // Equal cost, so the equality guard's better rejection rate wins.
  auto automaton = CompilePattern(
      SeqABConfig(10, {Predicate("b.x > a.x"), Predicate("b.x = 3")}));
  ASSERT_EQ(automaton->transitions.size(), 2u);
  const auto& guards = automaton->transitions[1].predicates;
  ASSERT_EQ(guards.size(), 2u);
  EXPECT_EQ(guards[0].config_index, 1);  // b.x = 3
  EXPECT_EQ(guards[1].config_index, 0);  // b.x > a.x
  EXPECT_LT(guards[0].rank(), guards[1].rank());
}

TEST_F(CompileTest, DispatchCoversNonInitialStates) {
  auto automaton = CompilePattern(SeqABConfig(10));
  EXPECT_EQ(automaton->num_states(), 3);
  // State 0 is fed by fresh events, not the dispatch table.
  EXPECT_EQ(automaton->StatesAwaiting(a_type_), nullptr);
  const std::vector<int>* awaiting_b = automaton->StatesAwaiting(b_type_);
  ASSERT_NE(awaiting_b, nullptr);
  ASSERT_EQ(awaiting_b->size(), 1u);
  EXPECT_EQ((*awaiting_b)[0], 1);
}

// ---- Operator semantics ------------------------------------------------

TEST_F(CompileTest, CompiledMatchesInterpretedOnSeq) {
  // Interleaved batch with multiple live runs, a predicate reject (B 0 < A 1),
  // a within reject (B at t=15 vs A at t=1), and two matches. The expected
  // matches are the ones the interpreted matcher derived, in its emission
  // order (runs in creation order): (A 1, B 2), then (A 2, B 2).
  CompiledPatternOp op(
      CompilePattern(SeqABConfig(10, {Predicate("b.x >= a.x")})));
  CompiledPatternOp::State state(&op.automaton());
  EventBatch input = {MakeA(1, 1), MakeA(2, 2), MakeB(0, 3),
                      MakeB(2, 4),  MakeA(5, 5), MakeB(2, 15)};
  EventBatch out;
  op.Process(input, &out, &ctx_, &state);
  ASSERT_EQ(out.size(), 2u);
  const int64_t expected[2][4] = {{1, 4, 1, 2}, {2, 4, 2, 2}};
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i]->start_time(), expected[i][0]) << i;
    EXPECT_EQ(out[i]->end_time(), expected[i][1]) << i;
    EXPECT_EQ(out[i]->value(0).AsInt(), expected[i][2]) << i;
    EXPECT_EQ(out[i]->value(1).AsInt(), expected[i][3]) << i;
  }
}

TEST_F(CompileTest, ExpiryDropsStaleRuns) {
  CompiledPatternOp op(CompilePattern(SeqABConfig(10)));
  CompiledPatternOp::State state(&op.automaton());
  EventBatch out;
  EventBatch first = {MakeA(1, 0), MakeA(2, 5)};
  op.Process(first, &out, &ctx_, &state);
  EXPECT_EQ(state.num_runs(), 2u);
  // Batch at t=100: everything older than 100 - within expires up front.
  EventBatch second = {MakeA(3, 100)};
  op.Process(second, &out, &ctx_, &state);
  EXPECT_EQ(state.num_runs(), 1u);
  state.Reset();
  EXPECT_EQ(state.num_runs(), 0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(CompileTest, StatesAreIndependent) {
  CompiledPatternOp op(
      CompilePattern(SeqABConfig(10, {Predicate("b.x >= a.x")})));
  std::unique_ptr<OperatorState> first = op.NewState();
  std::unique_ptr<OperatorState> second = op.NewState();
  auto runs = [](const std::unique_ptr<OperatorState>& state) {
    return static_cast<const CompiledPatternOp::State&>(*state).num_runs();
  };
  EXPECT_EQ(runs(first), 0u);  // a fresh state starts empty
  EventBatch out;
  op.Process({MakeA(1, 0)}, &out, &ctx_, first.get());
  EXPECT_EQ(runs(first), 1u);
  EXPECT_EQ(runs(second), 0u);
  // The run lives in the first state only: B completes it there and
  // nowhere else.
  op.Process({MakeB(2, 1)}, &out, &ctx_, second.get());
  EXPECT_TRUE(out.empty());
  op.Process({MakeB(2, 1)}, &out, &ctx_, first.get());
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(CompileTest, CostEstimatesMatchInterpretedOperator) {
  // The interpreted operator's static estimates carry over unchanged, so
  // plan costs do not move: a SEQ costs two units per position and is
  // selective; event matching is a type probe that passes its type.
  CompiledPatternOp seq(CompilePattern(SeqABConfig(10)));
  EXPECT_EQ(seq.UnitCost(), 4.0);
  EXPECT_EQ(seq.Selectivity(), 0.2);
  auto config = std::make_shared<PatternOpConfig>();
  config->positions.resize(1);
  config->positions[0].type_id = a_type_;
  config->output_type = a_type_;
  PatternOp match(config);
  EXPECT_EQ(match.UnitCost(), 1.0);
  EXPECT_EQ(match.Selectivity(), 1.0);
}

// ---- Equality keys -----------------------------------------------------

TEST_F(CompileTest, EqualityAcrossSlotsIsATransitionKey) {
  for (const char* text : {"b.x = a.x", "a.x = b.x"}) {
    auto automaton = CompilePattern(SeqABConfig(10, {Predicate(text)}));
    const EqualityKey& key = automaton->transitions[1].key;
    ASSERT_TRUE(key.valid()) << text;
    EXPECT_EQ(key.stored_slot, 0) << text;
    EXPECT_EQ(key.stored_attr, 0) << text;
    EXPECT_EQ(key.probe_slot, 1) << text;
    EXPECT_EQ(key.probe_attr, 0) << text;
    EXPECT_FALSE(automaton->transitions[0].key.valid());
  }
}

TEST_F(CompileTest, OnlyAttrEqualsAttrOverTwoSlotsIsAKey) {
  for (const char* text : {"b.x != a.x", "b.x < a.x", "b.x = a.x + 1",
                           "b.x = 3", "b.x = b.x"}) {
    auto automaton = CompilePattern(SeqABConfig(10, {Predicate(text)}));
    EXPECT_FALSE(automaton->transitions[1].key.valid()) << text;
  }
}

TEST_F(CompileTest, FirstKeyedGuardInConfigOrderWins) {
  // The constant guard ranks first, but the key is the first key-shaped
  // guard in config order.
  auto automaton = CompilePattern(SeqABConfig(
      10, {Predicate("b.x > a.x"), Predicate("b.x = a.x"),
           Predicate("a.x = b.x")}));
  const EqualityKey& key = automaton->transitions[1].key;
  ASSERT_TRUE(key.valid());
  EXPECT_EQ(key.conjunct->ToString(), "(b.x = a.x)");
}

TEST_F(CompileTest, NegationKeyIsStoredOnTheNegatedSlot) {
  auto config = std::make_shared<PatternOpConfig>(*SeqABConfig(10));
  config->positions[0].negated = true;
  config->positions[0].predicates = {Predicate("a.x != b.x"),
                                     Predicate("b.x = a.x")};
  auto automaton = CompilePattern(config);
  ASSERT_EQ(automaton->negations.size(), 1u);
  const EqualityKey& key = automaton->negations[0].key;
  ASSERT_TRUE(key.valid());
  EXPECT_EQ(key.stored_slot, 0);
  EXPECT_EQ(key.probe_slot, 1);
}

// Keys filter on Value::Hash, but matching keeps Value::Equals semantics
// under the evaluator's null rule: int 1 equals double 1.0, strings compare
// by content, and a null key never equals anything (not even null).
class KeyedMatchTest : public ::testing::Test {
 protected:
  KeyedMatchTest() : contexts_(4, 0) {
    const std::vector<Attribute> schema = {{"i", ValueType::kInt},
                                           {"d", ValueType::kDouble},
                                           {"s", ValueType::kString}};
    l_type_ = registry_.RegisterOrGet("L", schema);
    r_type_ = registry_.RegisterOrGet("R", schema);
    out_type_ = registry_.RegisterOrGet("LR", schema);
    ctx_.contexts = &contexts_;
    ctx_.ops_counter = &ops_;
  }

  EventPtr L(Timestamp t, Value i, Value d, Value s) {
    return MakeEvent(l_type_, t, {std::move(i), std::move(d), std::move(s)});
  }
  EventPtr R(Timestamp t, Value i, Value d, Value s) {
    return MakeEvent(r_type_, t, {std::move(i), std::move(d), std::move(s)});
  }

  // SEQ(L a, R b) keyed by `where` on b, or SEQ(NOT L a, R b) with `where`
  // as the negation condition.
  std::shared_ptr<const CompiledAutomaton> Seq(bool negated,
                                               const std::string& where) {
    BindingSet bindings;
    bindings.Add({"a", l_type_, &registry_.type(l_type_).schema});
    bindings.Add({"b", r_type_, &registry_.type(r_type_).schema});
    auto compiled = Compile(ParseExpr(where).value(), bindings);
    EXPECT_TRUE(compiled.ok()) << compiled.status();
    auto config = std::make_shared<PatternOpConfig>();
    config->positions.resize(2);
    config->positions[0].type_id = l_type_;
    config->positions[0].negated = negated;
    config->positions[1].type_id = r_type_;
    config->positions[negated ? 0 : 1].predicates.push_back(
        std::shared_ptr<const CompiledExpr>(std::move(compiled).value()));
    config->output_type = out_type_;
    config->within = 10;
    auto automaton = CompilePattern(config);
    EXPECT_TRUE(negated ? automaton->negations[0].key.valid()
                        : automaton->transitions[1].key.valid())
        << where;
    return automaton;
  }

  size_t Matches(bool negated, const std::string& where,
                 const EventBatch& input) {
    CompiledPatternOp op(Seq(negated, where));
    CompiledPatternOp::State state(&op.automaton());
    EventBatch out;
    op.Process(input, &out, &ctx_, &state);
    return out.size();
  }

  TypeRegistry registry_;
  TypeId l_type_ = kInvalidTypeId;
  TypeId r_type_ = kInvalidTypeId;
  TypeId out_type_ = kInvalidTypeId;
  ContextBitVector contexts_;
  uint64_t ops_ = 0;
  OpExecContext ctx_;
};

TEST_F(KeyedMatchTest, IntEqualsDoubleExtendsAndBlocks) {
  const Value one(int64_t{1});
  const EventBatch equal = {L(1, Value(int64_t{7}), Value(1.0), Value("x")),
                            R(2, one, Value(2.5), Value("y"))};
  const EventBatch unequal = {L(1, Value(int64_t{7}), Value(1.5), Value("x")),
                              R(2, one, Value(2.5), Value("y"))};
  EXPECT_EQ(Matches(false, "b.i = a.d", equal), 1u);
  EXPECT_EQ(Matches(false, "b.i = a.d", unequal), 0u);
  EXPECT_EQ(Matches(true, "a.d = b.i", equal), 0u);    // blocked
  EXPECT_EQ(Matches(true, "a.d = b.i", unequal), 1u);  // not blocked
}

TEST_F(KeyedMatchTest, NullKeyNeverExtendsOrBlocks) {
  for (const EventBatch& input :
       {EventBatch{L(1, Value(), Value(), Value()),
                   R(2, Value(), Value(), Value())},
        EventBatch{L(1, Value(), Value(), Value()),
                   R(2, Value(int64_t{0}), Value(0.0), Value(""))}}) {
    EXPECT_EQ(Matches(false, "b.i = a.d", input), 0u);
    EXPECT_EQ(Matches(false, "b.s = a.s", input), 0u);
    EXPECT_EQ(Matches(true, "a.d = b.i", input), 1u);
    EXPECT_EQ(Matches(true, "a.s = b.s", input), 1u);
  }
}

TEST_F(KeyedMatchTest, StringKeysCompareByContent) {
  const Value zero(int64_t{0});
  const EventBatch input = {L(1, zero, Value(0.0), Value("car-7")),
                            L(2, zero, Value(0.0), Value("car-8")),
                            R(3, zero, Value(0.0), Value(std::string("car-") +
                                                         "8"))};
  EXPECT_EQ(Matches(false, "b.s = a.s", input), 1u);  // only car-8
  EXPECT_EQ(Matches(true, "a.s = b.s", input), 0u);   // car-8 blocks
  const EventBatch other = {L(1, zero, Value(0.0), Value("car-7")),
                            R(3, zero, Value(0.0), Value("car-9"))};
  EXPECT_EQ(Matches(false, "b.s = a.s", other), 0u);
  EXPECT_EQ(Matches(true, "a.s = b.s", other), 1u);
}

TEST_F(KeyedMatchTest, CheckpointRoundTripRecomputesTags) {
  // SEQ(NOT R n, L a, R b) WITHIN 10 WHERE n.i = a.i AND b.i = a.i: a
  // keyed leading NOT and a keyed transition. A restored operator and the
  // uninterrupted one must derive the same stream after the checkpoint,
  // and only recomputed tags let restored runs (keys 7, 5, 9) extend and
  // the restored buffered R 5 block.
  BindingSet bindings;
  bindings.Add({"n", r_type_, &registry_.type(r_type_).schema});
  bindings.Add({"a", l_type_, &registry_.type(l_type_).schema});
  bindings.Add({"b", r_type_, &registry_.type(r_type_).schema});
  auto predicate = [&](const char* text) {
    return std::shared_ptr<const CompiledExpr>(
        Compile(ParseExpr(text).value(), bindings).value());
  };
  auto config = std::make_shared<PatternOpConfig>();
  config->positions.resize(3);
  config->positions[0] = {r_type_, true, {predicate("n.i = a.i")}};
  config->positions[1] = {l_type_, false, {}};
  config->positions[2] = {r_type_, false, {predicate("b.i = a.i")}};
  config->output_type = out_type_;
  config->within = 10;
  auto automaton = CompilePattern(config);
  ASSERT_TRUE(automaton->negations[0].key.valid());
  ASSERT_TRUE(automaton->transitions[1].key.valid());

  auto key = [](int64_t i) { return Value(i); };
  const EventBatch first = {R(1, key(5), Value(0.0), Value("")),
                            L(2, key(7), Value(0.0), Value("")),
                            L(3, key(5), Value(0.0), Value("")),
                            L(4, key(9), Value(0.0), Value(""))};
  const EventBatch second = {R(5, key(7), Value(0.0), Value("")),
                             R(6, key(5), Value(0.0), Value("")),
                             R(7, key(9), Value(0.0), Value("")),
                             L(8, key(7), Value(0.0), Value("")),
                             R(9, key(7), Value(0.0), Value(""))};
  // (a, b) times: a 3 is blocked by R 1, a 8 by R 5.
  const std::vector<std::pair<Timestamp, Timestamp>> expected = {
      {2, 5}, {4, 7}, {2, 9}};
  auto spans = [](const EventBatch& out) {
    std::vector<std::pair<Timestamp, Timestamp>> result;
    for (const EventPtr& event : out) {
      result.emplace_back(event->start_time(), event->end_time());
    }
    return result;
  };

  CompiledPatternOp op(automaton);
  CompiledPatternOp::State uninterrupted(automaton.get());
  EventBatch out;
  op.Process(first, &out, &ctx_, &uninterrupted);
  ASSERT_TRUE(out.empty());
  StateWriter writer;
  uninterrupted.Save(&writer);
  op.Process(second, &out, &ctx_, &uninterrupted);
  EXPECT_EQ(spans(out), expected);

  CompiledPatternOp::State restored(automaton.get());
  StateReader reader(writer.data());
  ASSERT_TRUE(restored.Load(&reader).ok());
  EXPECT_EQ(restored.num_runs(), 3u);
  EXPECT_EQ(restored.negation_buffer_size(), 1u);
  EventBatch restored_out;
  op.Process(second, &restored_out, &ctx_, &restored);
  EXPECT_EQ(spans(restored_out), expected);
}

}  // namespace
}  // namespace caesar
