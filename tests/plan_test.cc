// Tests for model-to-plan translation: Table-1 operator mapping, chain
// shapes under optimizer options (Fig. 6a vs 6b), composite type
// registration, topological ordering, and the context-independent baseline's
// guard construction.

#include <gtest/gtest.h>

#include "plan/translator.h"
#include "query/parser.h"

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

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() {
    registry_.RegisterOrGet("Reading", {{"seg", ValueType::kInt},
                                        {"value", ValueType::kInt},
                                        {"sec", ValueType::kInt}});
  }

  CaesarModel Parse(const std::string& text) {
    auto model = ParseModel(text, &registry_);
    EXPECT_TRUE(model.ok()) << model.status();
    return std::move(model).value();
  }

  std::vector<Operator::Kind> ChainKinds(const OpChain& chain) {
    std::vector<Operator::Kind> kinds;
    for (const auto& op : chain.ops) kinds.push_back(op->kind());
    return kinds;
  }

  TypeRegistry registry_;
};

TEST_F(PlanTest, NonOptimizedChainFollowsFig6a) {
  CaesarModel model = Parse(kMiniModel);
  PlanOptions options;
  options.push_down_context_windows = false;
  auto plan = TranslateModel(model, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan.value().processing.size(), 1u);
  // Fig. 6a order: pattern, filter, context window, projection.
  EXPECT_EQ(ChainKinds(plan.value().processing[0].chain),
            (std::vector<Operator::Kind>{
                Operator::Kind::kPattern, Operator::Kind::kFilter,
                Operator::Kind::kContextWindow, Operator::Kind::kProjection}));
}

TEST_F(PlanTest, PushDownMovesContextWindowToBottom) {
  CaesarModel model = Parse(kMiniModel);
  PlanOptions options;
  options.push_down_context_windows = true;
  auto plan = TranslateModel(model, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Fig. 6b order: context window at the bottom.
  EXPECT_EQ(ChainKinds(plan.value().processing[0].chain),
            (std::vector<Operator::Kind>{
                Operator::Kind::kContextWindow, Operator::Kind::kPattern,
                Operator::Kind::kFilter, Operator::Kind::kProjection}));
}

TEST_F(PlanTest, ForcedContextWindowPosition) {
  CaesarModel model = Parse(kMiniModel);
  PlanOptions options;
  options.force_cw_position = 1;
  auto plan = TranslateModel(model, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(ChainKinds(plan.value().processing[0].chain)[1],
            Operator::Kind::kContextWindow);
}

TEST_F(PlanTest, SwitchQueryGetsInitAndTermOps) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan.value().deriving.size(), 2u);
  const OpChain& chain = plan.value().deriving[0].chain;  // go_high
  auto kinds = ChainKinds(chain);
  // ... pattern, filter above the CW, then CI(high) + CT(normal).
  EXPECT_EQ(kinds[kinds.size() - 2], Operator::Kind::kContextInit);
  EXPECT_EQ(kinds[kinds.size() - 1], Operator::Kind::kContextTerm);
}

TEST_F(PlanTest, ProcessingQueriesAreTopoSortedByTypes) {
  CaesarModel model = Parse(R"(
CONTEXTS only;
QUERY downstream
DERIVE Final(n.seg)
PATTERN NewCar n;
QUERY upstream
DERIVE NewCar(r.seg AS seg)
PATTERN Reading r;
)");
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan.value().processing.size(), 2u);
  // upstream (producer of NewCar) must run first.
  EXPECT_EQ(plan.value().processing[0].name, "upstream");
  EXPECT_EQ(plan.value().processing[1].name, "downstream");
}

TEST_F(PlanTest, DerivingConsumingProcessingOutputIsRejected) {
  CaesarModel model = Parse(R"(
CONTEXTS a, b;
QUERY produce
DERIVE Marker(r.seg AS seg)
PATTERN Reading r;
QUERY react
INITIATE CONTEXT b
PATTERN Marker m;
)");
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(plan.status().message().find("[P305]"), std::string::npos)
      << plan.status();
}

TEST_F(PlanTest, ProcessingTypeCycleIsP306) {
  // Both types are registered, so both queries type; no chain order runs
  // each producer before its consumer.
  registry_.RegisterOrGet("Echo", {{"seg", ValueType::kInt}});
  CaesarModel model = Parse(R"(
CONTEXTS only;
QUERY there DERIVE Echo(r.seg AS seg) PATTERN Reading r;
QUERY back DERIVE Reading(e.seg AS seg, e.seg AS value, e.seg AS sec)
PATTERN Echo e;
)");
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(plan.status().message().find(
                "error[P306]: query 'there': cyclic type dependency: no order "
                "runs the context processing queries 'there', 'back' each "
                "after the producers of what it consumes"),
            std::string::npos)
      << plan.status();
}

TEST_F(PlanTest, UnknownEventTypeFails) {
  CaesarModel model = Parse(R"(
CONTEXTS only;
QUERY q DERIVE X(e.foo) PATTERN Nope e;
)");
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(plan.status().message().find(
                "error[E101]: query 'q': unknown event type Nope"),
            std::string::npos)
      << plan.status();
}

TEST_F(PlanTest, PatternVariableBoundTwiceIsE102) {
  // The composite match would name two attributes "a.seg".
  CaesarModel model = Parse(R"(
CONTEXTS only;
QUERY q DERIVE X(a.seg AS seg) PATTERN SEQ(Reading a, Reading a) WITHIN 10;
)");
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find(
                "error[E102]: query 'q': pattern variable a is bound to more "
                "than one position"),
            std::string::npos)
      << plan.status();
  EXPECT_EQ(registry_.Lookup("$match_q"), kInvalidTypeId);
}

TEST_F(PlanTest, TrailingNegationIsP302) {
  // A strict parse already rejects the model; parse leniently so the
  // translator's own structure check is what rejects it.
  ParseModelOptions lenient;
  lenient.strict = false;
  auto model = ParseModel(R"(
CONTEXTS only;
QUERY q
DERIVE X(a.seg)
PATTERN SEQ(Reading a, NOT Reading b) WITHIN 10
WHERE b.seg = a.seg;
)",
                          &registry_, lenient);
  ASSERT_TRUE(model.ok()) << model.status();
  auto plan = TranslateModel(model.value(), PlanOptions());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(plan.status().message().find("[P302]"), std::string::npos)
      << plan.status();
}

TEST_F(PlanTest, DuplicateDeriveNamesGetSuffixesUntilUnique) {
  CaesarModel model = Parse(R"(
CONTEXTS only;
QUERY q1
DERIVE D(r.seg AS v, r.value AS v_2, r.sec AS v)
PATTERN Reading r;
)");
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok()) << plan.status();
  const Schema& schema = registry_.type(registry_.Lookup("D")).schema;
  ASSERT_EQ(schema.num_attributes(), 3);
  EXPECT_EQ(schema.attribute(0).name, "v");
  EXPECT_EQ(schema.attribute(1).name, "v_2");
  EXPECT_EQ(schema.attribute(2).name, "v_2_2");
}

TEST_F(PlanTest, AggregateDefectsUseTheAnalyzerWording) {
  CaesarModel unknown = Parse(R"(
CONTEXTS only;
QUERY tally
DERIVE Out(p.cnt AS cnt)
PATTERN AGGREGATE Reading p WINDOW 10 GROUP BY nope
COMPUTE count() AS cnt;
)");
  auto plan = TranslateModel(unknown, PlanOptions());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(plan.status().message(),
            "5:1: error[E105]: query 'tally': unknown group-by attribute nope");

  // An output name defined twice would make the aggregate's schema
  // ambiguous: rejected, not registered.
  CaesarModel twice = Parse(R"(
CONTEXTS only;
QUERY twice
DERIVE Out2(p.seg AS seg)
PATTERN AGGREGATE Reading p WINDOW 10 GROUP BY seg
COMPUTE count() AS seg;
)");
  plan = TranslateModel(twice, PlanOptions());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().message(),
            "5:1: error[E105]: query 'twice': aggregate output attribute seg "
            "is defined twice");
}

TEST_F(PlanTest, SeqRegistersCompositeTypeAndDerivedType) {
  CaesarModel model = Parse(R"(
CONTEXTS only;
QUERY pairs
DERIVE Pair(a.seg AS seg, b.value AS second_value)
PATTERN SEQ(Reading a, Reading b) WITHIN 30
WHERE a.seg = b.seg;
)");
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok()) << plan.status();
  TypeId composite = registry_.Lookup("$match_pairs");
  ASSERT_NE(composite, kInvalidTypeId);
  const Schema& schema = registry_.type(composite).schema;
  EXPECT_EQ(schema.num_attributes(), 6);
  EXPECT_GE(schema.IndexOf("a.seg"), 0);
  EXPECT_GE(schema.IndexOf("b.value"), 0);

  TypeId derived = registry_.Lookup("Pair");
  ASSERT_NE(derived, kInvalidTypeId);
  EXPECT_EQ(registry_.type(derived).schema.attribute(1).name, "second_value");
  EXPECT_EQ(plan.value().processing[0].output_type, derived);
}

TEST_F(PlanTest, PredicatePushdownRemovesFilter) {
  CaesarModel model = Parse(R"(
CONTEXTS only;
QUERY pairs
DERIVE Pair(a.seg AS seg)
PATTERN SEQ(Reading a, Reading b) WITHIN 30
WHERE a.seg = b.seg;
)");
  PlanOptions pushed;
  pushed.push_predicates_into_pattern = true;
  auto plan = TranslateModel(model, pushed);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto kinds = ChainKinds(plan.value().processing[0].chain);
  EXPECT_EQ(std::count(kinds.begin(), kinds.end(), Operator::Kind::kFilter),
            0);

  PlanOptions unpushed;
  unpushed.push_predicates_into_pattern = false;
  auto plan2 = TranslateModel(model, unpushed);
  ASSERT_TRUE(plan2.ok()) << plan2.status();
  auto kinds2 = ChainKinds(plan2.value().processing[0].chain);
  EXPECT_EQ(std::count(kinds2.begin(), kinds2.end(), Operator::Kind::kFilter),
            1);
}

TEST_F(PlanTest, ContextIndependentBaselineAttachesGuards) {
  CaesarModel model = Parse(kMiniModel);
  PlanOptions options;
  options.context_independent = true;
  options.push_down_context_windows = false;
  auto plan = TranslateModel(model, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The alert query belongs to `high`, bounded by go_high (switch into) and
  // go_normal (switch out of): two guards.
  ASSERT_EQ(plan.value().processing.size(), 1u);
  EXPECT_EQ(plan.value().processing[0].guards.size(), 2u);
}

TEST_F(PlanTest, PlanCopySharesOperators) {
  CaesarModel model = Parse(kMiniModel);
  auto plan = TranslateModel(model, PlanOptions());
  ASSERT_TRUE(plan.ok());
  ExecutablePlan copy = plan.value();
  ASSERT_EQ(copy.processing.size(), plan.value().processing.size());
  const auto& ops = plan.value().processing[0].chain.ops;
  ASSERT_EQ(copy.processing[0].chain.ops.size(), ops.size());
  for (size_t o = 0; o < ops.size(); ++o) {
    EXPECT_EQ(copy.processing[0].chain.ops[o].get(), ops[o].get()) << o;
  }
  EXPECT_EQ(copy.DebugString(), plan.value().DebugString());
}

}  // namespace
}  // namespace caesar
