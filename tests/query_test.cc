// Unit tests for src/query: the CAESAR model (contexts, queries,
// normalization, validation) and the query language parser.

#include <gtest/gtest.h>

#include "event/schema.h"
#include "query/model.h"
#include "query/parser.h"

namespace caesar {
namespace {

Query SimpleQuery(const std::string& name, const std::string& type) {
  Query query;
  query.name = name;
  PatternSpec pattern;
  pattern.items.push_back({type, "p", false});
  query.pattern = pattern;
  DeriveSpec derive;
  derive.event_type = "Out_" + name;
  derive.args.push_back(MakeAttrRef("p", "x"));
  query.derive = derive;
  return query;
}

TEST(ModelTest, ContextDeclarationAndDefault) {
  TypeRegistry registry;
  CaesarModel model(&registry);
  ASSERT_TRUE(model.AddContext("clear").ok());
  ASSERT_TRUE(model.AddContext("congestion").ok());
  EXPECT_EQ(model.default_context(), "clear");  // first declared
  ASSERT_TRUE(model.SetDefaultContext("congestion").ok());
  EXPECT_EQ(model.default_context(), "congestion");
  EXPECT_FALSE(model.AddContext("clear").ok());
  EXPECT_FALSE(model.SetDefaultContext("nope").ok());
  EXPECT_EQ(model.ContextIndex("clear"), 0);
  EXPECT_EQ(model.ContextIndex("nope"), -1);
}

TEST(ModelTest, NormalizeAddsImpliedContextClause) {
  TypeRegistry registry;
  CaesarModel model(&registry);
  ASSERT_TRUE(model.AddContext("clear").ok());
  ASSERT_TRUE(model.AddQuery(SimpleQuery("q1", "E")).ok());
  ASSERT_TRUE(model.Normalize().ok());
  // Phase 1: the implied CONTEXT clause became mandatory.
  EXPECT_EQ(model.query(0).contexts, std::vector<std::string>{"clear"});
  EXPECT_EQ(model.context(0).processing_queries, std::vector<int>{0});
}

TEST(ModelTest, NormalizePopulatesWorkloads) {
  TypeRegistry registry;
  CaesarModel model(&registry);
  ASSERT_TRUE(model.AddContext("clear").ok());
  ASSERT_TRUE(model.AddContext("busy").ok());
  Query deriving = SimpleQuery("d1", "E");
  deriving.derive.reset();
  deriving.action = ContextAction::kInitiate;
  deriving.target_context = "busy";
  deriving.contexts = {"clear"};
  ASSERT_TRUE(model.AddQuery(deriving).ok());
  Query processing = SimpleQuery("p1", "E");
  processing.contexts = {"busy"};
  ASSERT_TRUE(model.AddQuery(processing).ok());
  ASSERT_TRUE(model.Normalize().ok());
  EXPECT_EQ(model.context(0).deriving_queries, std::vector<int>{0});
  EXPECT_TRUE(model.context(0).processing_queries.empty());
  EXPECT_EQ(model.context(1).processing_queries, std::vector<int>{1});
}

TEST(ModelTest, ValidationErrors) {
  TypeRegistry registry;
  {
    CaesarModel model(&registry);
    EXPECT_FALSE(model.Normalize().ok());  // no contexts
  }
  {
    CaesarModel model(&registry);
    ASSERT_TRUE(model.AddContext("c").ok());
    Query query;  // no pattern
    query.name = "bad";
    ASSERT_TRUE(model.AddQuery(query).ok());
    EXPECT_FALSE(model.Normalize().ok());
  }
  {
    CaesarModel model(&registry);
    ASSERT_TRUE(model.AddContext("c").ok());
    Query query = SimpleQuery("q", "E");
    query.derive.reset();  // neither derive nor action
    ASSERT_TRUE(model.AddQuery(query).ok());
    EXPECT_FALSE(model.Normalize().ok());
  }
  {
    CaesarModel model(&registry);
    ASSERT_TRUE(model.AddContext("c").ok());
    Query query = SimpleQuery("q", "E");
    query.action = ContextAction::kInitiate;
    query.target_context = "unknown";
    ASSERT_TRUE(model.AddQuery(query).ok());
    EXPECT_FALSE(model.Normalize().ok());
  }
  {
    // Pattern with only negated items.
    CaesarModel model(&registry);
    ASSERT_TRUE(model.AddContext("c").ok());
    Query query = SimpleQuery("q", "E");
    query.pattern->kind = PatternSpec::Kind::kSeq;
    query.pattern->items = {{"E", "p", true}};
    ASSERT_TRUE(model.AddQuery(query).ok());
    EXPECT_FALSE(model.Normalize().ok());
  }
}

// Which queries bound a context's windows: one table for the rule the
// window-bound extraction, the analyzer and the baseline plan all read.
TEST(ModelTest, OpensAndClosesBoundWindows) {
  auto make = [](ContextAction action, const std::string& target,
                 std::vector<std::string> gates, bool helper = false) {
    Query query = SimpleQuery("q", "E");
    query.action = action;
    query.target_context = target;
    query.contexts = std::move(gates);
    query.derivation_helper = helper;
    return query;
  };
  struct Row {
    const char* what;
    Query query;
    bool opens_busy, closes_busy, opens_idle, closes_idle;
  };
  const Row rows[] = {
      {"INITIATE busy", make(ContextAction::kInitiate, "busy", {"idle"}),
       true, false, false, false},
      {"TERMINATE busy", make(ContextAction::kTerminate, "busy", {"busy"}),
       false, true, false, false},
      {"SWITCH to busy from idle",
       make(ContextAction::kSwitch, "busy", {"idle"}), true, false, false,
       true},
      {"SWITCH to idle while gated on busy",
       make(ContextAction::kSwitch, "idle", {"busy"}), false, true, true,
       false},
      {"self-loop SWITCH to busy gated on busy",
       make(ContextAction::kSwitch, "busy", {"busy"}), true, false, false,
       false},
      {"helper gated on busy", make(ContextAction::kNone, "", {"busy"}, true),
       false, false, false, false},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(row.query.Opens("busy"), row.opens_busy) << row.what;
    EXPECT_EQ(row.query.Closes("busy"), row.closes_busy) << row.what;
    EXPECT_EQ(row.query.Opens("idle"), row.opens_idle) << row.what;
    EXPECT_EQ(row.query.Closes("idle"), row.closes_idle) << row.what;
  }
}

TEST(ParserTest, ParseSingleProcessingQuery) {
  auto query = ParseQuery(
      "QUERY toll\n"
      "DERIVE TollNotification(p.vid, p.sec, 5 AS toll)\n"
      "PATTERN NewTravelingCar p\n"
      "CONTEXT congestion");
  ASSERT_TRUE(query.ok()) << query.status();
  const Query& q = query.value();
  EXPECT_EQ(q.name, "toll");
  EXPECT_EQ(q.action, ContextAction::kNone);
  ASSERT_TRUE(q.derive.has_value());
  EXPECT_EQ(q.derive->event_type, "TollNotification");
  ASSERT_EQ(q.derive->args.size(), 3u);
  EXPECT_EQ(q.derive->attr_names[2], "toll");
  ASSERT_TRUE(q.pattern.has_value());
  EXPECT_EQ(q.pattern->kind, PatternSpec::Kind::kEvent);
  EXPECT_EQ(q.pattern->items[0].event_type, "NewTravelingCar");
  EXPECT_EQ(q.pattern->items[0].variable, "p");
  EXPECT_EQ(q.contexts, std::vector<std::string>{"congestion"});
}

TEST(ParserTest, ParseSeqWithNegationAndWhere) {
  auto query = ParseQuery(
      "DERIVE NewTravelingCar(p2.vid, p2.seg, p2.sec)\n"
      "PATTERN SEQ(NOT PositionReport p1, PositionReport p2) WITHIN 60\n"
      "WHERE p1.sec + 30 = p2.sec AND p1.vid = p2.vid AND p2.lane != 4\n"
      "CONTEXT congestion");
  ASSERT_TRUE(query.ok()) << query.status();
  const Query& q = query.value();
  ASSERT_TRUE(q.pattern.has_value());
  EXPECT_EQ(q.pattern->kind, PatternSpec::Kind::kSeq);
  ASSERT_EQ(q.pattern->items.size(), 2u);
  EXPECT_TRUE(q.pattern->items[0].negated);
  EXPECT_FALSE(q.pattern->items[1].negated);
  EXPECT_EQ(q.pattern->within, 60);
  ASSERT_NE(q.where, nullptr);
}

TEST(ParserTest, ParseContextActions) {
  auto initiate = ParseQuery(
      "INITIATE CONTEXT accident PATTERN Accident a CONTEXT clear, "
      "congestion");
  ASSERT_TRUE(initiate.ok()) << initiate.status();
  EXPECT_EQ(initiate.value().action, ContextAction::kInitiate);
  EXPECT_EQ(initiate.value().target_context, "accident");
  EXPECT_EQ(initiate.value().contexts.size(), 2u);

  auto sw = ParseQuery("SWITCH CONTEXT clear PATTERN Smooth s CONTEXT jam");
  ASSERT_TRUE(sw.ok());
  EXPECT_EQ(sw.value().action, ContextAction::kSwitch);

  auto term =
      ParseQuery("TERMINATE CONTEXT accident PATTERN Cleared c");
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(term.value().action, ContextAction::kTerminate);
}

TEST(ParserTest, NestedSeqFlattens) {
  auto query = ParseQuery("DERIVE X(a.v) PATTERN SEQ(A a, SEQ(B b, C c))");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query.value().pattern->items.size(), 3u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("DERIVE X(").ok());
  EXPECT_FALSE(ParseQuery("PATTERN SEQ(A a").ok());
  EXPECT_FALSE(ParseQuery("INITIATE accident").ok());  // missing CONTEXT
  EXPECT_FALSE(ParseQuery("PATTERN NOT SEQ(A a)").ok());
  EXPECT_FALSE(
      ParseQuery("DERIVE X(a.v) PATTERN A a PATTERN B b").ok());  // dup
  EXPECT_FALSE(ParseQuery("DERIVE X(1) PATTERN A a garbage ,").ok());
}

TEST(ParserTest, ParseWholeModel) {
  TypeRegistry registry;
  auto model = ParseModel(
      "CONTEXTS clear, congestion, accident DEFAULT clear;\n"
      "PARTITION BY xway, dir, seg;\n"
      "\n"
      "QUERY detect\n"
      "INITIATE CONTEXT accident\n"
      "PATTERN Accident a\n"
      "CONTEXT clear, congestion;\n"
      "\n"
      "QUERY toll\n"
      "DERIVE Toll(p.vid, 5 AS toll)\n"
      "PATTERN NewCar p\n"
      "CONTEXT congestion;\n"
      "\n"
      "QUERY slowdown\n"
      "INITIATE CONTEXT congestion\n"
      "PATTERN Jam j\n"
      "CONTEXT clear;\n",
      &registry);
  ASSERT_TRUE(model.ok()) << model.status();
  const CaesarModel& m = model.value();
  EXPECT_EQ(m.num_contexts(), 3);
  EXPECT_EQ(m.default_context(), "clear");
  EXPECT_EQ(m.partition_by(),
            (std::vector<std::string>{"xway", "dir", "seg"}));
  EXPECT_EQ(m.num_queries(), 3);
  EXPECT_EQ(m.context(m.ContextIndex("clear")).deriving_queries,
            (std::vector<int>{0, 2}));
  EXPECT_EQ(m.context(m.ContextIndex("congestion")).processing_queries,
            std::vector<int>{1});
}

TEST(ParserTest, ModelWithoutContextClauseUsesDefault) {
  TypeRegistry registry;
  auto model = ParseModel(
      "CONTEXTS only;\n"
      "QUERY q DERIVE X(p.v) PATTERN E p;\n",
      &registry);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model.value().query(0).contexts, std::vector<std::string>{"only"});
}

TEST(ParserTest, ModelErrorsSurface) {
  TypeRegistry registry;
  EXPECT_FALSE(ParseModel("QUERY q PATTERN E p;", &registry).ok());  // no ctx
  EXPECT_FALSE(
      ParseModel("CONTEXTS a DEFAULT b; QUERY q DERIVE X(1) PATTERN E p;",
                 &registry)
          .ok());
  EXPECT_FALSE(ParseModel("CONTEXTS a; PARTITION xway;", &registry).ok());
}

TEST(ParserTest, UnreachableContextIsRejectedByName) {
  TypeRegistry registry;
  // `ghost` has a workload but nothing ever INITIATEs or SWITCHes to it.
  auto model = ParseModel(
      "CONTEXTS idle, ghost DEFAULT idle;\n"
      "QUERY q DERIVE X(p.v) PATTERN E p CONTEXT ghost;\n",
      &registry);
  ASSERT_FALSE(model.ok());
  EXPECT_NE(model.status().message().find("ghost"), std::string::npos)
      << model.status();
  EXPECT_NE(model.status().message().find("unreachable"), std::string::npos)
      << model.status();

  // The same context becomes legal once some query can reach it.
  auto fixed = ParseModel(
      "CONTEXTS idle, ghost DEFAULT idle;\n"
      "QUERY open INITIATE CONTEXT ghost PATTERN S s CONTEXT idle;\n"
      "QUERY q DERIVE X(p.v) PATTERN E p CONTEXT ghost;\n",
      &registry);
  EXPECT_TRUE(fixed.ok()) << fixed.status();
}

TEST(ParserTest, ErrorsFollowTheSourceLineColPrefixConvention) {
  // Strict-mode rejections are rendered as coded diagnostics with the
  // "<source>:<line>:<col>: " prefix (the convention shared with the
  // tolerant CSV reader and caesar_lint).
  TypeRegistry registry;
  ParseModelOptions options;
  options.source_name = "models/bad.caesar";
  auto model = ParseModel(
      "CONTEXTS idle, ghost DEFAULT idle;\n"
      "QUERY q DERIVE X(p.v) PATTERN E p CONTEXT ghost;\n",
      &registry, options);
  ASSERT_FALSE(model.ok());
  // `ghost` is declared on line 1 at column 16.
  EXPECT_NE(model.status().message().find("models/bad.caesar:1:16: "),
            std::string::npos)
      << model.status();
  EXPECT_NE(model.status().message().find("error[C001]: "),
            std::string::npos)
      << model.status();

  // Tokenizer failures carry the source prefix too.
  auto junk = ParseModel("QUERY ???", &registry, options);
  ASSERT_FALSE(junk.ok());
  EXPECT_NE(junk.status().message().find("models/bad.caesar"),
            std::string::npos)
      << junk.status();
}

TEST(ParserTest, StructuralDefectsAreCodedLikeGraphDefects) {
  // A strict parse renders a structural defect the way it renders a
  // context-graph one: code, source name and the query's span.
  TypeRegistry registry;
  ParseModelOptions options;
  options.source_name = "m.caesar";
  auto model = ParseModel(
      "CONTEXTS idle;\n"
      "QUERY q INITIATE CONTEXT zz PATTERN E p CONTEXT idle;\n",
      &registry, options);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kParseError);
  EXPECT_NE(model.status().message().find(
                "m.caesar:2:1: error[C005]: query 'q': unknown target "
                "context zz"),
            std::string::npos)
      << model.status();
}

TEST(ParserTest, SelfLoopSwitchIsRejectedByName) {
  TypeRegistry registry;
  auto model = ParseModel(
      "CONTEXTS idle, busy DEFAULT idle;\n"
      "QUERY enter SWITCH CONTEXT busy PATTERN E p CONTEXT idle;\n"
      "QUERY stuck SWITCH CONTEXT busy PATTERN F p CONTEXT busy;\n",
      &registry);
  ASSERT_FALSE(model.ok());
  EXPECT_NE(model.status().message().find("stuck"), std::string::npos)
      << model.status();
  EXPECT_NE(model.status().message().find("busy"), std::string::npos)
      << model.status();

  // A SWITCH with no explicit CONTEXT clause is gated on the default
  // context after Normalize; targeting the default is then a self-loop too.
  auto implicit = ParseModel(
      "CONTEXTS idle, busy DEFAULT idle;\n"
      "QUERY enter SWITCH CONTEXT busy PATTERN E p CONTEXT idle;\n"
      "QUERY back SWITCH CONTEXT idle PATTERN F p;\n",
      &registry);
  ASSERT_FALSE(implicit.ok());
  EXPECT_NE(implicit.status().message().find("back"), std::string::npos)
      << implicit.status();
}

TEST(ParserTest, ParseAggregatePattern) {
  auto query = ParseQuery(
      "SWITCH CONTEXT congestion "
      "PATTERN AGGREGATE PositionReport p WINDOW 60 GROUP BY xway, seg "
      "COMPUTE count() AS cnt, avg(speed) AS spd "
      "HAVING cnt >= 20 AND spd < 40 "
      "CONTEXT clear");
  ASSERT_TRUE(query.ok()) << query.status();
  const Query& q = query.value();
  ASSERT_TRUE(q.pattern.has_value());
  EXPECT_EQ(q.pattern->kind, PatternSpec::Kind::kAggregate);
  EXPECT_EQ(q.pattern->items[0].event_type, "PositionReport");
  EXPECT_EQ(q.pattern->items[0].variable, "p");
  EXPECT_EQ(q.pattern->window_length, 60);
  EXPECT_EQ(q.pattern->group_by,
            (std::vector<std::string>{"xway", "seg"}));
  ASSERT_EQ(q.pattern->aggregates.size(), 2u);
  EXPECT_EQ(q.pattern->aggregates[0].func, AggregateFunc::kCount);
  EXPECT_EQ(q.pattern->aggregates[0].name, "cnt");
  EXPECT_EQ(q.pattern->aggregates[1].func, AggregateFunc::kAvg);
  EXPECT_EQ(q.pattern->aggregates[1].attribute, "speed");
  ASSERT_NE(q.pattern->having, nullptr);
}

TEST(ParserTest, AggregatePatternWithoutGroupByOrHaving) {
  auto query = ParseQuery(
      "DERIVE Load(t.n AS n) "
      "PATTERN AGGREGATE Tick WINDOW 10 COMPUTE count() AS n");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_TRUE(query.value().pattern->group_by.empty());
  EXPECT_EQ(query.value().pattern->having, nullptr);
}

TEST(ParserTest, AggregatePatternErrors) {
  EXPECT_FALSE(ParseQuery("PATTERN AGGREGATE E WINDOW COMPUTE count() AS n")
                   .ok());  // missing window length
  EXPECT_FALSE(ParseQuery("PATTERN AGGREGATE E WINDOW 10").ok());  // COMPUTE
  EXPECT_FALSE(
      ParseQuery("PATTERN AGGREGATE E WINDOW 10 COMPUTE median(x) AS m")
          .ok());  // unknown function
  EXPECT_FALSE(
      ParseQuery("PATTERN AGGREGATE E WINDOW 10 COMPUTE count() n").ok());
}

TEST(ParserTest, QueryToStringRoundTrips) {
  auto query = ParseQuery(
      "QUERY q1 INITIATE CONTEXT busy DERIVE X(p.v AS v) PATTERN E p "
      "WHERE p.v > 3 CONTEXT idle");
  ASSERT_TRUE(query.ok()) << query.status();
  auto reparsed = ParseQuery(query.value().ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed.value().ToString(), query.value().ToString());
}

}  // namespace
}  // namespace caesar
