// Unit tests for src/expr: lexer, parser, compilation/evaluation, and
// predicate analysis.

#include <tuple>

#include <gtest/gtest.h>

#include "expr/analysis.h"
#include "expr/compiled.h"
#include "expr/expr.h"
#include "expr/lexer.h"
#include "expr/parser.h"

namespace caesar {
namespace {

// --- Lexer ---------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("p1.sec + 30 = p2.sec AND p2.lane != 'exit'");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  ASSERT_GE(t.size(), 12u);
  EXPECT_EQ(t[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(t[0].text, "p1");
  EXPECT_EQ(t[1].kind, TokenKind::kDot);
  EXPECT_EQ(t[3].kind, TokenKind::kPlus);
  EXPECT_EQ(t[4].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(t[4].int_value, 30);
  EXPECT_EQ(t[5].kind, TokenKind::kEq);
  EXPECT_EQ(t.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, Utf8ComparisonGlyphs) {
  // The paper's queries use ≠ and ≥.
  auto tokens = Tokenize("lane ≠ 4 AND speed ≥ 40 AND x ≤ 2");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[1].kind, TokenKind::kNe);
  EXPECT_EQ(t[5].kind, TokenKind::kGe);
  EXPECT_EQ(t[9].kind, TokenKind::kLe);
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Tokenize("3.5 42 \"hi there\"");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].kind, TokenKind::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(t[0].double_value, 3.5);
  EXPECT_EQ(t[1].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(t[2].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(t[2].text, "hi there");
}

TEST(LexerTest, Comments) {
  auto tokens = Tokenize("1 -- a comment\n+ 2 // another\n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value().size(), 4u);  // 1, +, 2, END
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
  EXPECT_FALSE(Tokenize("a # b").ok());
}

TEST(LexerTest, KeywordMatchingIsCaseInsensitive) {
  auto tokens = Tokenize("and AND And");
  ASSERT_TRUE(tokens.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(tokens.value()[i].IsKeyword("AND"));
  }
  EXPECT_FALSE(tokens.value()[0].IsKeyword("ANDX"));
}

// --- Parser --------------------------------------------------------------

TEST(ParserTest, Precedence) {
  auto expr = ParseExpr("1 + 2 * 3 = 7 AND 1 < 2 OR x > 3");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr.value()->ToString(),
            "((((1 + (2 * 3)) = 7) AND (1 < 2)) OR (x > 3))");
}

TEST(ParserTest, Parentheses) {
  auto expr = ParseExpr("(1 + 2) * 3");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr.value()->ToString(), "((1 + 2) * 3)");
}

TEST(ParserTest, QualifiedAndBareAttrs) {
  auto expr = ParseExpr("p1.vid = vid");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr.value()->ToString(), "(p1.vid = vid)");
}

TEST(ParserTest, UnaryMinus) {
  auto expr = ParseExpr("-5 + 3");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr.value()->ToString(), "((0 - 5) + 3)");
}

TEST(ParserTest, TrailingInputIsError) {
  EXPECT_FALSE(ParseExpr("1 + 2 )").ok());
  EXPECT_FALSE(ParseExpr("1 +").ok());
  EXPECT_FALSE(ParseExpr("").ok());
}

// --- Compilation & evaluation --------------------------------------------

class CompiledExprTest : public ::testing::Test {
 protected:
  CompiledExprTest() {
    type_id_ = registry_.RegisterOrGet("P", {{"vid", ValueType::kInt},
                                             {"speed", ValueType::kDouble},
                                             {"lane", ValueType::kString},
                                             {"sec", ValueType::kInt}});
    const Schema* schema = &registry_.type(type_id_).schema;
    bindings_.Add({"p1", type_id_, schema});
    bindings_.Add({"p2", type_id_, schema});
  }

  EventPtr MakeP(int64_t vid, double speed, const char* lane, int64_t sec) {
    return MakeEvent(type_id_, sec,
                     {Value(vid), Value(speed), Value(lane), Value(sec)});
  }

  Value Eval(const std::string& text, const EventPtr& e1, const EventPtr& e2) {
    auto expr = ParseExpr(text);
    EXPECT_TRUE(expr.ok()) << expr.status();
    auto compiled = Compile(expr.value(), bindings_);
    EXPECT_TRUE(compiled.ok()) << compiled.status();
    EventPtr events[2] = {e1, e2};
    return compiled.value()->Eval(events);
  }

  TypeRegistry registry_;
  TypeId type_id_;
  BindingSet bindings_;
};

TEST_F(CompiledExprTest, ArithmeticAndComparison) {
  EventPtr e1 = MakeP(7, 55.0, "travel", 30);
  EventPtr e2 = MakeP(7, 60.0, "travel", 60);
  EXPECT_EQ(Eval("p1.sec + 30 = p2.sec", e1, e2).AsInt(), 1);
  EXPECT_EQ(Eval("p1.sec + 31 = p2.sec", e1, e2).AsInt(), 0);
  EXPECT_EQ(Eval("p1.vid = p2.vid AND p1.speed < p2.speed", e1, e2).AsInt(),
            1);
}

TEST_F(CompiledExprTest, StringComparison) {
  EventPtr e1 = MakeP(7, 55.0, "exit", 30);
  EventPtr e2 = MakeP(8, 60.0, "travel", 60);
  EXPECT_EQ(Eval("p1.lane = 'exit'", e1, e2).AsInt(), 1);
  EXPECT_EQ(Eval("p2.lane != 'exit'", e1, e2).AsInt(), 1);
}

TEST_F(CompiledExprTest, MixedNumericPromotion) {
  EventPtr e1 = MakeP(7, 55.5, "t", 30);
  EventPtr e2 = MakeP(7, 60.0, "t", 60);
  Value v = Eval("p1.speed + 1", e1, e2);
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 56.5);
  // Integer arithmetic stays integral.
  EXPECT_EQ(Eval("p1.sec / 7", e1, e2).AsInt(), 4);
}

TEST_F(CompiledExprTest, DivisionByZeroYieldsNull) {
  EventPtr e1 = MakeP(7, 55.5, "t", 30);
  EXPECT_TRUE(Eval("p1.sec / 0", e1, e1).is_null());
}

TEST_F(CompiledExprTest, ShortCircuitLogic) {
  EventPtr e1 = MakeP(7, 55.5, "t", 30);
  // OR short-circuits: right side would be division by zero -> null -> but
  // left is already true.
  EXPECT_EQ(Eval("p1.vid = 7 OR p1.sec / 0 = 1", e1, e1).AsInt(), 1);
  EXPECT_EQ(Eval("p1.vid = 8 AND p1.speed > 0", e1, e1).AsInt(), 0);
}

TEST_F(CompiledExprTest, CompileErrors) {
  auto compile = [&](const std::string& text) {
    auto expr = ParseExpr(text);
    EXPECT_TRUE(expr.ok());
    return Compile(expr.value(), bindings_).status();
  };
  EXPECT_EQ(compile("p3.vid = 1").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(compile("p1.nope = 1").code(), StatusCode::kInvalidArgument);
  // Bare attr is ambiguous across p1/p2.
  EXPECT_EQ(compile("vid = 1").code(), StatusCode::kInvalidArgument);
  // Type errors.
  EXPECT_EQ(compile("p1.lane + 1 = 2").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(compile("p1.lane > 1").code(), StatusCode::kInvalidArgument);
  // Logical operators need boolean (int) operands; strings are rejected.
  EXPECT_EQ(compile("p1.lane AND p2.vid = 1").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CompiledExprTest, BareAttrWithSingleBinding) {
  BindingSet single;
  single.Add({"p", type_id_, &registry_.type(type_id_).schema});
  auto expr = ParseExpr("vid = 7");
  ASSERT_TRUE(expr.ok());
  auto compiled = Compile(expr.value(), single);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EventPtr e = MakeP(7, 1.0, "t", 0);
  EventPtr events[1] = {e};
  EXPECT_TRUE(compiled.value()->EvalBool(events));
}

TEST_F(CompiledExprTest, CanEvaluateTracksReferencedVars) {
  auto expr = ParseExpr("p2.vid = 7");
  ASSERT_TRUE(expr.ok());
  auto compiled = Compile(expr.value(), bindings_);
  ASSERT_TRUE(compiled.ok());
  EXPECT_FALSE(compiled.value()->CanEvaluate({true, false}));
  EXPECT_TRUE(compiled.value()->CanEvaluate({false, true}));
  EXPECT_EQ(compiled.value()->referenced_vars(), std::vector<int>{1});
}

TEST_F(CompiledExprTest, SplitCompiledMatchesCompilingEachConjunct) {
  auto expr = ParseExpr(
      "p2.vid = p1.vid AND (p1.sec + 30 = p2.sec AND p1.lane != 'x') AND "
      "(p2.speed > 1 OR p1.speed < 2.5)");
  ASSERT_TRUE(expr.ok());
  auto whole = Compile(expr.value(), bindings_);
  ASSERT_TRUE(whole.ok()) << whole.status();
  const std::vector<std::shared_ptr<const CompiledExpr>> split =
      SplitCompiled(std::move(whole).value());
  const std::vector<ExprPtr> sources = SplitConjuncts(expr.value());
  ASSERT_EQ(split.size(), sources.size());
  for (size_t i = 0; i < split.size(); ++i) {
    auto own = Compile(sources[i], bindings_);
    ASSERT_TRUE(own.ok());
    EXPECT_EQ(split[i]->source(), sources[i]);
    EXPECT_EQ(split[i]->referenced_vars(), own.value()->referenced_vars());
    EXPECT_EQ(split[i]->result_type(), own.value()->result_type());
    ASSERT_EQ(split[i]->nodes().size(), own.value()->nodes().size());
    for (size_t n = 0; n < split[i]->nodes().size(); ++n) {
      const CompiledExpr::Node& a = split[i]->nodes()[n];
      const CompiledExpr::Node& b = own.value()->nodes()[n];
      EXPECT_EQ(std::tie(a.kind, a.op, a.left, a.right, a.var_index,
                         a.attr_index, a.type),
                std::tie(b.kind, b.op, b.left, b.right, b.var_index,
                         b.attr_index, b.type));
      EXPECT_EQ(a.constant.ToString(), b.constant.ToString());
    }
  }
  EXPECT_EQ(split[0]->referenced_vars(), (std::vector<int>{1, 0}));

  // No conjunction: the expression itself.
  auto single = Compile(ParseExpr("p1.vid = 7").value(), bindings_);
  ASSERT_TRUE(single.ok());
  std::shared_ptr<const CompiledExpr> shared = std::move(single).value();
  EXPECT_EQ(SplitCompiled(shared),
            std::vector<std::shared_ptr<const CompiledExpr>>{shared});
}

// --- Predicate analysis ---------------------------------------------------

TEST(AnalysisTest, SplitConjuncts) {
  auto expr = ParseExpr("a > 1 AND b < 2 AND (c = 3 OR d = 4)");
  ASSERT_TRUE(expr.ok());
  auto conjuncts = SplitConjuncts(expr.value());
  ASSERT_EQ(conjuncts.size(), 3u);
  EXPECT_EQ(conjuncts[2]->ToString(), "((c = 3) OR (d = 4))");
}

TEST(AnalysisTest, ExtractConstraintBothSides) {
  auto left = ParseExpr("x > 10").value();
  auto right = ParseExpr("10 < x").value();
  auto c1 = ExtractConstraint(left);
  auto c2 = ExtractConstraint(right);
  ASSERT_TRUE(c1.has_value());
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c1->op, BinaryOp::kGt);
  EXPECT_EQ(c2->op, BinaryOp::kGt);
  EXPECT_DOUBLE_EQ(c2->value, 10.0);
}

TEST(AnalysisTest, ExtractConstraintRejectsComplex) {
  EXPECT_FALSE(ExtractConstraint(ParseExpr("x + 1 > 10").value()).has_value());
  EXPECT_FALSE(ExtractConstraint(ParseExpr("x != 10").value()).has_value());
  EXPECT_FALSE(ExtractConstraint(ParseExpr("x > y").value()).has_value());
}

TEST(AnalysisTest, IntervalContainment) {
  Interval a{10.0, true, 30.0, true};   // (10, 30)
  Interval b{5.0, false, 30.0, false};  // [5, 30]
  EXPECT_TRUE(a.ContainedIn(b));
  EXPECT_FALSE(b.ContainedIn(a));
  Interval closed{10.0, false, 30.0, false};
  EXPECT_TRUE(a.ContainedIn(closed));
  EXPECT_FALSE(closed.ContainedIn(a));
}

TEST(AnalysisTest, IntervalEmptiness) {
  Interval empty{5.0, true, 5.0, false};
  EXPECT_TRUE(empty.IsEmpty());
  Interval point{5.0, false, 5.0, false};
  EXPECT_FALSE(point.IsEmpty());
}

}  // namespace
}  // namespace caesar
