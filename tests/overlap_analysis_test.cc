// Tests for the Definition-2 window relationship analysis.

#include <gtest/gtest.h>

#include "optimizer/overlap_analysis.h"
#include "query/parser.h"

namespace caesar {
namespace {

class OverlapAnalysisTest : public ::testing::Test {
 protected:
  OverlapAnalysisTest() {
    registry_.RegisterOrGet("S", {{"seg", ValueType::kInt},
                                  {"x", ValueType::kInt}});
  }

  CaesarModel Parse(const std::string& text) {
    auto model = ParseModel(text, &registry_);
    EXPECT_TRUE(model.ok()) << model.status();
    return std::move(model).value();
  }

  TypeRegistry registry_;
};

constexpr char kFigure7Model[] = R"(
CONTEXTS idle, c1, c2, c3 DEFAULT idle;
QUERY s1 INITIATE CONTEXT c1 PATTERN S s WHERE s.x > 10 CONTEXT idle;
QUERY e1 TERMINATE CONTEXT c1 PATTERN S s WHERE s.x > 30 CONTEXT c1;
QUERY s2 INITIATE CONTEXT c2 PATTERN S s WHERE s.x > 20 CONTEXT idle;
QUERY e2 TERMINATE CONTEXT c2 PATTERN S s WHERE s.x > 40 CONTEXT c2;
QUERY s3 INITIATE CONTEXT c3 PATTERN S s WHERE s.x > 22 CONTEXT idle;
QUERY e3 TERMINATE CONTEXT c3 PATTERN S s WHERE s.x > 28 CONTEXT c3;
QUERY q DERIVE A(s.x AS x) PATTERN S s CONTEXT c1;
)";

TEST_F(OverlapAnalysisTest, ExtractsAnalyzableBounds) {
  CaesarModel model = Parse(kFigure7Model);
  std::vector<WindowBounds> bounds = ExtractWindowBounds(model);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_EQ(bounds[0].context, "c1");
  EXPECT_DOUBLE_EQ(bounds[0].start_key, 10.0);
  EXPECT_DOUBLE_EQ(bounds[0].end_key, 30.0);
  EXPECT_EQ(bounds[0].bound_attr, "s.x");
  EXPECT_EQ(bounds[0].initiator_query, 0);
  EXPECT_EQ(bounds[0].terminator_query, 1);
}

TEST_F(OverlapAnalysisTest, SkipsNonAnalyzableContexts) {
  CaesarModel model = Parse(R"(
CONTEXTS idle, plain, complex DEFAULT idle;
QUERY s1 INITIATE CONTEXT plain PATTERN S s WHERE s.x > 10 CONTEXT idle;
QUERY e1 TERMINATE CONTEXT plain PATTERN S s WHERE s.x > 20 CONTEXT plain;
QUERY s2 INITIATE CONTEXT complex PATTERN S s
WHERE s.x > 10 AND s.seg = 3 CONTEXT idle;
QUERY e2 TERMINATE CONTEXT complex PATTERN S s WHERE s.x > 20 CONTEXT complex;
)");
  std::vector<WindowBounds> bounds = ExtractWindowBounds(model);
  ASSERT_EQ(bounds.size(), 1u);  // `complex` has a two-conjunct bound
  EXPECT_EQ(bounds[0].context, "plain");
}

TEST_F(OverlapAnalysisTest, RelationsMatchDefinition2) {
  CaesarModel model = Parse(kFigure7Model);
  std::vector<WindowBounds> bounds = ExtractWindowBounds(model);
  const WindowBounds& c1 = bounds[0];  // [10, 30]
  const WindowBounds& c2 = bounds[1];  // [20, 40]
  const WindowBounds& c3 = bounds[2];  // [22, 28]
  EXPECT_EQ(Relate(c1, c2), WindowRelation::kOverlaps);
  EXPECT_EQ(Relate(c2, c1), WindowRelation::kOverlaps);
  EXPECT_EQ(Relate(c3, c1), WindowRelation::kContainedIn);
  EXPECT_EQ(Relate(c1, c3), WindowRelation::kContains);
  EXPECT_EQ(Relate(c1, c1), WindowRelation::kEqual);

  WindowBounds far = c1;
  far.start_key = 100;
  far.end_key = 120;
  EXPECT_EQ(Relate(c1, far), WindowRelation::kDisjoint);

  WindowBounds other_attr = c2;
  other_attr.bound_attr = "s.seg";
  EXPECT_EQ(Relate(c1, other_attr), WindowRelation::kUnknown);
}

}  // namespace
}  // namespace caesar
