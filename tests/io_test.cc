// Tests for the IO module: CSV event stream round-tripping, the tolerant
// reader's error paths, and DOT export of models and plans.

#include <gtest/gtest.h>

#include <cstdio>

#include "io/csv.h"
#include "io/dot.h"
#include "plan/translator.h"
#include "query/parser.h"

namespace caesar {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  CsvTest() {
    type_ = registry_.RegisterOrGet("Order", {{"id", ValueType::kInt},
                                              {"price", ValueType::kDouble},
                                              {"note", ValueType::kString}});
  }

  EventPtr Order(int64_t id, double price, const char* note, Timestamp t) {
    return MakeEvent(type_, t, {Value(id), Value(price), Value(note)});
  }

  TypeRegistry registry_;
  TypeId type_;
};

TEST_F(CsvTest, RoundTripPreservesEverything) {
  EventBatch events = {
      Order(1, 9.5, "plain", 0),
      Order(2, 0.125, "with, comma", 1),
      Order(3, -2.75, "with \"quotes\"", 2),
      Order(4, 1e-9, "multi\nline", 5),
  };
  auto csv = WriteEventsCsv(events, registry_);
  ASSERT_TRUE(csv.ok()) << csv.status();

  TypeRegistry fresh;
  auto parsed = ReadEventsCsv(csv.value(), &fresh);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed.value().size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed.value()[i]->time(), events[i]->time());
    EXPECT_EQ(parsed.value()[i]->values(), events[i]->values()) << i;
  }
  // The type was registered in the fresh registry with its schema.
  TypeId id = fresh.Lookup("Order");
  ASSERT_NE(id, kInvalidTypeId);
  EXPECT_EQ(fresh.type(id).schema.IndexOf("price"), 1);
  EXPECT_EQ(fresh.type(id).schema.attribute(2).type, ValueType::kString);
}

TEST_F(CsvTest, RejectsMixedTypesAndEmptyBatches) {
  TypeId other = registry_.RegisterOrGet("Other", {{"x", ValueType::kInt}});
  EventBatch mixed = {Order(1, 1.0, "a", 0),
                      MakeEvent(other, 1, {Value(int64_t{1})})};
  EXPECT_FALSE(WriteEventsCsv(mixed, registry_).ok());
  EXPECT_FALSE(WriteEventsCsv({}, registry_).ok());
}

TEST_F(CsvTest, ParseErrors) {
  TypeRegistry fresh;
  EXPECT_FALSE(ReadEventsCsv("", &fresh).ok());
  EXPECT_FALSE(ReadEventsCsv("# type: X\njunk\n", &fresh).ok());
  EXPECT_FALSE(
      ReadEventsCsv("# type: X\n# attrs: a:int\ntime,a\n1,2,3\n", &fresh)
          .ok());  // wrong cell count
  EXPECT_FALSE(
      ReadEventsCsv("# type: X\n# attrs: a:blob\ntime,a\n", &fresh).ok());
}

// Every reader error names its stream and 1-based physical line.
TEST_F(CsvTest, ErrorsCarryStreamNameAndLineNumber) {
  TypeRegistry fresh;
  // Unknown attribute type: reported at header line 2.
  auto bad_type =
      ReadEventsCsv("# type: X\n# attrs: a:blob\ntime,a\n", &fresh, "feed");
  ASSERT_FALSE(bad_type.ok());
  EXPECT_NE(bad_type.status().message().find("feed:2: "), std::string::npos)
      << bad_type.status();
  EXPECT_NE(bad_type.status().message().find("unknown attribute type: blob"),
            std::string::npos)
      << bad_type.status();

  // Arity mismatch: data rows start at line 4.
  auto arity = ReadEventsCsv(
      "# type: X\n# attrs: a:int\ntime,a\n1,2\n3,4,5\n", &fresh, "feed");
  ASSERT_FALSE(arity.ok());
  EXPECT_NE(arity.status().message().find("feed:5: "), std::string::npos)
      << arity.status();
  EXPECT_NE(arity.status().message().find("expected 2 cells, got 3"),
            std::string::npos)
      << arity.status();

  // Invalid cells name the line, the cell and (for attributes) the attribute.
  auto bad_time =
      ReadEventsCsv("# type: X\n# attrs: a:int\ntime,a\nnope,2\n", &fresh);
  ASSERT_FALSE(bad_time.ok());
  EXPECT_NE(bad_time.status().message().find("<csv>:4: "), std::string::npos)
      << bad_time.status();
  EXPECT_NE(bad_time.status().message().find("invalid time stamp 'nope'"),
            std::string::npos)
      << bad_time.status();

  auto bad_int =
      ReadEventsCsv("# type: X\n# attrs: a:int\ntime,a\n1,2\n2,2x\n", &fresh);
  ASSERT_FALSE(bad_int.ok());
  EXPECT_NE(bad_int.status().message().find("<csv>:5: "), std::string::npos)
      << bad_int.status();
  EXPECT_NE(
      bad_int.status().message().find("invalid int value '2x' for attribute "
                                      "'a'"),
      std::string::npos)
      << bad_int.status();
}

TEST_F(CsvTest, UnterminatedQuoteAndTruncatedInput) {
  TypeRegistry fresh;
  // A quoted cell that never closes: the reader consumes the rest of the
  // input looking for the closing quote, then reports the row's first line.
  auto unterminated = ReadEventsCsv(
      "# type: X\n# attrs: s:string\ntime,s\n1,\"never closed\n", &fresh);
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.status().message().find("unterminated quote"),
            std::string::npos)
      << unterminated.status();
  EXPECT_NE(unterminated.status().message().find("row starts at line 4"),
            std::string::npos)
      << unterminated.status();
  EXPECT_NE(unterminated.status().message().find("truncated mid-quote"),
            std::string::npos)
      << unterminated.status();

  // Same but the quoted cell spans lines before the input ends: the row
  // start is still line 4 even though later physical lines were consumed.
  auto truncated = ReadEventsCsv(
      "# type: X\n# attrs: s:string\ntime,s\n1,\"spans\nseveral\nlines\n",
      &fresh);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("row starts at line 4"),
            std::string::npos)
      << truncated.status();
  EXPECT_NE(truncated.status().message().find("truncated mid-quote"),
            std::string::npos)
      << truncated.status();
}

TEST_F(CsvTest, TolerantParseKeepsPrefixBeforeError) {
  TypeRegistry fresh;
  CsvParseResult result = ReadEventsCsvTolerant(
      "# type: X\n# attrs: a:int\ntime,a\n1,10\n2,20\n3,bad\n4,40\n", &fresh,
      "orders.csv");
  EXPECT_FALSE(result.status.ok());
  // Both rows before the corrupt one survive; the corrupt tail is dropped.
  ASSERT_EQ(result.events.size(), 2u);
  EXPECT_EQ(result.rows_parsed, 2);
  EXPECT_EQ(result.error_line, 6);
  EXPECT_EQ(result.events[0]->value(0).AsInt(), 10);
  EXPECT_EQ(result.events[1]->value(0).AsInt(), 20);
  EXPECT_NE(result.status.message().find("orders.csv:6: "), std::string::npos)
      << result.status;

  // All-good input: Ok status, zero error_line.
  CsvParseResult ok = ReadEventsCsvTolerant(
      "# type: X\n# attrs: a:int\ntime,a\n1,10\n", &fresh);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.rows_parsed, 1);
  EXPECT_EQ(ok.error_line, 0);
}

TEST_F(CsvTest, FileErrorsNameThePath) {
  std::string path = ::testing::TempDir() + "/caesar_csv_bad.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("# type: X\n# attrs: a:int\ntime,a\n1,oops\n", f);
    std::fclose(f);
  }
  TypeRegistry fresh;
  auto parsed = ReadEventsCsvFile(path, &fresh);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find(path + ":4: "), std::string::npos)
      << parsed.status();
  std::remove(path.c_str());
}

TEST_F(CsvTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/caesar_csv_test.csv";
  EventBatch events = {Order(7, 3.5, "file", 42)};
  ASSERT_TRUE(WriteEventsCsvFile(path, events, registry_).ok());
  TypeRegistry fresh;
  auto parsed = ReadEventsCsvFile(path, &fresh);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0]->value(0).AsInt(), 7);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadEventsCsvFile(path, &fresh).ok());  // gone
}

TEST(DotTest, ModelExportContainsContextsAndTransitions) {
  TypeRegistry registry;
  registry.RegisterOrGet("E", {{"x", ValueType::kInt}});
  auto model = ParseModel(R"(
CONTEXTS clear, busy DEFAULT clear;
QUERY go SWITCH CONTEXT busy PATTERN E e WHERE e.x > 1 CONTEXT clear;
QUERY stop TERMINATE CONTEXT busy PATTERN E e CONTEXT busy;
QUERY work DERIVE W(e.x) PATTERN E e CONTEXT busy;
)",
                          &registry);
  ASSERT_TRUE(model.ok()) << model.status();
  std::string dot = ModelToDot(model.value());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"clear\""), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // default ctx
  EXPECT_NE(dot.find("\"clear\" -> \"busy\""), std::string::npos);
  EXPECT_NE(dot.find("work"), std::string::npos);  // workload listed
}

TEST(DotTest, PlanExportContainsChains) {
  TypeRegistry registry;
  registry.RegisterOrGet("E", {{"x", ValueType::kInt}});
  auto model = ParseModel(R"(
CONTEXTS only;
QUERY work DERIVE W(e.x) PATTERN E e WHERE e.x > 1;
)",
                          &registry);
  ASSERT_TRUE(model.ok());
  auto plan = TranslateModel(model.value(), PlanOptions());
  ASSERT_TRUE(plan.ok());
  std::string dot = PlanToDot(plan.value());
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("Pattern"), std::string::npos);
  EXPECT_NE(dot.find("ContextWindow"), std::string::npos);
}

}  // namespace
}  // namespace caesar
