// Tests for src/analysis: the diagnostics engine and the semantic
// analyzer behind caesar_lint.
//
// The lint corpus (tests/lint_corpus/*.caesar) pins the analyzer's output
// byte-for-byte: every fixture is lenient-parsed and analyzed exactly the
// way tools/caesar_lint does it, and the rendered human diagnostics must
// equal the paired .expected golden. Programmatic-only checks (shapes the
// text syntax cannot express, engine integration, renderer determinism)
// are covered by unit tests below.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostics.h"
#include "event/schema.h"
#include "io/csv.h"
#include "oracle/generator.h"
#include "plan/translator.h"
#include "query/model.h"
#include "query/parser.h"
#include "runtime/engine.h"
#include "runtime/ingest.h"

namespace caesar {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Mirrors the caesar_lint file mode: lenient parse, full analysis with
// plan checking, human rendering. `source_name` matches the relative path
// the goldens were generated with.
std::string LintFixture(const std::filesystem::path& path,
                        const std::string& source_name) {
  TypeRegistry registry;
  ParseModelOptions parse_options;
  parse_options.source_name = source_name;
  parse_options.strict = false;
  auto model = ParseModel(ReadFile(path), &registry, parse_options);
  EXPECT_TRUE(model.ok()) << model.status();
  if (!model.ok()) return "<parse error>";
  AnalyzerOptions options;
  options.source_name = source_name;
  options.check_plan = true;
  std::string out;
  for (const Diagnostic& diag : AnalyzeModel(model.value(), options)) {
    out += FormatDiagnostic(diag) + "\n";
  }
  return out;
}

TEST(LintCorpusTest, FixturesMatchGoldens) {
  const std::filesystem::path dir =
      std::filesystem::path(CAESAR_TEST_SRCDIR) / "lint_corpus";
  int fixtures = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".caesar") continue;
    ++fixtures;
    const std::string source_name =
        "tests/lint_corpus/" + entry.path().filename().string();
    std::filesystem::path golden = entry.path();
    golden.replace_extension(".expected");
    EXPECT_EQ(LintFixture(entry.path(), source_name), ReadFile(golden))
        << "fixture " << source_name
        << " drifted; regenerate with tools/caesar_lint " << source_name;
  }
  EXPECT_GE(fixtures, 21) << "lint corpus went missing";
}

TEST(LintCorpusTest, EveryFixtureCodeIsDistinctAndCovered) {
  // One fixture per code family entry: the file name prefix names the
  // code it pins (clean_* pin the absence of diagnostics).
  const std::filesystem::path dir =
      std::filesystem::path(CAESAR_TEST_SRCDIR) / "lint_corpus";
  std::set<std::string> codes;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".expected") continue;
    std::istringstream lines(ReadFile(entry.path()));
    std::string line;
    while (std::getline(lines, line)) {
      auto open = line.find('[');
      auto close = line.find(']');
      if (open != std::string::npos && close > open) {
        codes.insert(line.substr(open + 1, close - open - 1));
      }
    }
  }
  // The I41x goldens have no .caesar side — they pin the recovery
  // diagnostics durability_test renders from deliberately rotted WAL and
  // checkpoint files, not analyzer output.
  for (const char* code : {"C001", "C002", "C003", "C004", "C005", "C006",
                           "E101", "E102", "E103", "E104", "E105", "E106",
                           "E109", "W201", "W202", "W203", "W204", "W205",
                           "W206", "W207", "P302", "P303", "I410",
                           "I411", "I412", "I413"}) {
    EXPECT_TRUE(codes.count(code)) << "no fixture exercises " << code;
  }
}

// ---- Programmatic-only checks ----------------------------------------

CaesarModel ModelWithQuery(TypeRegistry* registry, Query query) {
  registry->RegisterOrGet("E", {{"x", ValueType::kInt}});
  CaesarModel model(registry);
  EXPECT_TRUE(model.AddContext("idle").ok());
  EXPECT_TRUE(model.AddQuery(std::move(query)).ok());
  model.NormalizeLenient();
  return model;
}

bool HasCode(const std::vector<Diagnostic>& diags, DiagCode code) {
  for (const Diagnostic& diag : diags) {
    if (diag.code == code) return true;
  }
  return false;
}

TEST(AnalyzerTest, MissingPatternIsE107) {
  TypeRegistry registry;
  Query query;
  query.name = "bare";
  DeriveSpec derive;
  derive.event_type = "Out";
  derive.args.push_back(MakeConstant(1.0));
  query.derive = derive;
  CaesarModel model = ModelWithQuery(&registry, std::move(query));
  EXPECT_TRUE(HasCode(AnalyzeModel(model), DiagCode::kE107MissingPattern));
}

TEST(AnalyzerTest, MissingDeriveAndActionIsE108) {
  TypeRegistry registry;
  Query query;
  query.name = "inert";
  PatternSpec pattern;
  pattern.items.push_back({"E", "p", false});
  query.pattern = pattern;
  CaesarModel model = ModelWithQuery(&registry, std::move(query));
  EXPECT_TRUE(
      HasCode(AnalyzeModel(model), DiagCode::kE108MissingDeriveOrAction));
}

TEST(AnalyzerTest, TooManyContextsIsP301) {
  TypeRegistry registry;
  registry.RegisterOrGet("E", {{"x", ValueType::kInt}});
  CaesarModel model(&registry);
  for (int i = 0; i < 65; ++i) {
    ASSERT_TRUE(model.AddContext("c" + std::to_string(i)).ok());
  }
  model.NormalizeLenient();
  EXPECT_TRUE(HasCode(AnalyzeModel(model), DiagCode::kP301TooManyContexts));
}

TEST(AnalyzerTest, RenderersAreDeterministic) {
  TypeRegistry registry;
  auto generated = GenerateCase(7, &registry);
  ASSERT_TRUE(generated.ok()) << generated.status();
  AnalyzerOptions options;
  options.source_name = "<det>";
  auto first = AnalyzeModel(generated.value().model, options);
  auto second = AnalyzeModel(generated.value().model, options);
  EXPECT_EQ(DiagnosticsToJson(first), DiagnosticsToJson(second));
  EXPECT_EQ(DiagnosticsToSarif(first), DiagnosticsToSarif(second));
}

// ---- Model mutations (the lint oracle) --------------------------------

TEST(AnalyzerTest, EveryModelMutationIsFlaggedWithItsCode) {
  int checked = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    TypeRegistry registry;
    auto generated = GenerateCase(seed, &registry);
    ASSERT_TRUE(generated.ok()) << generated.status();
    AnalyzerOptions options;
    options.include_notes = false;
    for (const std::string& mutation : ModelMutationNames()) {
      std::string expected;
      auto mutated =
          MutateModel(generated.value().model, mutation, &expected);
      if (!mutated.ok()) {
        EXPECT_EQ(mutated.status().code(), StatusCode::kFailedPrecondition)
            << mutated.status();
        continue;
      }
      ++checked;
      bool hit = false;
      for (const Diagnostic& diag : AnalyzeModel(mutated.value(), options)) {
        if (DiagCodeName(diag.code) == expected) hit = true;
      }
      EXPECT_TRUE(hit) << "seed " << seed << ": mutation " << mutation
                       << " not flagged with " << expected;
    }
  }
  EXPECT_GE(checked, 40) << "mutations mostly skipped";
}

// ---- Engine integration -----------------------------------------------

// A model that translates but carries a W201 contradiction warning.
CaesarModel ContradictionModel(TypeRegistry* registry) {
  registry->RegisterOrGet("E", {{"x", ValueType::kInt}});
  registry->RegisterOrGet("Out", {{"x", ValueType::kInt}});
  CaesarModel model(registry);
  EXPECT_TRUE(model.AddContext("idle").ok());
  Query query;
  query.name = "nope";
  PatternSpec pattern;
  pattern.items.push_back({"E", "p", false});
  query.pattern = pattern;
  query.where = MakeConjunction(
      MakeBinary(BinaryOp::kGe, MakeAttrRef("p", "x"), MakeConstant(10.0)),
      MakeBinary(BinaryOp::kLe, MakeAttrRef("p", "x"), MakeConstant(5.0)));
  DeriveSpec derive;
  derive.event_type = "Out";
  derive.args.push_back(MakeAttrRef("p", "x"));
  query.derive = derive;
  EXPECT_TRUE(model.AddQuery(std::move(query)).ok());
  EXPECT_TRUE(model.Normalize().ok());
  return model;
}

TEST(EngineAnalysisTest, WarnModeSurfacesDiagnosticsInStatistics) {
  TypeRegistry registry;
  CaesarModel model = ContradictionModel(&registry);
  EngineOptions options;
  // The model has a warning and no error: kStrict creates the engine and
  // retains the warning.
  options.analysis = AnalysisMode::kStrict;
  auto engine = Engine::Create(model, PlanOptions{}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  StatisticsReport report = engine.value()->CollectStatistics();
  ASSERT_EQ(report.analysis_diagnostics.size(), 1u);
  EXPECT_NE(report.analysis_diagnostics[0].find("W201"), std::string::npos)
      << report.analysis_diagnostics[0];
  EXPECT_NE(report.ToString().find("analysis diagnostics:"),
            std::string::npos);
}

TEST(EngineAnalysisTest, StrictModeRejectsErrors) {
  TypeRegistry registry;
  registry.RegisterOrGet("E", {{"x", ValueType::kInt}});
  CaesarModel model(&registry);
  ASSERT_TRUE(model.AddContext("idle").ok());
  Query query;
  query.name = "bad";
  PatternSpec pattern;
  pattern.items.push_back({"E", "p", false});
  query.pattern = pattern;
  query.where =
      MakeBinary(BinaryOp::kEq, MakeAttrRef("p", "nope"), MakeConstant(1.0));
  DeriveSpec derive;
  derive.event_type = "Out";
  derive.args.push_back(MakeAttrRef("p", "x"));
  query.derive = derive;
  ASSERT_TRUE(model.AddQuery(std::move(query)).ok());
  ASSERT_TRUE(model.Normalize().ok());

  EngineOptions strict;
  strict.analysis = AnalysisMode::kStrict;
  auto engine = Engine::Create(model, PlanOptions{}, strict);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().message().find("E102"), std::string::npos)
      << engine.status();

  // kOff skips the analyzer entirely; the translator still rejects the
  // unknown attribute, but without the diagnostic code.
  EngineOptions off;
  auto unchecked = Engine::Create(model, PlanOptions{}, off);
  ASSERT_FALSE(unchecked.ok());
  EXPECT_EQ(unchecked.status().message().find("E102"), std::string::npos)
      << unchecked.status();
}

TEST(EngineAnalysisTest, CleanModelHasNoRetainedDiagnostics) {
  TypeRegistry registry;
  auto generated = GenerateCase(3, &registry);
  ASSERT_TRUE(generated.ok()) << generated.status();
  EngineOptions options;
  options.analysis = AnalysisMode::kStrict;
  auto engine =
      Engine::Create(generated.value().model, PlanOptions{}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE(engine.value()->CollectStatistics().analysis_diagnostics.empty());
}

// ---- Ingest / IO code sharing (I4xx) ----------------------------------

TEST(DiagnosticsTest, QuarantineReasonsMapOntoI4xxCodes) {
  EXPECT_EQ(QuarantineDiagCode(QuarantineReason::kLateBeyondSlack),
            DiagCode::kI402LateBeyondSlack);
  EXPECT_EQ(QuarantineDiagCode(QuarantineReason::kUnknownType),
            DiagCode::kI403UnknownType);
  EXPECT_EQ(QuarantineDiagCode(QuarantineReason::kNegativeTime),
            DiagCode::kI404NegativeTime);
  EXPECT_EQ(QuarantineDiagCode(QuarantineReason::kInvertedInterval),
            DiagCode::kI405InvertedInterval);
  EXPECT_STREQ(DiagCodeName(DiagCode::kI403UnknownType), "I403");
}

TEST(DiagnosticsTest, CsvReaderErrorsCarryI406) {
  TypeRegistry registry;
  auto parsed = ReadEventsCsv(
      "# type: T\n# attrs: x:int\ntime,x\n1,ok\n", &registry, "feed");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("feed:4: "), std::string::npos)
      << parsed.status();
  EXPECT_NE(parsed.status().message().find("error[I406]: "),
            std::string::npos)
      << parsed.status();
}

}  // namespace
}  // namespace caesar
