// In-tree entry points for the differential-testing oracle
// (src/oracle/): replays the checked-in corpus on every ctest run, runs a
// short fuzz sweep, and checks the harness stays sensitive to planted
// oracle bugs (and that its shrinker produces genuinely small repros).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostics.h"
#include "oracle/differential.h"
#include "oracle/generator.h"

namespace caesar {
namespace {

std::vector<std::string> CorpusFiles() {
  const std::filesystem::path dir =
      std::filesystem::path(CAESAR_TEST_SRCDIR) / "corpus";
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".repro") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CorpusReplayTest, EverySpecMatchesItsExpectation) {
  const std::vector<std::string> files = CorpusFiles();
  ASSERT_GE(files.size(), 20u) << "corpus went missing";
  for (const std::string& path : files) {
    auto spec = ReadRepro(path);
    ASSERT_TRUE(spec.ok()) << path << ": " << spec.status();
    auto report = ReplayRepro(spec.value(), /*full_matrix=*/true);
    ASSERT_TRUE(report.ok()) << path << ": " << report.status();
    const bool expected = spec.value().expect == "diverge";
    EXPECT_EQ(report.value().diverged, expected)
        << path << ": " << report.value().leg << "\n"
        << report.value().detail;
  }
}

// Seeds disjoint from the corpus and from CI's pinned smoke seed, so the
// in-tree sweep adds coverage instead of repeating it.
TEST(QuickFuzzTest, FreshSeedsAreClean) {
  FuzzOptions options;
  options.seed = 301;
  options.iters = 20;
  options.full_matrix = false;
  auto result = RunFuzz(options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().iterations_run, 20);
  EXPECT_FALSE(result.value().diverged)
      << result.value().report.leg << "\n"
      << result.value().report.detail << "\n"
      << FormatRepro(result.value().repro);
}

// Absint on/off differential: every leg in CompareCase re-runs on plans
// compiled with PlanOptions::absint = false and byte-compares the derived
// streams (divergence leg "<name>/noabsint"), so 50 generated models prove
// the pruning/re-ranking pass never changes observable output. Seeds
// 501..550, disjoint from the other sweeps.
TEST(QuickFuzzTest, FiftySeedsAbsintOnOffByteIdentical) {
  FuzzOptions options;
  options.seed = 501;
  options.iters = 50;
  options.full_matrix = false;
  auto result = RunFuzz(options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().iterations_run, 50);
  EXPECT_FALSE(result.value().diverged)
      << result.value().report.leg << "\n"
      << result.value().report.detail << "\n"
      << FormatRepro(result.value().repro);
}

// Crash-recovery legs over generated cases: seeds rotate the crash point
// through the whole durability protocol (seed % 4 picks append / commit /
// checkpoint write / checkpoint publish), and each iteration checks for
// byte-identical remaining output after recovery.
TEST(QuickFuzzTest, CrashRecoveryLegsAreClean) {
  FuzzOptions options;
  options.seed = 401;
  options.iters = 8;
  options.full_matrix = false;
  options.crash_recovery = true;
  auto result = RunFuzz(options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().iterations_run, 8);
  EXPECT_FALSE(result.value().diverged)
      << result.value().report.leg << "\n"
      << result.value().report.detail << "\n"
      << FormatRepro(result.value().repro);
}

// If the oracle is wrong, the harness must (a) notice quickly and
// (b) shrink the failure to a handful of events that still reproduces.
TEST(InjectedBugTest, SkipNegationIsCaughtAndShrunkSmall) {
  FuzzOptions options;
  options.seed = 1;
  options.iters = 10;
  options.full_matrix = true;
  options.bug = "skip_negation";
  options.generator.force_negation = true;
  auto result = RunFuzz(options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result.value().diverged) << "planted bug went unnoticed";

  const ReproSpec& repro = result.value().repro;
  ASSERT_FALSE(repro.events.empty()) << "shrinker kept the whole stream";
  int64_t kept = 0;
  for (const auto& range : repro.events) {
    kept += range.second - range.first + 1;
  }
  EXPECT_LE(kept, 10) << FormatRepro(repro);
  EXPECT_GE(kept, 1);

  auto replay = ReplayRepro(repro, /*full_matrix=*/true);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay.value().diverged) << "shrunken repro lost the bug";
}

TEST(ReproSpecTest, FormatParseRoundTrip) {
  ReproSpec spec;
  spec.seed = 42;
  spec.generator.min_segments = 2;
  spec.generator.max_segments = 3;
  spec.generator.min_duration = 80;
  spec.generator.max_duration = 120;
  spec.generator.max_delay = 5;
  spec.generator.duplicate_rate = 0.1;
  spec.generator.malformed_rate = 0.05;
  spec.generator.late_rate = 0.02;
  spec.generator.force_negation = true;
  spec.leg = "shared/t4/reorder/m1";
  spec.queries = {0, 2, 5};
  spec.events = {{3, 17}, {40, 40}};
  spec.expect = "match";
  spec.bug = "drop_having";

  auto parsed = ParseRepro(FormatRepro(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ReproSpec& back = parsed.value();
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.generator.min_segments, spec.generator.min_segments);
  EXPECT_EQ(back.generator.max_segments, spec.generator.max_segments);
  EXPECT_EQ(back.generator.min_duration, spec.generator.min_duration);
  EXPECT_EQ(back.generator.max_duration, spec.generator.max_duration);
  EXPECT_EQ(back.generator.max_delay, spec.generator.max_delay);
  EXPECT_DOUBLE_EQ(back.generator.duplicate_rate,
                   spec.generator.duplicate_rate);
  EXPECT_DOUBLE_EQ(back.generator.malformed_rate,
                   spec.generator.malformed_rate);
  EXPECT_DOUBLE_EQ(back.generator.late_rate, spec.generator.late_rate);
  EXPECT_EQ(back.generator.force_negation, spec.generator.force_negation);
  EXPECT_EQ(back.leg, spec.leg);
  EXPECT_EQ(back.queries, spec.queries);
  EXPECT_EQ(back.events, spec.events);
  EXPECT_EQ(back.expect, spec.expect);
  EXPECT_EQ(back.bug, spec.bug);
}

// The lint leg's standing invariant: every well-formed generated model
// analyzes clean — no error- or warning-severity diagnostics (notes such
// as the non-groupable helper window are expected). 50 seeds, analyzer
// only, so the sweep stays cheap.
TEST(LintLegTest, FiftyGeneratedModelsLintClean) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    TypeRegistry registry;
    auto generated = GenerateCase(seed, &registry);
    ASSERT_TRUE(generated.ok()) << "seed " << seed << ": "
                                << generated.status();
    AnalyzerOptions options;
    options.source_name = "<seed " + std::to_string(seed) + ">";
    options.include_notes = false;
    auto diags = AnalyzeModel(generated.value().model, options);
    EXPECT_FALSE(HasErrorsOrWarnings(diags))
        << "seed " << seed << ": " << FormatDiagnostic(diags.front());
  }
}

// The fuzz loop's mutation mode: a planted model bug must surface as a
// lint-leg divergence carrying the paired diagnostic code.
TEST(LintLegTest, FuzzLoopFlagsPlantedModelBugs) {
  FuzzOptions options;
  options.seed = 401;
  options.iters = 3;
  options.full_matrix = false;
  options.model_mutation = "unreachable_context";
  auto result = RunFuzz(options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result.value().diverged)
      << result.value().report.detail;  // mutation was flagged every time
  EXPECT_EQ(result.value().iterations_run, 3);
}

TEST(ReproSpecTest, UnknownKeysAndBadValuesAreRejected) {
  EXPECT_FALSE(ParseRepro("seed = 1\nnote = hello\n").ok());
  EXPECT_FALSE(ParseRepro("seed = 1\nexpect = maybe\n").ok());
  EXPECT_FALSE(ParseRepro("seed = 1\nevents = 9-3\n").ok());
  // Minimal spec: defaults everywhere else.
  auto minimal = ParseRepro("# just a seed\nseed = 7\n");
  ASSERT_TRUE(minimal.ok()) << minimal.status();
  EXPECT_EQ(minimal.value().seed, 7u);
  EXPECT_EQ(minimal.value().expect, "diverge");
}

}  // namespace
}  // namespace caesar
