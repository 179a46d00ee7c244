// Differential fuzzer CLI: generates seeded (model, stream) cases and
// compares the reference interpreter against the engine across the full
// configuration matrix (see src/oracle/differential.h).
//
// Modes:
//   fuzz_differential --seed N --iters M [--budget-seconds S]
//       [--matrix full|quick] [--inject-bug NAME] [--write-repro DIR]
//     Fuzz loop. Exit 0 = no divergence, 1 = divergence (repro written),
//     2 = usage or harness error.
//   fuzz_differential --replay FILE [--matrix full|quick]
//     Replays a repro file and checks its `expect` line. Exit 0 when the
//     outcome matches the expectation, 1 otherwise.
//   fuzz_differential --shrink FILE [--matrix full|quick] [--write-repro DIR]
//     Re-shrinks a diverging repro file with ShrinkRepro (for a spec whose
//     in-process shrink was interrupted, or a hand-edited one) and writes
//     DIR/<name>.min.repro. Exit 0 = written, 1 = the input does not
//     diverge, 2 = usage or harness error.
//   fuzz_differential --describe --seed N --iters M
//     Prints the generator summary for each seed without running anything.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>

#include "oracle/differential.h"
#include "oracle/generator.h"
#include "optimizer/window_grouping.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--iters M] [--budget-seconds S]\n"
      "          [--matrix full|quick]\n"
      "          [--inject-bug NAME] [--inject-model-bug NAME] [--no-lint]\n"
      "          [--crash-recovery]\n"
      "          [--write-repro DIR] [--force-negation]\n"
      "          [--replay FILE] [--shrink FILE] [--describe]\n",
      argv0);
  return 2;
}

// Counts of the case `spec` denotes, as "Q queries, E events".
std::string CaseShape(const caesar::ReproSpec& spec) {
  caesar::TypeRegistry registry;
  auto materialized = caesar::Materialize(spec, &registry);
  if (!materialized.ok()) return materialized.status().ToString();
  return std::to_string(materialized.value().num_queries) + " queries, " +
         std::to_string(materialized.value().num_events) + " events";
}

int Shrink(const std::string& path, bool full_matrix,
           const std::string& out_dir) {
  auto spec = caesar::ReadRepro(path);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  auto report = caesar::ReplayRepro(spec.value(), full_matrix);
  if (!report.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  if (!report.value().diverged) {
    std::printf("input does not diverge; nothing to shrink\n");
    return 1;
  }
  auto shrunk = caesar::ShrinkRepro(spec.value(), full_matrix);
  if (!shrunk.ok()) {
    std::fprintf(stderr, "shrink failed: %s\n",
                 shrunk.status().ToString().c_str());
    return 2;
  }
  caesar::ReproSpec result = std::move(shrunk).value();
  result.expect = "diverge";
  const std::string out = out_dir + "/" +
                          std::filesystem::path(path).stem().string() +
                          ".min.repro";
  caesar::Status written = caesar::WriteRepro(result, out);
  if (!written.ok()) {
    std::fprintf(stderr, "could not write repro: %s\n",
                 written.ToString().c_str());
    return 2;
  }
  std::printf("shrunk %s -> %s\nwritten to %s\n%s",
              CaseShape(spec.value()).c_str(), CaseShape(result).c_str(),
              out.c_str(), caesar::FormatRepro(result).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  int iters = 100;
  double budget_seconds = 0;
  bool full_matrix = true;
  bool describe = false;
  bool dump = false;
  bool force_negation = false;
  bool lint = true;
  bool crash_recovery = false;
  std::string bug;
  std::string model_bug;
  std::string replay_path;
  std::string shrink_path;
  std::string write_repro_dir = ".";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--iters") {
      iters = std::atoi(next());
    } else if (arg == "--budget-seconds") {
      budget_seconds = std::atof(next());
    } else if (arg == "--matrix") {
      const std::string m = next();
      if (m == "full") {
        full_matrix = true;
      } else if (m == "quick") {
        full_matrix = false;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--inject-bug") {
      bug = next();
    } else if (arg == "--inject-model-bug") {
      model_bug = next();
    } else if (arg == "--no-lint") {
      lint = false;
    } else if (arg == "--crash-recovery") {
      crash_recovery = true;
    } else if (arg == "--write-repro") {
      write_repro_dir = next();
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--shrink") {
      shrink_path = next();
    } else if (arg == "--describe") {
      describe = true;
    } else if (arg == "--dump") {
      dump = true;
    } else if (arg == "--force-negation") {
      force_negation = true;
    } else {
      return Usage(argv[0]);
    }
  }

  caesar::GeneratorOptions generator;
  generator.force_negation = force_negation;

  if (describe) {
    for (int i = 0; i < iters; ++i) {
      caesar::TypeRegistry registry;
      auto generated = caesar::GenerateCase(seed + i, &registry, generator);
      if (!generated.ok()) {
        std::fprintf(stderr, "seed %llu: %s\n",
                     static_cast<unsigned long long>(seed + i),
                     generated.status().ToString().c_str());
        return 2;
      }
      std::printf("%s\n", generated.value().summary.c_str());
    }
    return 0;
  }

  if (!shrink_path.empty()) {
    return Shrink(shrink_path, full_matrix, write_repro_dir);
  }

  if (!replay_path.empty()) {
    auto spec = caesar::ReadRepro(replay_path);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    if (dump) {
      caesar::TypeRegistry registry;
      auto materialized = caesar::Materialize(spec.value(), &registry);
      if (!materialized.ok()) {
        std::fprintf(stderr, "%s\n",
                     materialized.status().ToString().c_str());
        return 2;
      }
      const caesar::MaterializedCase& c = materialized.value();
      std::printf("== case ==\n%s\n== model ==\n%s\n", c.summary.c_str(),
                  c.model.ToString().c_str());
      auto grouped = caesar::ApplyWindowGrouping(c.model);
      if (grouped.ok()) {
        std::printf("== grouped model ==\n%s\n",
                    grouped.value().ToString().c_str());
      } else {
        std::printf("== grouped model: %s ==\n",
                    grouped.status().ToString().c_str());
      }
      std::printf("== kept clean events (%d) ==\n", c.num_events);
      for (const caesar::EventPtr& e : c.clean) {
        std::printf("  %s\n", e->ToString(registry).c_str());
      }
      return 0;
    }
    auto report = caesar::ReplayRepro(spec.value(), full_matrix);
    if (!report.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   report.status().ToString().c_str());
      return 2;
    }
    const bool diverged = report.value().diverged;
    const bool expected_divergence = spec.value().expect == "diverge";
    if (diverged) {
      std::printf("divergence on leg %s\n%s\n", report.value().leg.c_str(),
                  report.value().detail.c_str());
    } else {
      std::printf("no divergence\n");
    }
    if (diverged == expected_divergence) {
      std::printf("outcome matches expect = %s\n",
                  spec.value().expect.c_str());
      return 0;
    }
    std::printf("outcome does NOT match expect = %s\n",
                spec.value().expect.c_str());
    return 1;
  }

  caesar::FuzzOptions options;
  options.seed = seed;
  options.iters = iters;
  options.budget_seconds = budget_seconds;
  options.full_matrix = full_matrix;
  options.bug = bug;
  options.generator = generator;
  options.lint = lint;
  options.model_mutation = model_bug;
  options.crash_recovery = crash_recovery;

  auto result = caesar::RunFuzz(options);
  if (!result.ok()) {
    std::fprintf(stderr, "fuzz harness error: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  const caesar::FuzzResult& fuzz = result.value();
  if (!fuzz.diverged) {
    std::printf("OK: %d iteration(s), no divergence (%s matrix, %zu legs)\n",
                fuzz.iterations_run, full_matrix ? "full" : "quick",
                (full_matrix ? caesar::FullMatrix() : caesar::QuickMatrix())
                    .size());
    return 0;
  }
  std::printf("DIVERGENCE after %d iteration(s) on leg %s\n%s\n",
              fuzz.iterations_run, fuzz.report.leg.c_str(),
              fuzz.report.detail.c_str());
  const std::string path = write_repro_dir + "/repro_seed" +
                           std::to_string(fuzz.repro.seed) + ".repro";
  auto written = caesar::WriteRepro(fuzz.repro, path);
  if (written.ok()) {
    std::printf("shrunken repro written to %s\n%s", path.c_str(),
                caesar::FormatRepro(fuzz.repro).c_str());
  } else {
    std::fprintf(stderr, "could not write repro: %s\n",
                 written.ToString().c_str());
  }
  return 1;
}
