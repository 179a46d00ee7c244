// caesar_lint: static semantic analyzer CLI for CAESAR models.
//
// Modes:
//   caesar_lint [options] FILE...
//     Lints textual model files (with inline TYPE declarations; see
//     src/query/parser.h). Syntax errors are reported with the
//     "<file>:<line>:<col>:" prefix and exit 2.
//   caesar_lint --builtin linear_road|pamap|synthetic|all
//     Lints the in-repo workload models.
//   caesar_lint --seed N [--iters M]
//     Lints generated fuzz models (oracle/generator.h). Well-formed
//     generated models must be clean.
//   caesar_lint --seed N --inject-bug NAME
//     Applies the named model mutation (see --list-bugs) to each generated
//     model; the mutated model must NOT lint clean, and the report carries
//     the mutation's paired diagnostic code.
//   caesar_lint --selfcheck [--seed N] [--iters M]
//     Sweeps every mutation over the seeds and verifies (a) base models
//     lint clean, (b) each mutation is flagged with its paired code, and
//     (c) whenever TranslateModel rejects a base or mutated model, its
//     Status carries a code the analyzer reported.
//   caesar_lint --dump-automaton FILE...
//     Prints the compiled pattern automaton (compile/compiler.h) for every
//     pattern query in each model, in the deterministic text form the
//     compile_corpus goldens pin. With --no-absint the
//     abstract-interpretation pass is skipped, matching a compiler without
//     it byte for byte.
//   caesar_lint --dump-facts FILE...
//     Prints the abstract interpreter's per-state interval facts
//     (analysis/absint.h) for every pattern query in each model —
//     deterministic, like --dump-automaton.
//
// Options:
//   --format=human|json|sarif   output format (default human). JSON and
//                               SARIF are deterministic: byte-identical
//                               across repeat runs on the same input.
//   --no-notes                  drop note-severity diagnostics
//   --no-absint                 disable absint pruning in --dump-automaton
//   --list-bugs                 print the model mutation names and exit
//
// Exit codes: 0 = clean (no errors or warnings; notes allowed),
// 1 = diagnostics at warning severity or above (or selfcheck failure),
// 2 = usage, I/O, or syntax error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/analyzer.h"
#include "analysis/diagnostics.h"
#include "compile/compiler.h"
#include "oracle/generator.h"
#include "plan/translator.h"
#include "query/parser.h"
#include "workloads/linear_road.h"
#include "workloads/pamap.h"
#include "workloads/synthetic.h"

namespace {

using caesar::AnalyzeModel;
using caesar::AnalyzerOptions;
using caesar::CaesarModel;
using caesar::Diagnostic;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--format=human|json|sarif] [--no-notes] FILE...\n"
      "       %s --builtin linear_road|pamap|synthetic|all\n"
      "       %s --seed N [--iters M] [--inject-bug NAME]\n"
      "       %s --selfcheck [--seed N] [--iters M]\n"
      "       %s --dump-automaton [--no-absint] FILE...\n"
      "       %s --dump-facts FILE...\n"
      "       %s --list-bugs\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

struct LintRun {
  AnalyzerOptions analyzer;
  std::vector<Diagnostic> diagnostics;

  // Analyzes `model`, stamping `source` into the diagnostics.
  void Lint(const CaesarModel& model, const std::string& source) {
    AnalyzerOptions options = analyzer;
    options.source_name = source;
    for (Diagnostic& diag : AnalyzeModel(model, options)) {
      diagnostics.push_back(std::move(diag));
    }
  }
};

// Renders and prints the merged report; returns the process exit code.
int Report(LintRun* run, const std::string& format) {
  caesar::SortDiagnostics(&run->diagnostics);
  if (format == "json") {
    std::fputs(caesar::DiagnosticsToJson(run->diagnostics).c_str(), stdout);
  } else if (format == "sarif") {
    std::fputs(caesar::DiagnosticsToSarif(run->diagnostics).c_str(), stdout);
  } else {
    for (const Diagnostic& diag : run->diagnostics) {
      std::printf("%s\n", caesar::FormatDiagnostic(diag).c_str());
    }
  }
  return caesar::HasErrorsOrWarnings(run->diagnostics) ? 1 : 0;
}

bool HasCode(const std::vector<Diagnostic>& diags, const std::string& code) {
  for (const Diagnostic& diag : diags) {
    if (caesar::DiagCodeName(diag.code) == code) return true;
  }
  return false;
}

// The translator rejects a model with its first structural or typing
// diagnostic, rendered; the analysis of the same model must have reported
// that code. Returns the failure's message when it did not, else "".
std::string UnreportedTranslationFailure(const CaesarModel& model,
                                         const std::vector<Diagnostic>& diags) {
  auto plan = caesar::TranslateModel(model, caesar::PlanOptions{});
  if (plan.ok()) return "";
  const std::string message = plan.status().message();
  const size_t open = message.find('[');
  const size_t close = message.find(']', open);
  if (open != std::string::npos && close != std::string::npos &&
      HasCode(diags, message.substr(open + 1, close - open - 1))) {
    return "";
  }
  return message;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "human";
  bool include_notes = true;
  bool selfcheck = false;
  bool list_bugs = false;
  bool dump_automaton = false;
  bool dump_facts = false;
  bool absint = true;
  bool have_seed = false;
  uint64_t seed = 1;
  int iters = 1;
  std::string builtin;
  std::string inject_bug;
  std::vector<std::string> files;

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
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "human" && format != "json" && format != "sarif") {
        return Usage(argv[0]);
      }
    } else if (arg == "--format") {
      format = next();
    } else if (arg == "--no-notes") {
      include_notes = false;
    } else if (arg == "--builtin") {
      builtin = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--iters") {
      iters = std::atoi(next());
    } else if (arg == "--inject-bug") {
      inject_bug = next();
    } else if (arg == "--selfcheck") {
      selfcheck = true;
    } else if (arg == "--list-bugs") {
      list_bugs = true;
    } else if (arg == "--dump-automaton") {
      dump_automaton = true;
    } else if (arg == "--dump-facts") {
      dump_facts = true;
    } else if (arg == "--no-absint") {
      absint = false;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }

  if (list_bugs) {
    for (const std::string& name : caesar::ModelMutationNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  LintRun run;
  run.analyzer.include_notes = include_notes;

  // ---- Selfcheck: mutation sensitivity sweep --------------------------
  if (selfcheck) {
    int failures = 0;
    int checked = 0;
    for (int i = 0; i < iters; ++i) {
      const uint64_t s = seed + static_cast<uint64_t>(i);
      caesar::TypeRegistry registry;
      auto generated = caesar::GenerateCase(s, &registry);
      if (!generated.ok()) {
        std::fprintf(stderr, "seed %llu: %s\n",
                     static_cast<unsigned long long>(s),
                     generated.status().ToString().c_str());
        return 2;
      }
      AnalyzerOptions options;
      options.source_name = "<seed " + std::to_string(s) + ">";
      options.include_notes = false;
      // Each model is analyzed before it is translated: translation
      // registers the derived types the analysis must not see yet.
      auto check_translation = [&](const CaesarModel& model,
                                   const std::vector<Diagnostic>& diags,
                                   const std::string& what) {
        std::string failure = UnreportedTranslationFailure(model, diags);
        if (failure.empty()) return;
        std::fprintf(stderr,
                     "FAIL seed %llu: %s: translation failure not reported "
                     "by the analyzer: %s\n",
                     static_cast<unsigned long long>(s), what.c_str(),
                     failure.c_str());
        ++failures;
      };
      auto base = AnalyzeModel(generated.value().model, options);
      if (caesar::HasErrorsOrWarnings(base)) {
        std::fprintf(stderr, "FAIL seed %llu: base model not clean: %s\n",
                     static_cast<unsigned long long>(s),
                     caesar::FormatDiagnostic(base.front()).c_str());
        ++failures;
      }
      check_translation(generated.value().model, base, "base model");
      for (const std::string& mutation : caesar::ModelMutationNames()) {
        std::string expected;
        auto mutated =
            caesar::MutateModel(generated.value().model, mutation, &expected);
        if (!mutated.ok()) continue;  // shape not present in this model
        auto diags = AnalyzeModel(mutated.value(), options);
        ++checked;
        if (!HasCode(diags, expected)) {
          std::fprintf(stderr,
                       "FAIL seed %llu: mutation %s not flagged with %s\n",
                       static_cast<unsigned long long>(s), mutation.c_str(),
                       expected.c_str());
          ++failures;
        }
        check_translation(mutated.value(), diags, "mutation " + mutation);
      }
    }
    std::fprintf(stderr, "selfcheck: %d mutation checks, %d failure(s)\n",
                 checked, failures);
    return failures == 0 ? 0 : 1;
  }

  // ---- Generated models ----------------------------------------------
  if (have_seed) {
    for (int i = 0; i < iters; ++i) {
      const uint64_t s = seed + static_cast<uint64_t>(i);
      caesar::TypeRegistry registry;
      auto generated = caesar::GenerateCase(s, &registry);
      if (!generated.ok()) {
        std::fprintf(stderr, "seed %llu: %s\n",
                     static_cast<unsigned long long>(s),
                     generated.status().ToString().c_str());
        return 2;
      }
      const std::string source = "<seed " + std::to_string(s) + ">";
      if (inject_bug.empty()) {
        run.Lint(generated.value().model, source);
        continue;
      }
      std::string expected;
      auto mutated = caesar::MutateModel(generated.value().model, inject_bug,
                                         &expected);
      if (!mutated.ok()) {
        std::fprintf(stderr, "seed %llu: %s\n",
                     static_cast<unsigned long long>(s),
                     mutated.status().ToString().c_str());
        return 2;
      }
      run.Lint(mutated.value(), source + " +" + inject_bug);
    }
    return Report(&run, format);
  }

  // ---- Builtin workload models ---------------------------------------
  if (!builtin.empty()) {
    auto lint_builtin = [&](const std::string& name) -> bool {
      caesar::TypeRegistry registry;
      caesar::Result<CaesarModel> model = [&]() -> caesar::Result<CaesarModel> {
        if (name == "linear_road") {
          caesar::RegisterLinearRoadTypes(&registry);
          return caesar::MakeLinearRoadModel({}, &registry);
        }
        if (name == "pamap") {
          caesar::RegisterPamapTypes(&registry);
          return caesar::MakePamapModel({}, &registry);
        }
        if (name == "synthetic") {
          caesar::RegisterSyntheticTypes(&registry);
          return caesar::MakeSyntheticModel({}, &registry);
        }
        return caesar::Status::InvalidArgument("unknown builtin: " + name);
      }();
      if (!model.ok()) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(),
                     model.status().ToString().c_str());
        return false;
      }
      run.Lint(model.value(), "<builtin:" + name + ">");
      return true;
    };
    if (builtin == "all") {
      for (const char* name : {"linear_road", "pamap", "synthetic"}) {
        if (!lint_builtin(name)) return 2;
      }
    } else if (!lint_builtin(builtin)) {
      return 2;
    }
    return Report(&run, format);
  }

  // ---- Automaton / interval-fact dumps ---------------------------------
  if (dump_automaton || dump_facts) {
    if (files.empty()) return Usage(argv[0]);
    for (const std::string& path : files) {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "%s: cannot open\n", path.c_str());
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      caesar::TypeRegistry registry;
      caesar::ParseModelOptions parse_options;
      parse_options.source_name = path;
      auto model = caesar::ParseModel(text.str(), &registry, parse_options);
      if (!model.ok()) {
        std::fprintf(stderr, "%s\n", model.status().message().c_str());
        return 2;
      }
      caesar::PlanOptions plan_options;
      plan_options.absint = absint;
      auto dumped =
          dump_facts ? caesar::DumpModelFacts(model.value(), plan_options)
                     : caesar::DumpModelAutomatons(model.value(), plan_options);
      if (!dumped.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     dumped.status().ToString().c_str());
        return 2;
      }
      if (files.size() > 1) std::printf("== %s ==\n", path.c_str());
      std::fputs(dumped.value().c_str(), stdout);
    }
    return 0;
  }

  // ---- Model files ----------------------------------------------------
  if (files.empty()) return Usage(argv[0]);
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    caesar::TypeRegistry registry;
    caesar::ParseModelOptions parse_options;
    parse_options.source_name = path;
    parse_options.strict = false;  // validity issues become diagnostics
    auto model = caesar::ParseModel(text.str(), &registry, parse_options);
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().message().c_str());
      return 2;
    }
    AnalyzerOptions options = run.analyzer;
    options.source_name = path;
    for (Diagnostic& diag : AnalyzeModel(model.value(), options)) {
      run.diagnostics.push_back(std::move(diag));
    }
  }
  return Report(&run, format);
}
