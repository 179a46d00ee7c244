// Static semantic analysis of CAESAR models ("caesar-lint").
//
// The analyzer inspects a model *before* plan translation and reports coded
// diagnostics (analysis/diagnostics.h) instead of opaque Status failures:
//
//   - structural checks, exactly CaesarModel::StructuralDiagnostics (the
//     one home of the model's well-formedness rules, which Normalize, a
//     strict ParseModel and TranslateModel enforce): unknown context names
//     (C005), malformed aggregates (E105), missing PATTERN (E107), neither
//     DERIVE nor an action (E108), SEQ without a positive position (E109),
//     too many contexts (P301), SEQ ending in a negated position (P302).
//   - context-graph checks: unreachable contexts (C001), self-loop SWITCH
//     edges (C002), shadowed SWITCH edges (C003), dead queries (C004).
//     Reachability is an activation fixpoint: the default context is
//     active, and a query whose gate set intersects the active set
//     activates its INITIATE/SWITCH target. Which queries open and close a
//     context's windows is the model's Query::Opens / Query::Closes.
//   - expression/type checks against the event schemas: unknown event types
//     (E101), unknown attributes (E102), operand type errors (E103),
//     string-typed predicates (E104), aggregate group-by and argument
//     attributes (E105), DERIVE schema conflicts (E106), and WHERE
//     conjuncts spanning several negated positions (P303), by the plan's
//     typing rules (plan/translator.h). Derived event types are resolved to
//     a fixpoint, so queries may consume each other's outputs in any order.
//   - satisfiability checks: contradictory predicate conjunctions via
//     interval analysis (W201), SEQ patterns whose WITHIN bound is shorter
//     than the strictly-increasing-timestamp minimum (W202), constant
//     predicates via compile-time folding (W205).
//   - optimizer-precondition checks (the analyzer <-> optimizer contract):
//     contexts whose window bounds are not compile-time orderable and thus
//     ineligible for window grouping (W203, a note), inverted window bounds
//     (W204).
//
// The analyzer never mutates the model or its TypeRegistry; the only
// exception is AnalyzerOptions::check_plan, which runs the real plan
// translator (registering derived types) as a final end-to-end check.

#ifndef CAESAR_ANALYSIS_ANALYZER_H_
#define CAESAR_ANALYSIS_ANALYZER_H_

#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "query/model.h"

namespace caesar {

struct AnalyzerOptions {
  // Stamped into every diagnostic's `source` field (and thus the rendered
  // "<source>:<line>:<col>:" prefix).
  std::string source_name;

  // Emit note-severity diagnostics (e.g. W203 ungroupable window). Notes
  // never affect "lint clean" verdicts; turning them off just shrinks the
  // report.
  bool include_notes = true;

  // Run the plan translator as a final end-to-end check and report any
  // failure as P304. Registers derived event types into the model's
  // TypeRegistry (the translator's normal side effect); leave off when the
  // registry must stay untouched. Skipped when the analysis already found
  // errors.
  bool check_plan = false;
};

// Analyzes `model` (which should be Normalize()d; analysis tooling ignores
// Normalize's status) and returns all diagnostics, deterministically
// sorted.
std::vector<Diagnostic> AnalyzeModel(const CaesarModel& model,
                                     const AnalyzerOptions& options = {});

// Context-graph subset only (C001-C004): the checks strict ParseModel
// enforces. Unknown context names are skipped here
// (CaesarModel::StructuralDiagnostics reports them as C005). Diagnostics carry no `source`; callers stamp it.
std::vector<Diagnostic> AnalyzeContextGraph(const CaesarModel& model);

}  // namespace caesar

#endif  // CAESAR_ANALYSIS_ANALYZER_H_
