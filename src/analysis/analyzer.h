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
//     edges (C002), dead queries (C004). Reachability is an activation
//     fixpoint: the default context is active, and a query whose gate set
//     intersects the active set activates its INITIATE/SWITCH target. Which
//     queries open and close a context's windows is the model's
//     Query::Opens / Query::Closes.
//   - typing, exactly TypeModel's diagnostics (plan/typing.h, the pass the
//     translator builds from): E101-E103, E105, E106, P303, P305, P306.
//   - checks over the typed clauses: string-typed predicates (E104),
//     SEQ patterns whose WITHIN is shorter than the
//     strictly-increasing-timestamp minimum (W202), constant predicates
//     (W205), and, all read from the interval facts of analysis/absint.h:
//     contradictory clauses (W201), SWITCH edges an earlier SWITCH
//     shadows (C003), contexts that close the moment they open (C006), and
//     guards across SEQ positions that can never hold or never filter
//     (W206 / W207).
//   - optimizer-precondition checks (the analyzer <-> optimizer contract):
//     contexts whose window bounds are not compile-time orderable and thus
//     ineligible for window grouping (W203, a note; ExtractWindowBounds
//     skips exactly these), inverted window bounds (W204).
//
// The analyzer never mutates the model or its TypeRegistry. TranslateModel
// rejects a model with its first structural or typing diagnostic, so every
// translation failure carries a code the analyzer reports.

#ifndef CAESAR_ANALYSIS_ANALYZER_H_
#define CAESAR_ANALYSIS_ANALYZER_H_

#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "query/model.h"

namespace caesar {

struct ModelTyping;

struct AnalyzerOptions {
  // Stamped into every diagnostic's `source` field (and thus the rendered
  // "<source>:<line>:<col>:" prefix).
  std::string source_name;

  // Emit note-severity diagnostics (e.g. W203 ungroupable window). Notes
  // never affect "lint clean" verdicts; turning them off just shrinks the
  // report.
  bool include_notes = true;
};

// Analyzes `model` (which should be Normalize()d; analysis tooling ignores
// Normalize's status) and returns all diagnostics, deterministically
// sorted.
std::vector<Diagnostic> AnalyzeModel(const CaesarModel& model,
                                     const AnalyzerOptions& options = {});

// As above, over `typing`, which is TypeModel(model): a caller that also
// translates the model types it once (TranslateModel takes it too).
std::vector<Diagnostic> AnalyzeModel(const CaesarModel& model,
                                     const ModelTyping& typing,
                                     const AnalyzerOptions& options = {});

// Context-graph subset only (C001, C002, C004): the checks strict
// ParseModel enforces, which need no typing. Unknown context names are
// skipped here (CaesarModel::StructuralDiagnostics reports them as C005).
// Diagnostics carry no `source`; callers stamp it.
std::vector<Diagnostic> AnalyzeContextGraph(const CaesarModel& model);

}  // namespace caesar

#endif  // CAESAR_ANALYSIS_ANALYZER_H_
