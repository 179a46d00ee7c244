// The diagnostics engine behind caesar-lint (and the coded error paths of
// the parser, ingest, and CSV reader): stable diagnostic codes, severities,
// source spans, and deterministic renderers.
//
// Code ranges:
//   C0xx  context graph      (reachability, switch edges, dead workloads)
//   E1xx  expression / type  (schemas, attribute resolution, clause shape)
//   W2xx  windows / grouping (satisfiability, optimizer preconditions)
//   P3xx  plan               (shapes the planner cannot realize)
//   I4xx  ingest / IO        (quarantine reasons, CSV stream errors)
//
// Codes are append-only: a released code never changes meaning, so tools
// and golden files can match on them. Rendering is deterministic — equal
// diagnostic lists produce byte-identical human, JSON, and SARIF output.

#ifndef CAESAR_ANALYSIS_DIAGNOSTICS_H_
#define CAESAR_ANALYSIS_DIAGNOSTICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/source_loc.h"

namespace caesar {

enum class DiagSeverity : int8_t { kError, kWarning, kNote };

const char* DiagSeverityName(DiagSeverity severity);  // "error" / ...

enum class DiagCode : int16_t {
  // C0xx — context graph.
  kC001UnreachableContext,   // no INITIATE/SWITCH targets a non-default ctx
  kC002SelfLoopSwitch,       // SWITCH gated on its own target context
  kC003ShadowedSwitchEdge,   // an earlier switch provably fires first
  kC004DeadQuery,            // gated only on never-activatable contexts
  kC005UnknownContext,       // context name not declared
  kC006ProvablyEmptyContext, // every initiating event also terminates

  // E1xx — expressions and types.
  kE101UnknownEventType,     // pattern references an unregistered type
  kE102UnknownAttribute,     // attribute/variable does not resolve
  kE103TypeMismatch,         // operand types incompatible
  kE104NonBooleanPredicate,  // WHERE/HAVING cannot be true (string result)
  kE105BadAggregate,         // aggregate clause shape/attribute invalid
  kE106DeriveSchemaConflict, // DERIVE re-registers a type with new schema
  kE107MissingPattern,       // query without (non-empty) PATTERN
  kE108MissingDeriveOrAction,// processing query without DERIVE
  kE109NoPositiveItem,       // SEQ made only of negated positions

  // W2xx — windows and grouping.
  kW201ContradictoryPredicate, // conjunction has an empty interval
  kW202UnsatisfiableSeq,       // WITHIN too small for the position count
  kW203UngroupableWindow,      // bounds not compile-time orderable
  kW204InvertedWindowBounds,   // terminator threshold <= initiator threshold
  kW205ConstantPredicate,      // predicate folds to a constant
  kW206CrossPositionContradiction, // SEQ can never complete (absint)
  kW207SubsumedGuard,          // guard implied by earlier ones on the run

  // P3xx — plan.
  kP301TooManyContexts,        // exceeds the context bit-vector width
  kP302TrailingNegation,       // SEQ(..., NOT X) has no planner support
  kP303MultiNegatedPredicate,  // predicate spans several negated variables
  kP304PlanTranslation,        // TranslateModel failed for another reason

  // I4xx — ingest and IO (shared vocabulary with QuarantineReason and the
  // tolerant CSV reader).
  kI402LateBeyondSlack,
  kI403UnknownType,
  kI404NegativeTime,
  kI405InvertedInterval,
  kI406MalformedCsv,
  // Recovery degradation (durability/): surfaced through the recovered
  // engine's StatisticsReport so a lossy restart is reported, not silent.
  kI410TornWalTail,          // incomplete final WAL record truncated
  kI411CheckpointCrcMismatch,// checkpoint failed its checksum, skipped
  kI412WalRecordCrcMismatch, // mid-log record failed its checksum
  kI413StaleWalRecord,       // record at or below the recovery horizon
  // Server admission (server/): the coded rejections caesard answers on
  // the wire. Clients match on the code, never the message.
  kI420Backpressure,         // tenant's pending buffer full; retry later
  kI421UnknownTenant,        // request names a tenant that is not registered
  kI422DuplicateTenant,      // register for a name that is already live
  kI423BadFrame,             // unparseable frame/JSON/request shape
  kI424AdmissionRejected,    // model failed parse or strict lint gate
};

// Stable printable code, e.g. "C001".
const char* DiagCodeName(DiagCode code);

// Short human title for rule catalogs (SARIF rules, docs).
const char* DiagCodeTitle(DiagCode code);

// The severity the analyzer assigns by default.
DiagSeverity DiagCodeDefaultSeverity(DiagCode code);

// One diagnostic. `source` names the file/stream the span refers to (empty
// for programmatic models); `query`/`context` name the offending model
// elements when applicable.
struct Diagnostic {
  DiagCode code = DiagCode::kC001UnreachableContext;
  DiagSeverity severity = DiagSeverity::kError;
  std::string source;
  SourceLoc loc;
  std::string message;
  std::string query;
  std::string context;
};

// Convenience constructor applying the code's default severity.
Diagnostic MakeDiag(DiagCode code, std::string message,
                    SourceLoc loc = {}, std::string query = {},
                    std::string context = {});

// "file:3:14: error[C001]: message" — the source/span prefix is omitted
// piecewise when unknown.
std::string FormatDiagnostic(const Diagnostic& diag);

// Any error-severity entry?
bool HasErrors(const std::vector<Diagnostic>& diags);
// Any error- or warning-severity entry? (The lint definition of "not
// clean"; notes are advisory.)
bool HasErrorsOrWarnings(const std::vector<Diagnostic>& diags);

// Deterministic order: (source, line, col, code, message, query).
void SortDiagnostics(std::vector<Diagnostic>* diags);

// Deterministic JSON document (see tools/check_lint_schema.py for the
// schema): {"tool":"caesar_lint","version":1,"diagnostics":[...]}.
std::string DiagnosticsToJson(const std::vector<Diagnostic>& diags);

// Deterministic SARIF 2.1.0 document with one run and one rule per code
// present. No timestamps or absolute paths, so repeat runs are
// byte-identical.
std::string DiagnosticsToSarif(const std::vector<Diagnostic>& diags);

}  // namespace caesar

#endif  // CAESAR_ANALYSIS_DIAGNOSTICS_H_
