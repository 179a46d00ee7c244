#include "analysis/diagnostics.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>

#include "common/json.h"

namespace caesar {

const char* DiagSeverityName(DiagSeverity severity) {
  switch (severity) {
    case DiagSeverity::kError:
      return "error";
    case DiagSeverity::kWarning:
      return "warning";
    case DiagSeverity::kNote:
      return "note";
  }
  return "?";
}

const char* DiagCodeName(DiagCode code) {
  switch (code) {
    case DiagCode::kC001UnreachableContext: return "C001";
    case DiagCode::kC002SelfLoopSwitch: return "C002";
    case DiagCode::kC003ShadowedSwitchEdge: return "C003";
    case DiagCode::kC004DeadQuery: return "C004";
    case DiagCode::kC005UnknownContext: return "C005";
    case DiagCode::kC006ProvablyEmptyContext: return "C006";
    case DiagCode::kE101UnknownEventType: return "E101";
    case DiagCode::kE102UnknownAttribute: return "E102";
    case DiagCode::kE103TypeMismatch: return "E103";
    case DiagCode::kE104NonBooleanPredicate: return "E104";
    case DiagCode::kE105BadAggregate: return "E105";
    case DiagCode::kE106DeriveSchemaConflict: return "E106";
    case DiagCode::kE107MissingPattern: return "E107";
    case DiagCode::kE108MissingDeriveOrAction: return "E108";
    case DiagCode::kE109NoPositiveItem: return "E109";
    case DiagCode::kW201ContradictoryPredicate: return "W201";
    case DiagCode::kW202UnsatisfiableSeq: return "W202";
    case DiagCode::kW203UngroupableWindow: return "W203";
    case DiagCode::kW204InvertedWindowBounds: return "W204";
    case DiagCode::kW205ConstantPredicate: return "W205";
    case DiagCode::kW206CrossPositionContradiction: return "W206";
    case DiagCode::kW207SubsumedGuard: return "W207";
    case DiagCode::kP301TooManyContexts: return "P301";
    case DiagCode::kP302TrailingNegation: return "P302";
    case DiagCode::kP303MultiNegatedPredicate: return "P303";
    case DiagCode::kP305DerivingConsumesProcessing: return "P305";
    case DiagCode::kP306CyclicTypeDependency: return "P306";
    case DiagCode::kI402LateBeyondSlack: return "I402";
    case DiagCode::kI403UnknownType: return "I403";
    case DiagCode::kI404NegativeTime: return "I404";
    case DiagCode::kI405InvertedInterval: return "I405";
    case DiagCode::kI406MalformedCsv: return "I406";
    case DiagCode::kI410TornWalTail: return "I410";
    case DiagCode::kI411CheckpointCrcMismatch: return "I411";
    case DiagCode::kI412WalRecordCrcMismatch: return "I412";
    case DiagCode::kI413StaleWalRecord: return "I413";
    case DiagCode::kI420Backpressure: return "I420";
    case DiagCode::kI421UnknownTenant: return "I421";
    case DiagCode::kI422DuplicateTenant: return "I422";
    case DiagCode::kI423BadFrame: return "I423";
    case DiagCode::kI424AdmissionRejected: return "I424";
  }
  return "????";
}

const char* DiagCodeTitle(DiagCode code) {
  switch (code) {
    case DiagCode::kC001UnreachableContext: return "unreachable context";
    case DiagCode::kC002SelfLoopSwitch: return "self-loop switch edge";
    case DiagCode::kC003ShadowedSwitchEdge: return "shadowed switch edge";
    case DiagCode::kC004DeadQuery: return "dead query";
    case DiagCode::kC005UnknownContext: return "unknown context";
    case DiagCode::kC006ProvablyEmptyContext:
      return "provably empty context";
    case DiagCode::kE101UnknownEventType: return "unknown event type";
    case DiagCode::kE102UnknownAttribute: return "unknown attribute";
    case DiagCode::kE103TypeMismatch: return "type mismatch";
    case DiagCode::kE104NonBooleanPredicate: return "non-boolean predicate";
    case DiagCode::kE105BadAggregate: return "invalid aggregate";
    case DiagCode::kE106DeriveSchemaConflict: return "derive schema conflict";
    case DiagCode::kE107MissingPattern: return "missing pattern";
    case DiagCode::kE108MissingDeriveOrAction:
      return "missing derive or action";
    case DiagCode::kE109NoPositiveItem: return "no positive pattern item";
    case DiagCode::kW201ContradictoryPredicate:
      return "contradictory predicate";
    case DiagCode::kW202UnsatisfiableSeq: return "unsatisfiable sequence";
    case DiagCode::kW203UngroupableWindow: return "ungroupable window";
    case DiagCode::kW204InvertedWindowBounds: return "inverted window bounds";
    case DiagCode::kW205ConstantPredicate: return "constant predicate";
    case DiagCode::kW206CrossPositionContradiction:
      return "cross-position contradiction";
    case DiagCode::kW207SubsumedGuard: return "subsumed guard";
    case DiagCode::kP301TooManyContexts: return "too many contexts";
    case DiagCode::kP302TrailingNegation: return "trailing negation";
    case DiagCode::kP303MultiNegatedPredicate:
      return "predicate spans negated variables";
    case DiagCode::kP305DerivingConsumesProcessing:
      return "context deriving query consumes a processing query's output";
    case DiagCode::kP306CyclicTypeDependency: return "cyclic type dependency";
    case DiagCode::kI402LateBeyondSlack: return "late beyond slack";
    case DiagCode::kI403UnknownType: return "unknown type id";
    case DiagCode::kI404NegativeTime: return "negative time";
    case DiagCode::kI405InvertedInterval: return "inverted interval";
    case DiagCode::kI406MalformedCsv: return "malformed CSV";
    case DiagCode::kI410TornWalTail: return "torn WAL tail truncated";
    case DiagCode::kI411CheckpointCrcMismatch:
      return "checkpoint CRC mismatch, skipped";
    case DiagCode::kI412WalRecordCrcMismatch:
      return "WAL record CRC mismatch, replay stopped";
    case DiagCode::kI413StaleWalRecord:
      return "stale WAL record skipped";
    case DiagCode::kI420Backpressure:
      return "ingest rejected: pending buffer full";
    case DiagCode::kI421UnknownTenant: return "unknown tenant";
    case DiagCode::kI422DuplicateTenant: return "tenant already registered";
    case DiagCode::kI423BadFrame: return "malformed frame or request";
    case DiagCode::kI424AdmissionRejected:
      return "model rejected by the admission gate";
  }
  return "?";
}

DiagSeverity DiagCodeDefaultSeverity(DiagCode code) {
  switch (code) {
    // Warnings: the model still runs; its semantics are just suspicious
    // (a query that can never fire, an optimization that silently
    // degrades, a provably redundant edge).
    case DiagCode::kC003ShadowedSwitchEdge:
    case DiagCode::kC004DeadQuery:
    case DiagCode::kC006ProvablyEmptyContext:
    case DiagCode::kW201ContradictoryPredicate:
    case DiagCode::kW202UnsatisfiableSeq:
    case DiagCode::kW204InvertedWindowBounds:
    case DiagCode::kW205ConstantPredicate:
    case DiagCode::kW206CrossPositionContradiction:
    case DiagCode::kW207SubsumedGuard:
    // Recovery degradation: the engine resumes (that is the point of the
    // WAL's commit boundary), but durability was imperfect — report it.
    case DiagCode::kI410TornWalTail:
    case DiagCode::kI411CheckpointCrcMismatch:
    case DiagCode::kI412WalRecordCrcMismatch:
    case DiagCode::kI413StaleWalRecord:
      return DiagSeverity::kWarning;
    // Notes: purely informational (why an optimization does not apply).
    case DiagCode::kW203UngroupableWindow:
      return DiagSeverity::kNote;
    default:
      return DiagSeverity::kError;
  }
}

Diagnostic MakeDiag(DiagCode code, std::string message, SourceLoc loc,
                    std::string query, std::string context) {
  Diagnostic diag;
  diag.code = code;
  diag.severity = DiagCodeDefaultSeverity(code);
  diag.loc = loc;
  diag.message = std::move(message);
  diag.query = std::move(query);
  diag.context = std::move(context);
  return diag;
}

std::string FormatDiagnostic(const Diagnostic& diag) {
  std::string out;
  if (!diag.source.empty()) {
    out += diag.source;
    out += ':';
    if (diag.loc.valid()) {
      out += diag.loc.ToString();
      out += ':';
    }
    out += ' ';
  } else if (diag.loc.valid()) {
    out += diag.loc.ToString() + ": ";
  }
  out += DiagSeverityName(diag.severity);
  out += '[';
  out += DiagCodeName(diag.code);
  out += "]: ";
  out += diag.message;
  return out;
}

bool HasErrors(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& diag : diags) {
    if (diag.severity == DiagSeverity::kError) return true;
  }
  return false;
}

bool HasErrorsOrWarnings(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& diag : diags) {
    if (diag.severity != DiagSeverity::kNote) return true;
  }
  return false;
}

void SortDiagnostics(std::vector<Diagnostic>* diags) {
  std::stable_sort(diags->begin(), diags->end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::tie(a.source, a.loc.line, a.loc.col, a.code,
                                     a.message, a.query) <
                            std::tie(b.source, b.loc.line, b.loc.col, b.code,
                                     b.message, b.query);
                   });
}

namespace {

void AppendDiagJson(std::ostringstream& os, const Diagnostic& diag) {
  os << "{\"code\":\"" << DiagCodeName(diag.code) << "\",\"severity\":\""
     << DiagSeverityName(diag.severity)
     << "\",\"source\":" << JsonQuote(diag.source)
     << ",\"line\":" << diag.loc.line << ",\"col\":" << diag.loc.col
     << ",\"message\":" << JsonQuote(diag.message);
  if (!diag.query.empty()) os << ",\"query\":" << JsonQuote(diag.query);
  if (!diag.context.empty()) {
    os << ",\"context\":" << JsonQuote(diag.context);
  }
  os << "}";
}

// SARIF severity levels: error/warning/note map 1:1.
const char* SarifLevel(DiagSeverity severity) {
  return DiagSeverityName(severity);
}

}  // namespace

std::string DiagnosticsToJson(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  os << "{\"tool\":\"caesar_lint\",\"version\":1,\"diagnostics\":[";
  for (size_t i = 0; i < diags.size(); ++i) {
    if (i > 0) os << ",";
    AppendDiagJson(os, diags[i]);
  }
  os << "],\"errors\":" << (HasErrors(diags) ? "true" : "false") << "}\n";
  return os.str();
}

std::string DiagnosticsToSarif(const std::vector<Diagnostic>& diags) {
  // Rule catalog: one entry per distinct code, code-sorted for determinism.
  std::set<std::string> rule_ids;
  std::vector<DiagCode> rules;
  for (const Diagnostic& diag : diags) {
    if (rule_ids.insert(DiagCodeName(diag.code)).second) {
      rules.push_back(diag.code);
    }
  }
  std::sort(rules.begin(), rules.end());

  std::ostringstream os;
  os << "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
        "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":"
        "{\"name\":\"caesar_lint\",\"informationUri\":"
        "\"https://example.invalid/caesar\",\"rules\":[";
  for (size_t i = 0; i < rules.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"id\":\"" << DiagCodeName(rules[i])
       << "\",\"shortDescription\":{\"text\":"
       << JsonQuote(DiagCodeTitle(rules[i])) << "}}";
  }
  os << "]}},\"results\":[";
  for (size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& diag = diags[i];
    if (i > 0) os << ",";
    os << "{\"ruleId\":\"" << DiagCodeName(diag.code) << "\",\"level\":\""
       << SarifLevel(diag.severity) << "\",\"message\":{\"text\":"
       << JsonQuote(diag.message) << "}";
    if (!diag.source.empty()) {
      os << ",\"locations\":[{\"physicalLocation\":{\"artifactLocation\":"
            "{\"uri\":"
         << JsonQuote(diag.source) << "}";
      if (diag.loc.valid()) {
        os << ",\"region\":{\"startLine\":" << diag.loc.line
           << ",\"startColumn\":" << diag.loc.col << "}";
      }
      os << "}}]";
    }
    os << "}";
  }
  os << "]}]}\n";
  return os.str();
}

}  // namespace caesar
