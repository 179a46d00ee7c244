// The CAESAR model (Definitions 1-4 of the paper): a finite set of context
// types with a default context, plus context-aware event queries. Each query
// combines clauses from the Fig. 4 grammar:
//
//   - context derivation:  INITIATE / SWITCH / TERMINATE CONTEXT c
//   - complex event derivation:  DERIVE E(args...)
//   - event pattern matching:    PATTERN p
//   - event filtering:           WHERE expr
//   - context window:            CONTEXT c1, c2, ...   (the windows the
//                                 query is associated with)
//
// As an extension beyond the paper's grammar (needed by the Linear Road
// benchmark queries the evaluation uses but does not spell out), patterns
// may also be sliding-window aggregates (kAggregate) with a HAVING filter.
//
// The model's rules live here once, and every other layer reads them:
// CaesarModel::StructuralDiagnostics decides what a well-formed model is,
// plan limits included (Normalize and TranslateModel reject with its first
// error, the analyzer reports them all), and Query::Opens / Query::Closes
// decide which queries bound a context's windows (window-bound extraction,
// the analyzer's window and reachability checks, and the baseline plan's
// guard selection).

#ifndef CAESAR_QUERY_MODEL_H_
#define CAESAR_QUERY_MODEL_H_

#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "common/source_loc.h"
#include "common/status.h"
#include "event/event.h"
#include "event/schema.h"
#include "expr/expr.h"

namespace caesar {

// Maximum number of context types per model: the runtime context vector
// keeps one bit per context in a single word (P301).
inline constexpr int kMaxContexts = 64;

// What a context deriving clause does to its target context.
enum class ContextAction : int8_t { kNone = 0, kInitiate, kSwitch, kTerminate };

const char* ContextActionName(ContextAction action);

// One position of a SEQ pattern (or the sole item of an event-match
// pattern). Grammar: NOT? EventType Var?
struct PatternItem {
  std::string event_type;
  std::string variable;  // may be empty (anonymous)
  bool negated = false;
};

// Aggregate functions available in aggregate patterns.
enum class AggregateFunc : int8_t { kCount, kSum, kAvg, kMin, kMax };

const char* AggregateFuncName(AggregateFunc func);

// One aggregate output column: func(attribute) AS name.
struct AggregateSpec {
  AggregateFunc func;
  std::string attribute;  // input attribute; empty for COUNT(*)
  std::string name;       // output attribute name
};

// PATTERN clause. kEvent: single (possibly trivial) event match.
// kSeq: sequence with optional negated positions (Section 4.1).
// kAggregate: sliding-window grouped aggregate over one input type
// (extension; see header comment).
struct PatternSpec {
  enum class Kind : int8_t { kEvent, kSeq, kAggregate };

  Kind kind = Kind::kEvent;
  std::vector<PatternItem> items;  // >= 1; for kAggregate exactly 1 (input)

  // Maximum span of a SEQ match and retention horizon of its partial state
  // ("event sequence within n time units", cf. [34]); 0 = use the plan
  // default.
  Timestamp within = 0;

  // kAggregate only:
  std::vector<std::string> group_by;    // grouping attributes of the input
  std::vector<AggregateSpec> aggregates;
  Timestamp window_length = 0;          // ticks
  ExprPtr having;                       // over group_by + aggregate names

  std::string ToString() const;
};

// DERIVE clause: output event type plus one expression per attribute.
struct DeriveSpec {
  std::string event_type;
  std::vector<ExprPtr> args;
  // Output attribute names; when empty they are inferred (attribute refs
  // keep their name, other expressions get "a<i>").
  std::vector<std::string> attr_names;

  std::string ToString() const;
};

// A context-aware event query (Definition 3).
struct Query {
  std::string name;

  // Context derivation action (kNone for pure processing queries).
  ContextAction action = ContextAction::kNone;
  std::string target_context;  // for kInitiate / kSwitch / kTerminate

  std::optional<DeriveSpec> derive;
  std::optional<PatternSpec> pattern;
  ExprPtr where;  // may be null

  // CONTEXT clause: windows this query is associated with. May be empty in
  // the human-readable model (implied clauses); Phase 1 of translation makes
  // it mandatory (CaesarModel::Normalize).
  std::vector<std::string> contexts;

  // Context-history anchors, parallel to `contexts` (empty = each context
  // anchors itself). Set by the window-grouping transform: when contexts[i]
  // is a grouped window, anchors[i] names the *first* grouped window of the
  // oldest original window covering it, so the runtime can scope partial
  // matches and complex events to that original window (Section 6.2's
  // context history; see runtime/engine.cc).
  std::vector<std::string> context_anchors;

  // Runs in the context-derivation phase even without a context action:
  // helper queries whose derived events feed context deriving queries
  // (e.g. StoppedCar detection feeding accident initiation). Programmatic
  // API only.
  bool derivation_helper = false;

  // Source spans (set by the textual parser; invalid for programmatic
  // models). `loc` anchors the query as a whole; the clause locs anchor
  // diagnostics about the respective clause.
  SourceLoc loc;
  SourceLoc pattern_loc;
  SourceLoc where_loc;

  bool IsContextDeriving() const {
    return action != ContextAction::kNone || derivation_helper;
  }

  // True when this query opens a window of `context`: it INITIATEs or
  // SWITCHes to it.
  bool Opens(const std::string& context) const;
  // True when this query closes a window of `context`: it TERMINATEs it,
  // or SWITCHes elsewhere while gated on it. A SWITCH gated on its own
  // target (a self-loop) opens that context and does not close it.
  bool Closes(const std::string& context) const;

  std::string ToString() const;
};

// The query's name, or "query #<index>" for an unnamed one: how
// diagnostics and errors refer to it.
std::string QueryLabel(const Query& query, int index);

// A context type (Definition 1): name plus its workload, stored as indices
// into CaesarModel::queries().
struct ContextType {
  std::string name;
  std::vector<int> deriving_queries;
  std::vector<int> processing_queries;
  SourceLoc loc;  // declaration site (textual models only)
};

// The CAESAR model (Definition 4): (I, O, C, c_d). Input/output streams are
// implied by the registered event types; C is the context set with default
// c_d. The model references (but does not own) the TypeRegistry holding the
// input event type schemas.
class CaesarModel {
 public:
  explicit CaesarModel(TypeRegistry* registry) : registry_(registry) {}

  TypeRegistry* registry() const { return registry_; }

  // Declares a context type. The first declared context is the default
  // unless SetDefaultContext overrides it.
  Status AddContext(const std::string& name, SourceLoc loc = {});
  Status SetDefaultContext(const std::string& name);
  const std::string& default_context() const { return default_context_; }

  // Adds a query; returns its index.
  Result<int> AddQuery(Query query);

  int num_contexts() const { return static_cast<int>(contexts_.size()); }
  const ContextType& context(int i) const { return contexts_[i]; }
  const std::vector<ContextType>& contexts() const { return contexts_; }
  // Index of the context named `name`, or -1.
  int ContextIndex(const std::string& name) const;

  int num_queries() const { return static_cast<int>(queries_.size()); }
  const Query& query(int i) const { return queries_[i]; }
  const std::vector<Query>& queries() const { return queries_; }
  // In-place query access for model-rewriting tools (the lint-oracle
  // mutations of oracle/generator.h). Invalidates nothing; callers that
  // change CONTEXT clauses should re-run Normalize.
  Query* mutable_query(int i) { return &queries_[i]; }

  // Partitioning: contexts hold per stream partition (per unidirectional
  // road segment in Linear Road). Events are partitioned by the values of
  // these attributes (those present in each event's schema). Empty means a
  // single global partition.
  void SetPartitionBy(std::vector<std::string> attributes) {
    partition_by_ = std::move(attributes);
  }
  const std::vector<std::string>& partition_by() const {
    return partition_by_;
  }

  // Phase 1 of translation (Section 4.2): makes the implied CONTEXT clauses
  // mandatory. Queries without a CONTEXT clause are associated with the
  // default context (unless no context is declared at all). Also populates
  // the workload lists of every context that resolves. Then checks the
  // model's structure (CheckStructure). The normalization happens either
  // way, so analysis tooling may ignore the status and report every defect
  // through the analyzer instead.
  Status Normalize();

  // FailedPrecondition carrying the rendered first error of
  // StructuralDiagnostics, or Ok for a well-formed model.
  Status CheckStructure() const;

  // The model's structural defects, in model order, each a coded error
  // carrying the offending query's label and source location: no contexts
  // or an undeclared default, target, gate or anchor context (C005), more
  // than kMaxContexts contexts (P301), a missing or empty PATTERN (E107),
  // neither DERIVE nor a context action (E108), a SEQ without a positive
  // position (E109) or ending in a negated one (P302), and an aggregate
  // without exactly one positive input or a positive window length (E105).
  // Diagnostics carry no `source`; callers stamp it. Allocates nothing for
  // a well-formed model.
  std::vector<Diagnostic> StructuralDiagnostics() const;

  std::string ToString() const;

 private:
  TypeRegistry* registry_;  // not owned
  std::vector<ContextType> contexts_;
  std::string default_context_;
  std::vector<Query> queries_;
  std::vector<std::string> partition_by_;
};

}  // namespace caesar

#endif  // CAESAR_QUERY_MODEL_H_
