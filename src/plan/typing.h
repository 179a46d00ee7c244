// The typing pass of model-to-plan translation (Section 4.2, Table 1): the
// one place a CAESAR model's queries become typed.
//
// TypeModel resolves every pattern item's event type (a registered type,
// or one a DERIVE clause produces) to a fixpoint, sweeping the queries in
// model order, so queries may consume each other's outputs in any order.
// It types each resolved query (bindings, the composite, aggregate and
// DERIVE schemas, the compiled WHERE, HAVING and DERIVE arguments) and
// reports defects as coded errors: E101-E103, E105, E106, P303, P305
// (a context deriving query consuming a processing query's output) and
// P306 (a type dependency cycle within a phase).
//
// The translator builds a plan from a typing without diagnostics, and
// that build cannot fail; the analyzer reports the diagnostics and checks
// the typed clauses. TypeModel reads the model's TypeRegistry and never
// writes it: the schemas of types not registered yet live in the result.

#ifndef CAESAR_PLAN_TYPING_H_
#define CAESAR_PLAN_TYPING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "event/schema.h"
#include "expr/compiled.h"
#include "query/model.h"

namespace caesar {

// Where a WHERE conjunct, compiled against one binding per pattern item,
// is evaluated.
struct ConjunctPlacement {
  enum class Kind : int8_t {
    kNegation,      // condition of the negated item `position`
    kGuard,         // guard at its latest positive item `position`
    kResidual,      // references no pattern variable
    kMultiNegated,  // spans several negated items: no matcher holds it (P303)
  };
  Kind kind = Kind::kResidual;
  int position = -1;
};

using SharedExpr = std::shared_ptr<const CompiledExpr>;

// A WHERE conjunct compiled against the item bindings, and its placement.
struct TypedConjunct {
  SharedExpr compiled;
  ConjunctPlacement placement;
};

// One query as the typing pass left it. Its schemas are the registry's or
// live in the ModelTyping that holds it.
struct TypedQuery {
  std::string label;  // QueryLabel
  bool typed = false;  // resolved without a defect: every field set

  BindingSet bindings;  // one per item, negated too; "_<i>" if anonymous
  // What the pattern operator emits: a SEQ's composite match
  // ("<var>.<attr>" per positive item; registered as "$match_<label>"), an
  // aggregate's group-by then aggregate attributes ("$agg_<label>").
  const Schema* pattern_schema = nullptr;
  // The pattern's output downstream: an event match's item, else one
  // variable of `pattern_schema`.
  BindingSet post_bindings;
  // An aggregate's input attribute per GROUP BY name, and per aggregate
  // (-1 for COUNT()).
  std::vector<int> group_by;
  std::vector<int> aggregate_inputs;

  // The whole WHERE, against `bindings` (against `post_bindings` for an
  // aggregate); null when absent or not typing. An event match's or SEQ's
  // conjuncts are typed when it is.
  SharedExpr where;
  std::vector<TypedConjunct> conjuncts;
  SharedExpr having;  // against `post_bindings`

  // The DERIVE clause as the projection evaluates it (a SEQ's arguments
  // rewritten for the composite match), its arguments compiled against
  // `post_bindings`, and the derived type's schema: the registered one,
  // else its first deriver's.
  DeriveSpec derive;
  std::vector<SharedExpr> derive_args;
  const Schema* derived = nullptr;
};

struct ModelTyping {
  std::vector<TypedQuery> queries;  // parallel to the model's queries
  // The resolved queries (those with bindings; `typed` sets the rest) in
  // the order their types resolved: the order the translator registers
  // derived and composite types in.
  std::vector<int> resolution_order;
  // Each phase's typed queries in produce/consume order: the chain order.
  std::vector<int> deriving;
  std::vector<int> processing;
  // Errors in the order found. Queries StructuralDiagnostics rejects are
  // skipped, not reported again.
  std::vector<Diagnostic> diagnostics;
  // The schemas of the types not registered yet; queries point into them.
  std::vector<std::unique_ptr<const Schema>> schemas;
};

ModelTyping TypeModel(const CaesarModel& model);

// Compiles `expr`, which types against the item bindings of SEQ query
// `typed`, for evaluation against its composite match schema.
SharedExpr CompileForComposite(const ExprPtr& expr, const TypedQuery& typed);

}  // namespace caesar

#endif  // CAESAR_PLAN_TYPING_H_
