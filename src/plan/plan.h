// Executable query plans (Section 4.2).
//
// Each query translates to a chain of algebra operators executed bottom-up
// (Table 1). A chain processes a batch by feeding it through the operators
// in order; when the batch becomes empty the remaining operators are skipped
// — with the context window at the bottom of the chain (push-down) this
// skip IS the suspension of irrelevant queries the optimizer is after.
//
// In the context-independent baseline each query additionally carries
// private "guard" chains: copies of the context deriving chains that
// maintain a query-private context vector, re-deriving the context the query
// would otherwise share (Section 5.3: "each context processing query has to
// run its respective context deriving queries separately").
//
// Operators are immutable and held by shared pointer, so copying a plan
// shares its operators; the runtime keeps the per-partition state.

#ifndef CAESAR_PLAN_PLAN_H_
#define CAESAR_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/operator.h"
#include "event/schema.h"

namespace caesar {

// A bottom-up chain of operators.
struct OpChain {
  std::vector<std::shared_ptr<const Operator>> ops;

  std::string DebugString() const;
};

// One executable query.
struct CompiledQuery {
  int query_index = -1;   // index into CaesarModel::queries()
  std::string name;
  bool deriving = false;  // context deriving query?

  // Contexts this query belongs to (OR semantics). Used by the runtime for
  // window-transition bookkeeping (history reset); the cost gating itself is
  // done by the ContextWindow operator inside `chain`.
  std::vector<int> contexts;
  // History anchors parallel to `contexts`: partial matches and complex
  // events of this query may span back to the anchor window's activation
  // time (identity when the query's windows are not grouped).
  std::vector<int> anchors;

  // The event type this query derives, if any.
  TypeId output_type = kInvalidTypeId;

  // Context-independent baseline only: private derivation guards, executed
  // over the raw input before `chain`, writing a query-private context
  // vector.
  std::vector<OpChain> guards;

  OpChain chain;

  std::string DebugString() const;
};

// The full executable plan for a model.
struct ExecutablePlan {
  const TypeRegistry* registry = nullptr;
  int num_contexts = 0;
  int default_context = 0;
  std::vector<std::string> context_names;
  std::vector<std::string> partition_by;

  // Topologically ordered by type dependencies, within each phase.
  std::vector<CompiledQuery> deriving;
  std::vector<CompiledQuery> processing;

  std::string DebugString() const;
};

}  // namespace caesar

#endif  // CAESAR_PLAN_PLAN_H_
