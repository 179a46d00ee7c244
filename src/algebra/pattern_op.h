// The pattern operator (Section 4.1): event matching E, sequence
// SEQ(E1, ..., En), and sequence with negation SEQ(S1, NOT E, S2).
//
// Semantics of a pattern configuration (matching the paper's definitions):
//  - SEQ requires strictly increasing occurrence times of its positive
//    components and emits one composite event per qualifying combination
//    (skip-till-any-match: events between components are permitted).
//  - A negated position between two positives rejects a match if any event
//    of the negated type occurs strictly between the surrounding components
//    and satisfies the negation predicates.
//  - A leading negated position uses the look-back interval
//    [first.time - within, first.time) — "temporal constraints must define
//    the time interval within which the negated event may not occur".
//    Trailing negation is rejected at plan-build time.
//
// Every SEQ carries a WITHIN bound (maximum match span, also the retention
// horizon for partial matches and negation buffers); unbounded pattern state
// is never kept. WHERE conjuncts may be pushed into the matcher as
// per-position predicates (an optimizer rewrite); conjuncts referencing a
// negated variable always live there because they define the negation
// condition itself.
//
// Composite output events concatenate the attribute values of all positive
// components; the plan builder registers the composite schema with
// attributes named "<var>.<attr>".
//
// Two operators execute a configuration. PatternOp below is event matching
// E(): a stateless type check plus pushed predicates that forwards matching
// events as-is. Every SEQ compiles to an automaton executed by
// CompiledPatternOp (compile/compiled_pattern_op.h).

#ifndef CAESAR_ALGEBRA_PATTERN_OP_H_
#define CAESAR_ALGEBRA_PATTERN_OP_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/operator.h"
#include "expr/compiled.h"

namespace caesar {

// Immutable configuration, shared by every partition that runs the query.
struct PatternOpConfig {
  struct Position {
    TypeId type_id = kInvalidTypeId;
    bool negated = false;
    // For positive positions: predicates checked when this position binds
    // (each must be evaluable from positions bound so far).
    // For negated positions: the negation condition, checked at match
    // completion with the candidate negated event bound.
    std::vector<std::shared_ptr<const CompiledExpr>> predicates;
  };

  std::vector<Position> positions;
  // Composite output type (== the input type for event matching).
  TypeId output_type = kInvalidTypeId;
  // Maximum span of a match; also state retention horizon. Must be > 0 for
  // multi-position patterns.
  Timestamp within = 0;
  std::string description;
};

// Event matching E(): one positive position, no state.
class PatternOp : public Operator {
 public:
  explicit PatternOp(std::shared_ptr<const PatternOpConfig> config);

  void Process(const EventBatch& input, EventBatch* output,
               OpExecContext* ctx, OperatorState* state) const override;
  std::string DebugString() const override;

  const PatternOpConfig& config() const { return *config_; }

 private:
  std::shared_ptr<const PatternOpConfig> config_;
};

}  // namespace caesar

#endif  // CAESAR_ALGEBRA_PATTERN_OP_H_
