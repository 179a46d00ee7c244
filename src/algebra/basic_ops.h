// Filter and projection operators (Section 4.1):
//
//   FL_theta(I) = { e | e in I, e satisfies theta }
//   PR_{A,E}(I) = { e' | e'.type = E, e in I, e'.a = f_a(e) for a in A }
//
// Both operate on a single bound variable (either a raw input event or a
// composite pattern-match event; see pattern_op.h for the composite layout).

#ifndef CAESAR_ALGEBRA_BASIC_OPS_H_
#define CAESAR_ALGEBRA_BASIC_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/operator.h"
#include "expr/compiled.h"

namespace caesar {

// Filter: passes events satisfying the predicate. The predicate is compiled
// against a single binding (the operator's input event).
class FilterOp : public Operator {
 public:
  // `predicate` must have been compiled against a one-variable BindingSet.
  // `selectivity` is the cost-model estimate (fraction of events passing).
  FilterOp(std::shared_ptr<const CompiledExpr> predicate,
           double selectivity = 0.5);

  void Process(const EventBatch& input, EventBatch* output,
               OpExecContext* ctx, OperatorState* state) const override;
  std::string DebugString() const override;
  double Selectivity() const override { return selectivity_; }

  const CompiledExpr& predicate() const { return *predicate_; }

 private:
  std::shared_ptr<const CompiledExpr> predicate_;
  double selectivity_;
};

// Projection: restricts/derives attributes and re-types the event
// (implements the DERIVE clause). Each argument expression is evaluated
// against the input event; the result event keeps the input's occurrence
// interval.
class ProjectionOp : public Operator {
 public:
  ProjectionOp(TypeId output_type,
               std::vector<std::shared_ptr<const CompiledExpr>> args,
               std::string description = "");

  void Process(const EventBatch& input, EventBatch* output,
               OpExecContext* ctx, OperatorState* state) const override;
  std::string DebugString() const override;

  TypeId output_type() const { return output_type_; }
  const std::vector<std::shared_ptr<const CompiledExpr>>& args() const {
    return args_;
  }

 private:
  TypeId output_type_;
  std::vector<std::shared_ptr<const CompiledExpr>> args_;
  std::string description_;
};

}  // namespace caesar

#endif  // CAESAR_ALGEBRA_BASIC_OPS_H_
