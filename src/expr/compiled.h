// Compilation of expression ASTs against pattern-variable bindings, and the
// runtime evaluator.
//
// A BindingSet lists the pattern variables in scope (one per PATTERN
// position). Compile() resolves every attribute reference to a
// (variable index, attribute index) pair and type-checks the tree; the
// resulting CompiledExpr evaluates against an array of event pointers, one
// per binding (entries may be null for not-yet-bound variables — see
// CanEvaluate).

#ifndef CAESAR_EXPR_COMPILED_H_
#define CAESAR_EXPR_COMPILED_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "event/event.h"
#include "event/schema.h"
#include "expr/expr.h"

namespace caesar {

// One pattern variable in scope for expression compilation.
struct BindingVar {
  std::string name;     // variable name ("p2"); may be empty for anonymous
  TypeId type_id = kInvalidTypeId;
  const Schema* schema = nullptr;  // not owned; outlives the compiled expr
};

// Ordered set of pattern variables.
class BindingSet {
 public:
  BindingSet() = default;
  explicit BindingSet(std::vector<BindingVar> vars) : vars_(std::move(vars)) {}

  void Add(BindingVar var) { vars_.push_back(std::move(var)); }

  int size() const { return static_cast<int>(vars_.size()); }
  const BindingVar& var(int i) const { return vars_[i]; }

  // Index of the variable named `name`, or -1.
  int IndexOfVar(const std::string& name) const;

  // Resolves a bare attribute name: the unique variable whose schema has the
  // attribute. Returns -1 if none, -2 if ambiguous.
  int ResolveBareAttr(const std::string& attribute) const;

 private:
  std::vector<BindingVar> vars_;
};

// An expression with all attribute references resolved; evaluation needs no
// name lookups. Immutable and thread-compatible.
class CompiledExpr {
 public:
  // Implementation detail exposed for the compiler; not part of the API.
  // Flattened node; children precede parents (postorder), root is the last.
  struct Node {
    Expr::Kind kind;
    BinaryOp op = BinaryOp::kAdd;  // for kBinary
    int left = -1, right = -1;     // child node indices for kBinary
    int var_index = -1;            // for kAttrRef
    int attr_index = -1;           // for kAttrRef
    Value constant;                // for kConstant
    ValueType type = ValueType::kNull;
  };

  // Evaluates against `events` (size == number of binding variables).
  // Entries referenced by the expression must be non-null.
  Value Eval(const EventPtr* events) const;

  // Boolean evaluation (for predicates): non-zero int / true comparisons.
  // Null operands make comparisons false.
  bool EvalBool(const EventPtr* events) const;

  // True if every variable the expression references has a non-null entry in
  // `bound` (size == number of binding variables). Used by the pattern
  // matcher to push predicates down to partially assembled matches.
  bool CanEvaluate(const std::vector<bool>& bound) const;

  // The inferred result type.
  ValueType result_type() const { return result_type_; }

  // Indices of variables referenced anywhere in this expression.
  const std::vector<int>& referenced_vars() const { return referenced_vars_; }

  // Flattened evaluator nodes (see Node); exposed for the cost model's
  // per-predicate estimates.
  const std::vector<Node>& nodes() const { return nodes_; }

  const ExprPtr& source() const { return source_; }
  std::string ToString() const { return source_ ? source_->ToString() : "?"; }

 private:
  friend Result<std::unique_ptr<CompiledExpr>> Compile(
      const ExprPtr& expr, const BindingSet& bindings);
  friend std::vector<std::shared_ptr<const CompiledExpr>> SplitCompiled(
      const std::shared_ptr<const CompiledExpr>& expr);

  Value EvalNode(int index, const EventPtr* events) const;

  std::vector<Node> nodes_;
  ValueType result_type_ = ValueType::kNull;
  std::vector<int> referenced_vars_;
  ExprPtr source_;
};

// Compiles `expr` against `bindings`; fails with InvalidArgument on unknown
// variables/attributes or type errors.
Result<std::unique_ptr<CompiledExpr>> Compile(const ExprPtr& expr,
                                              const BindingSet& bindings);

// The conjuncts of `expr`, split as SplitConjuncts (expr/analysis.h) splits
// its source, each equal to its own Compile: the nodes are copied out of
// `expr`, so nothing is resolved again. `expr` itself when it is no
// conjunction.
std::vector<std::shared_ptr<const CompiledExpr>> SplitCompiled(
    const std::shared_ptr<const CompiledExpr>& expr);

}  // namespace caesar

#endif  // CAESAR_EXPR_COMPILED_H_
