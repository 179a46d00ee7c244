#include "expr/compiled.h"

#include <algorithm>

#include "common/logging.h"

namespace caesar {

int BindingSet::IndexOfVar(const std::string& name) const {
  for (int i = 0; i < size(); ++i) {
    if (vars_[i].name == name) return i;
  }
  return -1;
}

int BindingSet::ResolveBareAttr(const std::string& attribute) const {
  int found = -1;
  for (int i = 0; i < size(); ++i) {
    if (vars_[i].schema != nullptr && vars_[i].schema->IndexOf(attribute) >= 0) {
      if (found >= 0) return -2;
      found = i;
    }
  }
  return found;
}

Result<std::unique_ptr<CompiledExpr>> Compile(const ExprPtr& expr,
                                              const BindingSet& bindings) {
  if (expr == nullptr) {
    return Status::InvalidArgument("cannot compile null expression");
  }
  auto compiled = std::make_unique<CompiledExpr>();
  compiled->source_ = expr;

  // Recursive compiler appending nodes in postorder.
  struct Compiler {
    const BindingSet& bindings;
    std::vector<CompiledExpr::Node>& nodes;
    std::vector<int>& referenced;

    Result<int> Visit(const Expr& e) {
      switch (e.kind()) {
        case Expr::Kind::kConstant: {
          const auto& c = static_cast<const ConstantExpr&>(e);
          CompiledExpr::Node node;
          node.kind = Expr::Kind::kConstant;
          node.constant = c.value();
          node.type = c.value().type();
          nodes.push_back(std::move(node));
          return static_cast<int>(nodes.size()) - 1;
        }
        case Expr::Kind::kAttrRef: {
          const auto& a = static_cast<const AttrRefExpr&>(e);
          int var_index;
          if (a.variable().empty()) {
            var_index = bindings.ResolveBareAttr(a.attribute());
            if (var_index == -1) {
              return Status::InvalidArgument("unknown attribute: " +
                                             a.attribute());
            }
            if (var_index == -2) {
              return Status::InvalidArgument("ambiguous attribute: " +
                                             a.attribute());
            }
          } else {
            var_index = bindings.IndexOfVar(a.variable());
            if (var_index < 0) {
              return Status::InvalidArgument("unknown pattern variable: " +
                                             a.variable());
            }
          }
          const Schema* schema = bindings.var(var_index).schema;
          if (schema == nullptr) {
            return Status::InvalidArgument("variable has no schema: " +
                                           a.variable());
          }
          int attr_index = schema->IndexOf(a.attribute());
          if (attr_index < 0) {
            return Status::InvalidArgument(
                "unknown attribute '" + a.attribute() + "' of variable '" +
                bindings.var(var_index).name + "'");
          }
          CompiledExpr::Node node;
          node.kind = Expr::Kind::kAttrRef;
          node.var_index = var_index;
          node.attr_index = attr_index;
          node.type = schema->attribute(attr_index).type;
          nodes.push_back(std::move(node));
          if (std::find(referenced.begin(), referenced.end(), var_index) ==
              referenced.end()) {
            referenced.push_back(var_index);
          }
          return static_cast<int>(nodes.size()) - 1;
        }
        case Expr::Kind::kBinary: {
          const auto& b = static_cast<const BinaryExpr&>(e);
          CAESAR_ASSIGN_OR_RETURN(int left, Visit(*b.left()));
          CAESAR_ASSIGN_OR_RETURN(int right, Visit(*b.right()));
          ValueType lt = nodes[left].type;
          ValueType rt = nodes[right].type;
          CompiledExpr::Node node;
          node.kind = Expr::Kind::kBinary;
          node.op = b.op();
          node.left = left;
          node.right = right;
          if (IsArithmetic(b.op())) {
            bool numeric = (lt == ValueType::kInt || lt == ValueType::kDouble) &&
                           (rt == ValueType::kInt || rt == ValueType::kDouble);
            if (!numeric) {
              return Status::InvalidArgument(
                  "arithmetic on non-numeric operands in: " + e.ToString());
            }
            node.type = (lt == ValueType::kDouble || rt == ValueType::kDouble)
                            ? ValueType::kDouble
                            : ValueType::kInt;
          } else if (IsComparison(b.op())) {
            bool both_numeric =
                (lt == ValueType::kInt || lt == ValueType::kDouble) &&
                (rt == ValueType::kInt || rt == ValueType::kDouble);
            bool both_string =
                lt == ValueType::kString && rt == ValueType::kString;
            if (!both_numeric && !both_string) {
              return Status::InvalidArgument(
                  "incomparable operand types in: " + e.ToString());
            }
            node.type = ValueType::kInt;  // boolean
          } else {  // logical
            if (lt != ValueType::kInt || rt != ValueType::kInt) {
              return Status::InvalidArgument(
                  "logical operator on non-boolean operands in: " +
                  e.ToString());
            }
            node.type = ValueType::kInt;
          }
          nodes.push_back(std::move(node));
          return static_cast<int>(nodes.size()) - 1;
        }
      }
      return Status::Internal("unreachable expression kind");
    }
  };

  Compiler compiler{bindings, compiled->nodes_, compiled->referenced_vars_};
  CAESAR_ASSIGN_OR_RETURN(int root, compiler.Visit(*expr));
  CAESAR_CHECK_EQ(root, static_cast<int>(compiled->nodes_.size()) - 1);
  compiled->result_type_ = compiled->nodes_.back().type;
  return compiled;
}

std::vector<std::shared_ptr<const CompiledExpr>> SplitCompiled(
    const std::shared_ptr<const CompiledExpr>& expr) {
  const std::vector<CompiledExpr::Node>& nodes = expr->nodes_;
  auto is_and = [&](int i) {
    return nodes[i].kind == Expr::Kind::kBinary && nodes[i].op == BinaryOp::kAnd;
  };
  const int top = static_cast<int>(nodes.size()) - 1;
  if (!is_and(top)) return {expr};
  std::vector<std::shared_ptr<const CompiledExpr>> conjuncts;
  auto split = [&](auto& self, const ExprPtr& source, int root) -> void {
    if (is_and(root)) {
      const auto& binary = static_cast<const BinaryExpr&>(*source);
      self(self, binary.left(), nodes[root].left);
      self(self, binary.right(), nodes[root].right);
      return;
    }
    // Postorder: the subtree runs from its leftmost leaf to its root.
    int first = root;
    while (nodes[first].kind == Expr::Kind::kBinary) first = nodes[first].left;
    auto conjunct = std::make_shared<CompiledExpr>();
    std::vector<int>& vars = conjunct->referenced_vars_;
    for (int i = first; i <= root; ++i) {
      CompiledExpr::Node node = nodes[i];
      if (node.kind == Expr::Kind::kBinary) {
        node.left -= first;
        node.right -= first;
      } else if (node.kind == Expr::Kind::kAttrRef &&
                 std::find(vars.begin(), vars.end(), node.var_index) ==
                     vars.end()) {
        vars.push_back(node.var_index);
      }
      conjunct->nodes_.push_back(std::move(node));
    }
    conjunct->result_type_ = conjunct->nodes_.back().type;
    conjunct->source_ = source;
    conjuncts.push_back(std::move(conjunct));
  };
  split(split, expr->source_, top);
  return conjuncts;
}

Value CompiledExpr::EvalNode(int index, const EventPtr* events) const {
  const Node& node = nodes_[index];
  switch (node.kind) {
    case Expr::Kind::kConstant:
      return node.constant;
    case Expr::Kind::kAttrRef: {
      const Event* event = events[node.var_index].get();
      CAESAR_CHECK(event != nullptr) << "unbound variable in Eval";
      return event->value(node.attr_index);
    }
    case Expr::Kind::kBinary: {
      if (node.op == BinaryOp::kAnd) {
        Value left = EvalNode(node.left, events);
        if (left.type() != ValueType::kInt || left.AsInt() == 0) {
          return Value(int64_t{0});
        }
        return EvalNode(node.right, events);
      }
      if (node.op == BinaryOp::kOr) {
        Value left = EvalNode(node.left, events);
        if (left.type() == ValueType::kInt && left.AsInt() != 0) {
          return Value(int64_t{1});
        }
        return EvalNode(node.right, events);
      }
      Value left = EvalNode(node.left, events);
      Value right = EvalNode(node.right, events);
      if (left.is_null() || right.is_null()) return Value();
      if (IsArithmetic(node.op)) {
        if (node.type == ValueType::kInt) {
          int64_t a = left.AsInt(), b = right.AsInt();
          switch (node.op) {
            case BinaryOp::kAdd: return Value(a + b);
            case BinaryOp::kSub: return Value(a - b);
            case BinaryOp::kMul: return Value(a * b);
            case BinaryOp::kDiv:
              if (b == 0) return Value();
              return Value(a / b);
            default: break;
          }
        } else {
          double a = left.ToDouble(), b = right.ToDouble();
          switch (node.op) {
            case BinaryOp::kAdd: return Value(a + b);
            case BinaryOp::kSub: return Value(a - b);
            case BinaryOp::kMul: return Value(a * b);
            case BinaryOp::kDiv: return Value(a / b);
            default: break;
          }
        }
        return Value();
      }
      // Comparison.
      bool result;
      switch (node.op) {
        case BinaryOp::kEq: result = left.Equals(right); break;
        case BinaryOp::kNe: result = !left.Equals(right); break;
        case BinaryOp::kLt: result = left.Compare(right) < 0; break;
        case BinaryOp::kLe: result = left.Compare(right) <= 0; break;
        case BinaryOp::kGt: result = left.Compare(right) > 0; break;
        case BinaryOp::kGe: result = left.Compare(right) >= 0; break;
        default:
          CAESAR_LOG_FATAL << "unexpected op";
          result = false;
      }
      return Value(int64_t{result ? 1 : 0});
    }
  }
  return Value();
}

Value CompiledExpr::Eval(const EventPtr* events) const {
  return EvalNode(static_cast<int>(nodes_.size()) - 1, events);
}

bool CompiledExpr::EvalBool(const EventPtr* events) const {
  Value v = Eval(events);
  return v.type() == ValueType::kInt && v.AsInt() != 0;
}

bool CompiledExpr::CanEvaluate(const std::vector<bool>& bound) const {
  for (int var : referenced_vars_) {
    if (var >= static_cast<int>(bound.size()) || !bound[var]) return false;
  }
  return true;
}

}  // namespace caesar
