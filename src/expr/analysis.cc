#include "expr/analysis.h"

#include <cmath>
#include <sstream>

namespace caesar {

namespace {

void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == Expr::Kind::kBinary) {
    const auto& binary = static_cast<const BinaryExpr&>(*expr);
    if (binary.op() == BinaryOp::kAnd) {
      CollectConjuncts(binary.left(), out);
      CollectConjuncts(binary.right(), out);
      return;
    }
  }
  out->push_back(expr);
}

// Returns the numeric value of a constant expression, if it is one.
std::optional<double> NumericConstant(const ExprPtr& expr) {
  if (expr->kind() != Expr::Kind::kConstant) return std::nullopt;
  const Value& value = static_cast<const ConstantExpr&>(*expr).value();
  if (!value.is_numeric()) return std::nullopt;
  return value.ToDouble();
}

}  // namespace

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(expr, &conjuncts);
  return conjuncts;
}

bool Interval::IsEmpty() const {
  if (lo > hi) return true;
  if (lo == hi && (lo_open || hi_open)) return true;
  return false;
}

bool Interval::ContainedIn(const Interval& other) const {
  if (IsEmpty()) return true;
  bool lo_ok =
      lo > other.lo || (lo == other.lo && (other.lo_open ? lo_open : true));
  bool hi_ok =
      hi < other.hi || (hi == other.hi && (other.hi_open ? hi_open : true));
  return lo_ok && hi_ok;
}

void Interval::IntersectWith(const Interval& other) {
  if (other.lo > lo || (other.lo == lo && other.lo_open)) {
    lo = other.lo;
    lo_open = other.lo_open;
  }
  if (other.hi < hi || (other.hi == hi && other.hi_open)) {
    hi = other.hi;
    hi_open = other.hi_open;
  }
}

std::string Interval::ToString() const {
  std::ostringstream os;
  os << (lo_open ? "(" : "[") << lo << ", " << hi << (hi_open ? ")" : "]");
  return os.str();
}

Interval AttrConstraint::ToInterval() const {
  Interval interval;
  switch (op) {
    case BinaryOp::kEq:
      interval.lo = interval.hi = value;
      break;
    case BinaryOp::kLt:
      interval.hi = value;
      interval.hi_open = true;
      break;
    case BinaryOp::kLe:
      interval.hi = value;
      break;
    case BinaryOp::kGt:
      interval.lo = value;
      interval.lo_open = true;
      break;
    case BinaryOp::kGe:
      interval.lo = value;
      break;
    default:
      break;  // kNe and others map to the unbounded interval.
  }
  return interval;
}

std::optional<AttrConstraint> ExtractConstraint(const ExprPtr& conjunct) {
  if (conjunct == nullptr || conjunct->kind() != Expr::Kind::kBinary) {
    return std::nullopt;
  }
  const auto& binary = static_cast<const BinaryExpr&>(*conjunct);
  if (!IsComparison(binary.op()) || binary.op() == BinaryOp::kNe) {
    return std::nullopt;
  }

  const ExprPtr* attr_side = nullptr;
  const ExprPtr* const_side = nullptr;
  BinaryOp op = binary.op();
  if (binary.left()->kind() == Expr::Kind::kAttrRef) {
    attr_side = &binary.left();
    const_side = &binary.right();
  } else if (binary.right()->kind() == Expr::Kind::kAttrRef) {
    attr_side = &binary.right();
    const_side = &binary.left();
    op = MirrorComparison(op);
  } else {
    return std::nullopt;
  }
  std::optional<double> constant = NumericConstant(*const_side);
  if (!constant.has_value()) return std::nullopt;

  const auto& attr = static_cast<const AttrRefExpr&>(**attr_side);
  AttrConstraint constraint;
  constraint.variable = attr.variable();
  constraint.attribute = attr.attribute();
  constraint.op = op;
  constraint.value = *constant;
  return constraint;
}

std::optional<AttrConstraint> SingleThresholdConstraint(const ExprPtr& where) {
  if (where == nullptr) return std::nullopt;
  std::vector<ExprPtr> conjuncts = SplitConjuncts(where);
  if (conjuncts.size() != 1) return std::nullopt;
  return ExtractConstraint(conjuncts[0]);
}

bool IsRisingCrossing(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

}  // namespace caesar
