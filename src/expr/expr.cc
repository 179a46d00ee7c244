#include "expr/expr.h"

#include "common/logging.h"

namespace caesar {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArithmetic(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      return true;
    default:
      return false;
  }
}

BinaryOp MirrorComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    case BinaryOp::kEq:
    case BinaryOp::kNe:
      return op;
    default:
      CAESAR_LOG_FATAL << "MirrorComparison on non-comparison op";
      return op;
  }
}

std::string ConstantExpr::ToString() const { return value_.ToString(); }

std::string AttrRefExpr::ToString() const {
  if (variable_.empty()) return attribute_;
  return variable_ + "." + attribute_;
}

std::string BinaryExpr::ToString() const {
  return std::string("(")
      .append(left_->ToString())
      .append(" ")
      .append(BinaryOpName(op_))
      .append(" ")
      .append(right_->ToString())
      .append(")");
}

ExprPtr MakeConstant(Value value) {
  return std::make_shared<ConstantExpr>(std::move(value));
}
ExprPtr MakeConstant(int64_t value) { return MakeConstant(Value(value)); }
ExprPtr MakeConstant(double value) { return MakeConstant(Value(value)); }
ExprPtr MakeConstant(const char* value) { return MakeConstant(Value(value)); }

ExprPtr MakeAttrRef(std::string variable, std::string attribute) {
  return std::make_shared<AttrRefExpr>(std::move(variable),
                                       std::move(attribute));
}
ExprPtr MakeAttrRef(std::string attribute) {
  return std::make_shared<AttrRefExpr>("", std::move(attribute));
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<BinaryExpr>(op, std::move(left), std::move(right));
}

ExprPtr MakeConjunction(ExprPtr a, ExprPtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  return MakeBinary(BinaryOp::kAnd, std::move(a), std::move(b));
}

}  // namespace caesar
