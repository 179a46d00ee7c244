// Expression AST for the CAESAR event query language (Fig. 4 of the paper):
//
//   Expr := Constant | Attr | (Expr) (Op) (Expr)
//   Op   := + | - | * | / | = | != | > | >= | < | <= | AND | OR
//
// Attribute references are either qualified ("p2.vid": variable bound by the
// PATTERN clause, then attribute) or bare ("vid": resolved against the single
// pattern variable in scope). The AST is immutable and shared via ExprPtr;
// the evaluator compiles it against concrete schemas before execution.

#ifndef CAESAR_EXPR_EXPR_H_
#define CAESAR_EXPR_EXPR_H_

#include <memory>
#include <string>

#include "event/value.h"

namespace caesar {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

// Binary operators of the query language.
enum class BinaryOp : int8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

const char* BinaryOpName(BinaryOp op);

// True for =, !=, <, <=, >, >=.
bool IsComparison(BinaryOp op);
// True for +, -, *, /.
bool IsArithmetic(BinaryOp op);

// Flips a comparison across the operands: a < b  <=>  b > a.
BinaryOp MirrorComparison(BinaryOp op);

// One node of the expression tree.
class Expr {
 public:
  enum class Kind : int8_t { kConstant, kAttrRef, kBinary };

  virtual ~Expr() = default;
  Kind kind() const { return kind_; }
  virtual std::string ToString() const = 0;

 protected:
  explicit Expr(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

// Literal constant.
class ConstantExpr : public Expr {
 public:
  explicit ConstantExpr(Value value)
      : Expr(Kind::kConstant), value_(std::move(value)) {}

  const Value& value() const { return value_; }
  std::string ToString() const override;

 private:
  Value value_;
};

// Reference to an event attribute, optionally qualified by a pattern
// variable ("p2.vid" => variable "p2", attribute "vid"; bare "vid" has an
// empty variable).
class AttrRefExpr : public Expr {
 public:
  AttrRefExpr(std::string variable, std::string attribute)
      : Expr(Kind::kAttrRef),
        variable_(std::move(variable)),
        attribute_(std::move(attribute)) {}

  const std::string& variable() const { return variable_; }
  const std::string& attribute() const { return attribute_; }
  std::string ToString() const override;

 private:
  std::string variable_;
  std::string attribute_;
};

// Binary operation.
class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : Expr(Kind::kBinary),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  BinaryOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  std::string ToString() const override;

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

// Construction helpers.
ExprPtr MakeConstant(Value value);
ExprPtr MakeConstant(int64_t value);
ExprPtr MakeConstant(double value);
ExprPtr MakeConstant(const char* value);
ExprPtr MakeAttrRef(std::string variable, std::string attribute);
ExprPtr MakeAttrRef(std::string attribute);
ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right);

// AND of two optional conjuncts; returns the other when one is null.
ExprPtr MakeConjunction(ExprPtr a, ExprPtr b);

}  // namespace caesar

#endif  // CAESAR_EXPR_EXPR_H_
