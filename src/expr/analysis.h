// Static predicate analysis.
//
// Compile-time facts about context deriving predicates (Section 3.3 /
// Definition 2 and the grouping algorithm of Listing 1): single-attribute
// threshold constraints, from which optimizer/overlap_analysis.h reads
// window bounds, and the Interval they bound. Subsumption and implication
// between predicates ("CAESAR employs established approaches for predicate
// subsumption") are decided over typed clauses by analysis/absint.h.

#ifndef CAESAR_EXPR_ANALYSIS_H_
#define CAESAR_EXPR_ANALYSIS_H_

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "expr/expr.h"

namespace caesar {

// Splits nested ANDs into a flat list of conjuncts.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr);

// A numeric interval with open/closed endpoints; +-infinity for unbounded.
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  bool lo_open = false;
  double hi = std::numeric_limits<double>::infinity();
  bool hi_open = false;

  bool IsEmpty() const;
  // True if this interval is contained in `other`.
  bool ContainedIn(const Interval& other) const;
  // Intersects in place.
  void IntersectWith(const Interval& other);
  std::string ToString() const;
};

// A single threshold constraint `var.attr op value`.
struct AttrConstraint {
  std::string variable;
  std::string attribute;
  BinaryOp op;  // comparison
  double value;

  Interval ToInterval() const;
  // "variable.attribute".
  std::string QualifiedName() const { return variable + "." + attribute; }
};

// Extracts a threshold constraint from a conjunct of the form
// `attr op const` or `const op attr` (numeric constants only);
// std::nullopt otherwise.
std::optional<AttrConstraint> ExtractConstraint(const ExprPtr& conjunct);

// The threshold constraint of a WHERE clause that is exactly one such
// conjunct — the shape window bounds are read from
// (optimizer/overlap_analysis.h, and the W203/W204 lints that explain why
// a context has none); std::nullopt otherwise, a null clause included.
std::optional<AttrConstraint> SingleThresholdConstraint(const ExprPtr& where);

// `attr == K`, `attr >= K` and `attr > K` first hold where a rising signal
// crosses K; `<=` / `<` hold from the start and order no window bound.
bool IsRisingCrossing(BinaryOp op);

}  // namespace caesar

#endif  // CAESAR_EXPR_ANALYSIS_H_
