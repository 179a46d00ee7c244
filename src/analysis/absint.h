// Abstract interpretation over pattern predicates (the "caesar-absint"
// pass): an interval domain per (pattern variable, attribute), propagated
// across SEQ positions so facts established when position k binds (e.g.
// `speed > 80`) refine what positions k+1..n can observe.
//
// The domain is the product of per-attribute intervals (expr/analysis.h's
// Interval, with open/closed endpoints) plus the set of variable-variable
// comparison edges seen so far. Joining facts means intersecting intervals;
// edges propagate bounds between attributes (x < y caps x's upper bound at
// y's and lifts y's lower bound to x's) to a fixpoint. Widening is by
// truncation: propagation stops after a fixed round count, leaving the
// remaining intervals wider than necessary — wider is always sound, the
// facts are an over-approximation of every value a live run can hold.
//
// Soundness contract (the analyzer -> compiler facts contract):
//  - `AbstractPredicate` lifts a compiled predicate to a conjunction of
//    constraints each of which the predicate *implies*; `exact` is set when
//    the constraints capture the predicate completely.
//  - Every concrete run reaching state k satisfies `states[k]` — so a guard
//    provably true on the whole fact region is implied by the guards
//    already evaluated (safe to prune), and a guard provably false on it
//    can never pass (the automaton is dead from that transition on).
//  - Verdict kTrue additionally requires the checked predicate's
//    abstraction to be exact; kFalse does not (one false conjunct falsifies
//    the conjunction). An exact predicate without constraints is the
//    always-true one (a missing WHERE): kTrue on any facts.
//
// This is the one interval domain of the analysis. Consumers: the analyzer
// (W201 contradictory clause, C003 shadowed SWITCH edge, C006
// provably-empty context, W206 cross-position contradiction, W207 subsumed
// guard), the pattern compiler (guard pruning and satisfiable-fraction
// selectivities, compile/compiler.h), and `caesar_lint --dump-facts`.

#ifndef CAESAR_ANALYSIS_ABSINT_H_
#define CAESAR_ANALYSIS_ABSINT_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "expr/analysis.h"
#include "expr/compiled.h"

namespace caesar {

class CaesarModel;
struct PlanOptions;

// One atomic constraint lifted from a compiled predicate, normalized to
// `var.attr op rhs` with the attribute reference on the left.
struct AbsConstraint {
  enum class Kind : int8_t { kThreshold, kVarVar };
  Kind kind = Kind::kThreshold;
  int var = 0;   // binding index of the left operand
  int attr = 0;  // attribute index within its schema
  BinaryOp op = BinaryOp::kEq;  // comparison (never kNe)
  double value = 0;             // kThreshold: the numeric threshold
  int rhs_var = 0;              // kVarVar: right operand
  int rhs_attr = 0;
};

// Conjunction of constraints implied by one predicate. `exact` means the
// constraints capture the predicate completely (every conjunct converted).
struct AbsPredicate {
  std::vector<AbsConstraint> constraints;
  bool exact = false;
};

// Lifts a compiled predicate. Conjuncts that are not threshold or
// variable-variable comparisons (kNe, arithmetic, OR trees, string
// constants) are dropped and clear `exact`.
AbsPredicate AbstractPredicate(const CompiledExpr& expr);

enum class AbsVerdict : int8_t { kUnknown, kTrue, kFalse };

const char* AbsVerdictName(AbsVerdict verdict);

// The abstract state: one interval per (var, attr) seen so far (absent
// means unbounded) plus the relational edges being propagated.
class IntervalFacts {
 public:
  // Interval for (var, attr); the unbounded interval when unconstrained.
  Interval Get(int var, int attr) const;

  // Verdict for `constraint` / `pred` against the current facts, *before*
  // applying it. See the soundness contract in the header comment.
  AbsVerdict Check(const AbsConstraint& constraint) const;
  AbsVerdict Check(const AbsPredicate& pred) const;

  // Conjoins `pred` onto the facts: intersects threshold intervals, records
  // variable-variable edges, and propagates bounds to a (truncated)
  // fixpoint.
  void Apply(const AbsPredicate& pred);

  // True when some interval became empty: the state is unreachable.
  bool contradiction() const { return contradiction_; }
  // The first (var, attr) whose interval is empty; {-1, -1} when none.
  std::pair<int, int> EmptyKey() const;

  // Fraction of the incoming fact region that satisfies `pred`'s threshold
  // constraints: product over constrained attributes of
  // width(facts ∩ guard) / width(facts), for attributes whose fact interval
  // has finite nonzero width. nullopt when no attribute qualifies — the
  // caller keeps its static selectivity estimate.
  std::optional<double> SatisfiableFraction(const AbsPredicate& pred) const;

  const std::map<std::pair<int, int>, Interval>& intervals() const {
    return intervals_;
  }

 private:
  void Propagate();

  struct Edge {
    int var, attr;
    BinaryOp op;
    int rhs_var, rhs_attr;
  };

  std::map<std::pair<int, int>, Interval> intervals_;
  std::vector<Edge> edges_;
  bool contradiction_ = false;
};

// One pattern position for the cross-position analysis: the guards that
// must pass for the position to bind, in config order.
struct AbsPosition {
  bool negated = false;
  std::vector<AbsPredicate> guards;
};

// Per-guard result: the verdict against the facts accumulated from earlier
// positions and earlier guards of the same position.
struct AbsGuardInfo {
  AbsVerdict verdict = AbsVerdict::kUnknown;
  std::optional<double> sat_fraction;
};

struct PatternAbsintResult {
  // states[k] holds on entry to position k (facts from positions < k);
  // states[positions.size()] holds at completion. Negated positions do not
  // contribute facts (non-occurrence constrains nothing).
  std::vector<IntervalFacts> states;
  // Parallel to the input positions; inner vectors parallel to guards.
  std::vector<std::vector<AbsGuardInfo>> guards;
  // First position that provably can never be passed, or -1. When >= 0 the
  // pattern can never complete (the automaton is dead). `dead_guard` is the
  // guard proven false, or -1 when the guards are jointly contradictory.
  int dead_position = -1;
  int dead_guard = -1;

  bool dead() const { return dead_position >= 0; }
};

// Runs the cross-position interval analysis: facts accumulate through the
// positive positions in sequence order; each guard is checked against the
// facts before it and then conjoined.
PatternAbsintResult AnalyzePositions(const std::vector<AbsPosition>& positions);

// Translates `model` and renders the per-state interval facts of every
// pattern operator in plan order, one block per operator prefixed by
// "query <name>". Deterministic; backs `caesar_lint --dump-facts`.
Result<std::string> DumpModelFacts(const CaesarModel& model,
                                   const PlanOptions& plan_options);

}  // namespace caesar

#endif  // CAESAR_ANALYSIS_ABSINT_H_
