// Compiled pattern automata (the CEA-style representation of a SEQ query).
//
// A SEQ chain with k positive positions compiles to a linear automaton with
// k + 1 states: state s means "the first s positive components are bound".
// Each state except the last carries one transition — the event type it
// awaits plus the predicate closures gating the advance — and negated
// positions become completion-time NegationWatch checks with their
// surrounding positive slots resolved at compile time, not per match.
//
// Transition predicates are *cost-ordered*: the compiler ranks each closure
// by estimated evaluation cost over estimated rejection power
// (optimizer/cost_model.h) so cheap, selective guards run first and
// short-circuit state creation — lazy evaluation in the sense of Kolchinsky
// & Schuster's CEP join-ordering work. Reordering conjuncts of one position
// is semantics-preserving (they are pure), so the order never changes the
// derived stream.
//
// Equality keys split the join conjuncts off as a hash filter (Bucchi et
// al.'s equality predicates; Kolchinsky & Schuster's SEQ-as-join). A key is
// an evaluated conjunct `x.attr = y.attr` over two different slots: on a
// transition, y is the slot it binds and x a slot bound earlier; on a
// NegationWatch, x is the negated slot and y a positive one. The operator
// tags what waits (a stored run, a buffered negated event) with the
// Value::Hash of its x side, and a probe skips every candidate whose tag
// differs from the hash of its y side. Hash agrees with Equals, so a
// skipped candidate is one whose key conjunct is false; a tag match still
// evaluates the conjunct, so collisions, null (never equal) and int/double
// equality keep their semantics.
//
// The automaton itself is immutable and shared by every partition; runtime
// state (runs, negation buffers) lives in CompiledPatternOp::State
// (compile/compiled_pattern_op.h), one per partition.

#ifndef CAESAR_COMPILE_AUTOMATON_H_
#define CAESAR_COMPILE_AUTOMATON_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/pattern_op.h"
#include "event/schema.h"
#include "expr/compiled.h"

namespace caesar {

// One predicate closure on a transition, with the compiler's estimates.
struct AutomatonPredicate {
  std::shared_ptr<const CompiledExpr> expr;
  int config_index = 0;       // index in the position's predicate list
  double est_cost = 1.0;      // evaluator nodes (cost_model.h)
  double est_selectivity = 0.5;
  // est_selectivity came from the abstract interpreter's satisfiable
  // fraction (analysis/absint.h) instead of the flat shape heuristic.
  bool absint_refined = false;

  // Evaluation rank: cost paid per unit of expected rejection; lower runs
  // first. A selectivity-1.0 guard never rejects, so it ranks last.
  double rank() const;
};

// An equality conjunct `stored.attr = probe.attr` of a transition or watch
// (see the header comment). The stored side is bound on what waits, the
// probe side on what arrives.
struct EqualityKey {
  int stored_slot = -1;  // -1 = no key
  int stored_attr = -1;
  int probe_slot = -1;
  int probe_attr = -1;
  // The conjunct, for the dump; it stays in the evaluated predicate list.
  std::shared_ptr<const CompiledExpr> conjunct;

  bool valid() const { return stored_slot >= 0; }
};

// The transition out of state `index`: bind an event of `type_id` into
// pattern slot `slot` when every predicate passes.
struct AutomatonTransition {
  int slot = 0;  // index into PatternOpConfig::positions
  TypeId type_id = kInvalidTypeId;
  std::vector<AutomatonPredicate> predicates;  // cost-ordered
  // Guards the abstract interpreter proved implied by the guards already
  // evaluated on any run reaching this state (config order). Never
  // evaluated at runtime; kept for the dump.
  std::vector<AutomatonPredicate> pruned;
  // The first evaluated guard (config order) of the form `x.attr =
  // slot.attr`: runs waiting in this state carry the hash of x.attr.
  EqualityKey key;
};

// A negated position, checked when a run completes. The surrounding
// positive slots define the forbidden interval: (prev, next) when an
// earlier positive exists, [next - within, next) for a leading NOT.
struct NegationWatch {
  int neg_index = 0;  // index of this watch (== its buffer index)
  int slot = 0;       // negated position in PatternOpConfig::positions
  TypeId type_id = kInvalidTypeId;
  int prev_positive_slot = -1;  // -1 = leading NOT
  int next_positive_slot = -1;
  // Negation condition, in config order (evaluated with the candidate
  // bound transiently at `slot`).
  std::vector<std::shared_ptr<const CompiledExpr>> predicates;
  // The first condition (config order) of the form `slot.attr = y.attr`
  // with y positive: buffered events carry the hash of slot.attr.
  EqualityKey key;
};

// The compiled form of one PatternOpConfig. Immutable; shared by every
// partition like the config itself.
struct CompiledAutomaton {
  std::shared_ptr<const PatternOpConfig> config;
  // One transition per positive position, in sequence order (never empty).
  std::vector<AutomatonTransition> transitions;
  std::vector<NegationWatch> negations;
  // Type dispatch: for each awaited event type, the non-initial states
  // (1 .. k-1) whose transition awaits it, ascending. State 0 (fresh run)
  // is dispatched separately by the operator. Sorted by type id.
  std::vector<std::pair<TypeId, std::vector<int>>> dispatch;
  // Transition the abstract interpreter proved impassable (-1 = none).
  // When set, the accepting state is unreachable and the operator emits
  // nothing — it short-circuits event processing entirely.
  int dead_transition = -1;

  int num_states() const { return static_cast<int>(transitions.size()) + 1; }

  // States >= 1 awaiting `type_id`, or nullptr when none do.
  const std::vector<int>* StatesAwaiting(TypeId type_id) const;

  // Deterministic text rendering for golden tests and `--dump-automaton`.
  std::string DumpText(const TypeRegistry& registry) const;
};

}  // namespace caesar

#endif  // CAESAR_COMPILE_AUTOMATON_H_
