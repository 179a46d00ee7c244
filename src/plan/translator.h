// Model-to-plan translation (Section 4.2, Table 1, Fig. 5/6).
//
// Phase 1 (implied CONTEXT clauses become mandatory) lives in
// CaesarModel::Normalize. This module implements Phase 2: every query
// becomes a chain of algebra operators, and chains are ordered by their
// produce/consume type dependencies into a combined plan.
//
// A model failing CaesarModel::StructuralDiagnostics (plan limits
// included) is rejected with its first defect before anything is built.
// The typing rules below are the one copy the translator builds from (it
// fails with the first problem) and the analyzer reports from (every one).
//
// Every SEQ pattern is compiled here, once per plan, into the automaton
// that executes it (compile/compiler.h); event matching stays a stateless
// PatternOp.
//
// The optimizer's plan-shape decisions (Section 5) are realized as
// PlanOptions: the non-optimized shape follows Fig. 6(a) — pattern, filter,
// context window, projection — while push_down_context_windows produces
// Fig. 6(b) with the context window at the bottom of each chain, which lets
// the executor suspend the entire chain when the context is inactive.
//
// The context-independent baseline (`context_independent`) strips shared
// context derivation and instead equips every query with private guard
// chains that re-derive its contexts into a query-private context vector —
// the hard-coded-context strategy of state-of-the-art engines the paper
// compares against.

#ifndef CAESAR_PLAN_TRANSLATOR_H_
#define CAESAR_PLAN_TRANSLATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "event/schema.h"
#include "expr/compiled.h"
#include "plan/plan.h"
#include "query/model.h"

namespace caesar {

// Plan-shape options chosen by the optimizer (or forced by benchmarks).
struct PlanOptions {
  // Context window push-down (Section 5.2). Off = Fig. 6(a), on = Fig. 6(b).
  bool push_down_context_windows = true;

  // Push WHERE conjuncts into the sequence matcher as position predicates
  // (classical predicate push-down; conjuncts referencing negated variables
  // are always pushed because they define the negation condition).
  bool push_predicates_into_pattern = true;

  // Forces the context window to a specific position in the chain
  // (0 = bottom). -1 = follow push_down_context_windows. Used by the
  // Theorem-1 cost experiments.
  int force_cw_position = -1;

  // Context-independent baseline (see header comment).
  bool context_independent = false;

  // Default WITHIN bound (ticks) for SEQ patterns that do not specify one.
  Timestamp default_within = 300;

  // Abstract-interpretation pass while compiling SEQ automata
  // (analysis/absint.h): prunes guards proven implied, short-circuits
  // automata proven dead, and refines guard-ordering selectivities from
  // interval facts. On by default; off compiles exactly as a build without
  // the pass (byte-identical automata and output) — the reference switch of
  // the differential harness's /noabsint legs and `caesar_lint --no-absint`.
  bool absint = true;
};

// Translates a normalized model into an executable plan. Registers derived
// and composite event types in the model's TypeRegistry.
Result<ExecutablePlan> TranslateModel(const CaesarModel& model,
                                      const PlanOptions& options);

// ---- Typing rules (shared with the analyzer) ----

// The attribute names of `derive`'s event type (the projection PR_{A,E} of
// Section 4.1): the AS name, else a reference's attribute, else "a<i>"; a
// taken name gets "_<i>" appended until unique, so D(r.x AS v, r.y AS v_2,
// r.z AS v) is D(v, v_2, v_2_2).
std::vector<std::string> DerivedAttributeNames(const DeriveSpec& derive);

// An aggregate pattern typed against its input schema.
struct AggregateTyping {
  std::vector<int> group_by;   // input attribute index per GROUP BY name
  std::vector<int> arguments;  // input attribute per aggregate; -1 = COUNT()
  // Group-by attributes with their input types, then one per aggregate
  // (COUNT int, the others double).
  std::vector<Attribute> output;
  // E105 defects ("query '<label>': ..."), among them an output name
  // defined twice; the fields above are buildable only when empty.
  std::vector<std::string> problems;
};

AggregateTyping TypeAggregate(const PatternSpec& pattern, const Schema& input,
                              const std::string& label);

// Where a WHERE conjunct, compiled against one binding per pattern item,
// is evaluated.
struct ConjunctPlacement {
  enum class Kind : int8_t {
    kNegation,      // condition of the negated item `position`
    kGuard,         // guard at its latest positive item `position`
    kResidual,      // references no pattern variable
    kMultiNegated,  // spans several negated items: no matcher holds it (P303)
  };
  Kind kind = Kind::kResidual;
  int position = -1;
};

ConjunctPlacement PlaceConjunct(const CompiledExpr& conjunct,
                                const PatternSpec& pattern);

}  // namespace caesar

#endif  // CAESAR_PLAN_TRANSLATOR_H_
