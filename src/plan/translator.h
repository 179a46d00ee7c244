// Model-to-plan translation (Section 4.2, Table 1, Fig. 5/6).
//
// Phase 1 (implied CONTEXT clauses become mandatory) lives in
// CaesarModel::Normalize. This module implements Phase 2: every query
// becomes a chain of algebra operators, and chains are ordered by their
// produce/consume type dependencies into a combined plan.
//
// Translation has three steps. A model failing
// CaesarModel::StructuralDiagnostics (plan limits included) is rejected
// with its first defect; so is a model whose typing (plan/typing.h)
// reports a diagnostic. The plan is then built from the typing, which
// cannot fail: derived and composite event types are registered in the
// model's TypeRegistry in the order their types resolved, and the
// operators reuse the typing's compiled expressions.
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

#include "common/status.h"
#include "event/event.h"
#include "plan/plan.h"
#include "query/model.h"

namespace caesar {

struct ModelTyping;

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
// and composite event types in the model's TypeRegistry. Fails with
// FailedPrecondition carrying the first structural or typing diagnostic,
// rendered.
Result<ExecutablePlan> TranslateModel(const CaesarModel& model,
                                      const PlanOptions& options);

// As above, building from `typing`, which is TypeModel(model) taken before
// this call registers any type (the analyzer may read it first).
Result<ExecutablePlan> TranslateModel(const CaesarModel& model,
                                      const ModelTyping& typing,
                                      const PlanOptions& options);

}  // namespace caesar

#endif  // CAESAR_PLAN_TRANSLATOR_H_
