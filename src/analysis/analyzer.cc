#include "analysis/analyzer.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/absint.h"
#include "event/schema.h"
#include "expr/compiled.h"
#include "optimizer/overlap_analysis.h"
#include "plan/typing.h"

namespace caesar {

namespace {

// The facts of `pred`'s threshold constraints alone: W201's domain. Its
// variable-variable edges are left out, so a contradiction that needs one
// stays W206's cross-position finding.
IntervalFacts ThresholdFacts(AbsPredicate pred) {
  std::erase_if(pred.constraints, [](const AbsConstraint& constraint) {
    return constraint.kind != AbsConstraint::Kind::kThreshold;
  });
  IntervalFacts facts;
  facts.Apply(pred);
  return facts;
}

class Analyzer {
 public:
  Analyzer(const CaesarModel& model, const ModelTyping& typing,
           const AnalyzerOptions& options)
      : model_(model), typing_(typing), options_(options) {}

  std::vector<Diagnostic> Run() {
    diags_ = model_.StructuralDiagnostics();
    Append(AnalyzeContextGraph(model_));
    Append(typing_.diagnostics);
    for (int qi : typing_.resolution_order) {
      CheckTypedQuery(qi, typing_.queries[qi]);
    }
    CheckShadowedSwitches();
    CheckWindows();
    for (Diagnostic& diag : diags_) {
      if (diag.source.empty()) diag.source = options_.source_name;
    }
    if (!options_.include_notes) {
      diags_.erase(std::remove_if(diags_.begin(), diags_.end(),
                                  [](const Diagnostic& d) {
                                    return d.severity == DiagSeverity::kNote;
                                  }),
                   diags_.end());
    }
    SortDiagnostics(&diags_);
    return std::move(diags_);
  }

 private:
  void Append(const std::vector<Diagnostic>& found) {
    diags_.insert(diags_.end(), found.begin(), found.end());
  }

  void Emit(DiagCode code, std::string message, SourceLoc loc = {},
            std::string query = {}, std::string context = {}) {
    diags_.push_back(MakeDiag(code, std::move(message), loc, std::move(query),
                              std::move(context)));
  }

  // ----- Satisfiability of the typed clauses. -----

  void CheckTypedQuery(int qi, const TypedQuery& typed) {
    const Query& query = model_.query(qi);
    const PatternSpec& pattern = *query.pattern;
    const BindingSet& scope = pattern.kind == PatternSpec::Kind::kAggregate
                                  ? typed.post_bindings
                                  : typed.bindings;
    const bool contradictory =
        typed.where != nullptr &&
        CheckPredicate(*typed.where, pattern, scope, query.where_loc, "WHERE",
                       typed.label);
    if (typed.having != nullptr) {
      CheckPredicate(*typed.having, pattern, typed.post_bindings,
                     query.pattern_loc, "HAVING", typed.label);
    }

    // W202: SEQ positions carry strictly increasing timestamps, so a match
    // of n positive positions spans at least n-1 time units.
    if (pattern.kind == PatternSpec::Kind::kSeq && pattern.within > 0) {
      const int positive = static_cast<int>(
          std::count_if(pattern.items.begin(), pattern.items.end(),
                        [](const PatternItem& item) { return !item.negated; }));
      if (positive >= 2 && pattern.within < positive - 1) {
        Emit(DiagCode::kW202UnsatisfiableSeq,
             "query '" + typed.label + "': SEQ of " +
                 std::to_string(positive) +
                 " positive positions spans at least " +
                 std::to_string(positive - 1) +
                 " time units (timestamps strictly increase) but WITHIN is " +
                 std::to_string(pattern.within),
             query.pattern_loc, typed.label);
      }
    }

    CheckGuards(qi, typed, contradictory);
  }

  // E104 (string-typed), W205 (constant folding) and W201 (interval
  // contradiction) on one typed clause, compiled against `scope`. True when
  // W201 fired.
  bool CheckPredicate(const CompiledExpr& compiled, const PatternSpec& pattern,
                      const BindingSet& scope, SourceLoc loc,
                      const std::string& clause, const std::string& label) {
    if (compiled.result_type() == ValueType::kString) {
      Emit(DiagCode::kE104NonBooleanPredicate,
           "query '" + label + "': " + clause +
               " predicate has type string; expected a boolean condition",
           loc, label);
      return false;
    }
    if (compiled.referenced_vars().empty()) {
      bool value = compiled.EvalBool(nullptr);
      Emit(DiagCode::kW205ConstantPredicate,
           "query '" + label + "': " + clause + " predicate is constantly " +
               (value ? "true" : "false (the clause can never be satisfied)"),
           loc, label);
      return false;
    }
    // A kFalse verdict needs no exact abstraction: one empty conjunction
    // of thresholds falsifies the clause whatever else it says.
    const IntervalFacts facts = ThresholdFacts(AbstractPredicate(compiled));
    if (!facts.contradiction()) return false;
    const auto [var, attr] = facts.EmptyKey();
    Emit(DiagCode::kW201ContradictoryPredicate,
         "query '" + label + "': " + clause + " predicate is contradictory: " +
             FactName(pattern, scope, var, attr) +
             " is constrained to the empty set " +
             facts.Get(var, attr).ToString(),
         loc, label);
    return true;
  }

  // "var.attr" rendering for interval-fact messages over `scope` ("#<i>"
  // names an anonymous item; an aggregate's rows carry its input's name).
  static std::string FactName(const PatternSpec& pattern,
                              const BindingSet& scope, int var, int attr) {
    std::string name = pattern.items[var].variable;
    if (name.empty()) name = std::string("#").append(std::to_string(var));
    return name + "." + scope.var(var).schema->attribute(attr).name;
  }

  // ----- Guards across positions: absint (W206 / W207). -----
  //
  // The interval analysis runs over the typed WHERE conjuncts the matcher
  // holds as guards (analysis/absint.h): a guard provably true under the
  // facts accumulated before it is subsumed (W207); one provably false — or
  // facts that become jointly empty — means no match can ever complete
  // (W206).
  void CheckGuards(int qi, const TypedQuery& typed, bool contradictory) {
    if (typed.conjuncts.empty()) return;
    const Query& query = model_.query(qi);
    const PatternSpec& pattern = *query.pattern;
    const std::string& label = typed.label;

    std::vector<AbsPosition> positions(pattern.items.size());
    std::vector<std::vector<ExprPtr>> sources(pattern.items.size());
    for (size_t i = 0; i < pattern.items.size(); ++i) {
      positions[i].negated = pattern.items[i].negated;
    }
    for (const TypedConjunct& conjunct : typed.conjuncts) {
      // Negation conditions are not guards a run must pass, and a
      // constant conjunct is W205 territory.
      if (conjunct.placement.kind != ConjunctPlacement::Kind::kGuard) continue;
      positions[conjunct.placement.position].guards.push_back(
          AbstractPredicate(*conjunct.compiled));
      sources[conjunct.placement.position].push_back(conjunct.compiled->source());
    }

    PatternAbsintResult result = AnalyzePositions(positions);

    for (size_t k = 0; k < positions.size(); ++k) {
      for (size_t g = 0; g < positions[k].guards.size(); ++g) {
        if (result.guards[k][g].verdict != AbsVerdict::kTrue) continue;
        Emit(DiagCode::kW207SubsumedGuard,
             "query '" + label + "': WHERE conjunct '" +
                 sources[k][g]->ToString() +
                 "' is subsumed: the constraints accumulated before it "
                 "already imply it",
             query.where_loc, label);
      }
    }

    if (!result.dead()) return;
    if (pattern.kind != PatternSpec::Kind::kSeq || pattern.items.size() < 2) {
      return;
    }
    // W201 already explains this WHERE's empty threshold facts; W206 adds
    // the cross-position cases they cannot see.
    if (contradictory) return;
    std::ostringstream message;
    message << "query '" << label << "': SEQ can never complete: ";
    if (result.dead_guard >= 0) {
      message << "WHERE conjunct '"
              << sources[result.dead_position][result.dead_guard]->ToString()
              << "' can never hold under the constraints accumulated from "
                 "earlier positions";
    } else {
      // The facts after the dead position are contradictory.
      const IntervalFacts& after = result.states[result.dead_position + 1];
      const auto [var, attr] = after.EmptyKey();
      message << "the constraints accumulated at position "
              << result.dead_position << " leave "
              << FactName(pattern, typed.bindings, var, attr)
              << " constrained to the empty set "
              << after.Get(var, attr).ToString();
    }
    Emit(DiagCode::kW206CrossPositionContradiction, message.str(),
         query.where_loc, label);
  }

  // ----- Implication between single-event queries (C003 / C006). -----

  // True when queries `premise` and `conclusion` each match one positive
  // event of the same type and the premise's facts make the conclusion's
  // WHERE kTrue: every event the premise accepts satisfies the conclusion.
  // Each WHERE binds its event at index 0, so the facts compare whatever
  // the queries name the event; a missing WHERE is the always-true
  // predicate. A contradictory premise proves nothing (W201 explains it),
  // and a conclusion kTrue on facts that are not empty is satisfiable.
  bool SameEventImplies(int premise, int conclusion) const {
    auto single_event = [&](int qi) -> const PatternItem* {
      if (!typing_.queries[qi].typed) return nullptr;
      const PatternSpec& pattern = *model_.query(qi).pattern;
      if (pattern.kind == PatternSpec::Kind::kAggregate ||
          pattern.items.size() != 1 || pattern.items[0].negated) {
        return nullptr;
      }
      return &pattern.items[0];
    };
    auto abstract = [&](int qi) {
      const SharedExpr& where = typing_.queries[qi].where;
      return where == nullptr ? AbsPredicate{{}, /*exact=*/true}
                              : AbstractPredicate(*where);
    };
    const PatternItem* a = single_event(premise);
    const PatternItem* b = single_event(conclusion);
    if (a == nullptr || b == nullptr || a->event_type != b->event_type) {
      return false;
    }
    IntervalFacts facts;
    facts.Apply(abstract(premise));
    return !facts.contradiction() &&
           facts.Check(abstract(conclusion)) == AbsVerdict::kTrue;
  }

  // C003: a later SWITCH never changes the outcome when an earlier SWITCH
  // to the same target, gated wherever the later one is, fires on every
  // event the later one fires on.
  void CheckShadowedSwitches() {
    for (int qj = 0; qj < model_.num_queries(); ++qj) {
      const Query& later = model_.query(qj);
      if (later.action != ContextAction::kSwitch) continue;
      for (int qi = 0; qi < qj; ++qi) {
        const Query& earlier = model_.query(qi);
        if (earlier.action != ContextAction::kSwitch ||
            earlier.target_context != later.target_context) {
          continue;
        }
        if (!std::all_of(later.contexts.begin(), later.contexts.end(),
                         [&](const std::string& gate) {
                           return std::find(earlier.contexts.begin(),
                                            earlier.contexts.end(),
                                            gate) != earlier.contexts.end();
                         })) {
          continue;
        }
        if (!SameEventImplies(qj, qi)) continue;
        const std::string later_label = QueryLabel(later, qj);
        Emit(DiagCode::kC003ShadowedSwitchEdge,
             "query '" + later_label + "': SWITCH CONTEXT " +
                 later.target_context + " is shadowed by query '" +
                 QueryLabel(earlier, qi) +
                 "', which switches there on a weaker predicate over the "
                 "same pattern",
             later.loc, later_label, later.target_context);
        break;
      }
    }
  }

  // ----- Optimizer preconditions (W203 note / W204 warning). -----

  void CheckWindows() {
    std::set<std::string> groupable;
    for (const WindowBounds& bounds : ExtractWindowBounds(model_)) {
      groupable.insert(bounds.context);
    }
    for (const ContextType& context : model_.contexts()) {
      if (context.name == model_.default_context()) continue;
      const WindowShape shape = ShapeOfWindows(model_, context.name);
      const auto& [initiators, terminators, start, end] = shape;
      if (initiators.empty()) continue;  // C001 territory
      std::string prefix = "context '" + context.name + "' ";
      // C006 runs before the groupable skip: a context whose terminator
      // accepts every initiating event is empty whether or not its bounds
      // are orderable. It yields to W204 on the Rising shape, which
      // explains the empty window more precisely.
      if (initiators.size() == 1 && terminators.size() == 1 &&
          !shape.Rising() &&
          SameEventImplies(initiators[0], terminators[0])) {
        Emit(DiagCode::kC006ProvablyEmptyContext,
             prefix + "is provably empty: every event satisfying the "
                      "initiating predicate of query '" +
                 QueryLabel(model_.query(initiators[0]), initiators[0]) +
                 "' also satisfies the terminating predicate of query '" +
                 QueryLabel(model_.query(terminators[0]), terminators[0]) +
                 "', so each window closes the moment it opens",
             context.loc, /*query=*/{}, context.name);
        continue;
      }
      // The rest explains why ExtractWindowBounds skipped the context.
      if (groupable.count(context.name) > 0) continue;
      if (terminators.empty()) {
        Note(prefix +
                 "has no terminating query; its windows never close and "
                 "cannot be grouped",
             context);
        continue;
      }
      if (initiators.size() > 1 || terminators.size() > 1) {
        Note(prefix + "has " + std::to_string(initiators.size()) +
                 " initiating and " + std::to_string(terminators.size()) +
                 " terminating queries; window grouping requires exactly one "
                 "of each",
             context);
        continue;
      }
      if (!start.has_value() || !end.has_value()) {
        const bool init_ok = start.has_value();
        const int bad = init_ok ? terminators[0] : initiators[0];
        Note(prefix + "bounds are not compile-time orderable: the " +
                 (init_ok ? "terminating" : "initiating") +
                 " predicate of query '" + QueryLabel(model_.query(bad), bad) +
                 "' is not a single threshold comparison",
             context);
        continue;
      }
      const std::string start_attr = start->QualifiedName();
      const std::string end_attr = end->QualifiedName();
      if (start_attr != end_attr) {
        Note(prefix + "bounds constrain different attributes (" + start_attr +
                 " vs " + end_attr + ") and are not compile-time orderable",
             context);
        continue;
      }
      // Opposite-direction pairs are hysteresis windows (e.g. open on
      // intensity >= 7, close on intensity <= 3) — valid, just not
      // groupable.
      if (!shape.Rising()) {
        Note(prefix + "bounds are opposite-direction thresholds on " +
                 start_attr + " (a hysteresis window) and are not "
                 "compile-time orderable",
             context);
        continue;
      }
      // A Rising shape is skipped only when its bounds are inverted.
      std::ostringstream message;
      message << prefix << "window bounds are inverted: it opens at "
              << start_attr << " ~ " << start->value << " but closes at "
              << end_attr << " ~ " << end->value
              << " (the terminating threshold must exceed the initiating "
                 "one)";
      Emit(DiagCode::kW204InvertedWindowBounds, message.str(), context.loc,
           /*query=*/{}, context.name);
    }
  }

  void Note(const std::string& message, const ContextType& context) {
    Emit(DiagCode::kW203UngroupableWindow, message, context.loc, /*query=*/{},
         context.name);
  }

  const CaesarModel& model_;
  const ModelTyping& typing_;
  const AnalyzerOptions& options_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::vector<Diagnostic> AnalyzeModel(const CaesarModel& model,
                                     const AnalyzerOptions& options) {
  return AnalyzeModel(model, TypeModel(model), options);
}

std::vector<Diagnostic> AnalyzeModel(const CaesarModel& model,
                                     const ModelTyping& typing,
                                     const AnalyzerOptions& options) {
  return Analyzer(model, typing, options).Run();
}

std::vector<Diagnostic> AnalyzeContextGraph(const CaesarModel& model) {
  std::vector<Diagnostic> diags;
  if (model.num_contexts() == 0) return diags;

  // C002: a SWITCH gated on its own target re-fires forever.
  for (int qi = 0; qi < model.num_queries(); ++qi) {
    const Query& query = model.query(qi);
    if (query.action != ContextAction::kSwitch) continue;
    std::string label = QueryLabel(query, qi);
    for (const std::string& gate : query.contexts) {
      if (gate != query.target_context) continue;
      diags.push_back(MakeDiag(
          DiagCode::kC002SelfLoopSwitch,
          "query '" + label + "': SWITCH CONTEXT " + query.target_context +
              " is gated on its own target context '" + gate +
              "' (self-loop switch edge)",
          query.loc, label, gate));
    }
  }

  // C001: no query ever INITIATEs or SWITCHes to the context.
  for (const ContextType& context : model.contexts()) {
    if (context.name == model.default_context()) continue;
    if (std::none_of(model.queries().begin(), model.queries().end(),
                     [&](const Query& q) { return q.Opens(context.name); })) {
      diags.push_back(MakeDiag(DiagCode::kC001UnreachableContext,
                               "context '" + context.name +
                                   "' is unreachable: no query INITIATEs or "
                                   "SWITCHes to it",
                               context.loc, /*query=*/{}, context.name));
    }
  }

  // Activation fixpoint: the default context is active; a query whose gate
  // set intersects the active set activates the context it opens.
  std::vector<char> active(model.num_contexts(), 0);
  int default_index = model.ContextIndex(model.default_context());
  if (default_index >= 0) active[default_index] = 1;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Query& query : model.queries()) {
      if (!query.Opens(query.target_context)) continue;
      int target = model.ContextIndex(query.target_context);
      if (target < 0 || active[target]) continue;
      for (const std::string& gate : query.contexts) {
        int gi = model.ContextIndex(gate);
        if (gi >= 0 && active[gi]) {
          active[target] = 1;
          changed = true;
          break;
        }
      }
    }
  }

  // C004: every gate of the query is provably never active.
  for (int qi = 0; qi < model.num_queries(); ++qi) {
    const Query& query = model.query(qi);
    if (query.contexts.empty()) continue;
    std::string label = QueryLabel(query, qi);
    bool any_known = false;
    bool any_active = false;
    std::string gates;
    for (const std::string& gate : query.contexts) {
      int gi = model.ContextIndex(gate);
      if (gi < 0) continue;
      any_known = true;
      if (active[gi]) any_active = true;
      if (!gates.empty()) gates += ", ";
      gates += gate;
    }
    if (!any_known || any_active) continue;
    diags.push_back(MakeDiag(
        DiagCode::kC004DeadQuery,
        "query '" + label + "' can never fire: none of its contexts (" +
            gates + ") is ever activated",
        query.loc, label));
  }

  return diags;
}

}  // namespace caesar
