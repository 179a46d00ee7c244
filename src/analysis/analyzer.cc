#include "analysis/analyzer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/absint.h"
#include "event/schema.h"
#include "expr/analysis.h"
#include "expr/compiled.h"
#include "optimizer/overlap_analysis.h"
#include "plan/translator.h"

namespace caesar {

namespace {

// Compile() reports both name-resolution and operand-type failures as
// InvalidArgument; the wording tells them apart (see expr/compiled.cc).
DiagCode ClassifyCompileError(const std::string& message) {
  if (message.find("attribute") != std::string::npos ||
      message.find("variable") != std::string::npos) {
    return DiagCode::kE102UnknownAttribute;
  }
  return DiagCode::kE103TypeMismatch;
}

// Thresholds that mark a single upward crossing of a monotone-rising
// signal: `attr == K` (one-shot bound) and `attr >= K` / `attr > K` both
// first hold at attr = K. `<=` / `<` thresholds hold from the start
// instead (the closing half of a hysteresis window) and carry no crossing
// order.
bool IsRisingCrossing(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

// C006: every event that can initiate the context also terminates it, so
// each window closes the moment it opens. Both queries must match a single
// positive event of the same type; the implication compares attribute-keyed
// interval summaries (each query binds the event under its own variable
// name, so variable-qualified keys cannot be compared directly) and needs
// both summaries exact. A contradictory initiating predicate is excluded —
// that context never opens at all, which W201 already explains.
bool ProvablyEmptyContext(const Query& init, const Query& term) {
  auto single_positive = [](const Query& q) -> const PatternItem* {
    if (!q.pattern.has_value()) return nullptr;
    if (q.pattern->kind == PatternSpec::Kind::kAggregate) return nullptr;
    if (q.pattern->items.size() != 1 || q.pattern->items[0].negated) {
      return nullptr;
    }
    return &q.pattern->items[0];
  };
  const PatternItem* init_item = single_positive(init);
  const PatternItem* term_item = single_positive(term);
  if (init_item == nullptr || term_item == nullptr) return false;
  if (init_item->event_type != term_item->event_type) return false;

  auto normalize = [](const Query& q, const PatternItem& item,
                      std::map<std::string, Interval>* out) {
    PredicateSummary summary = PredicateSummary::FromExpr(q.where);
    if (!summary.exact()) return false;
    for (const auto& [key, interval] : summary.intervals()) {
      if (!key.first.empty() && key.first != item.variable) return false;
      auto [it, inserted] = out->emplace(key.second, interval);
      if (!inserted) it->second.IntersectWith(interval);
    }
    return true;
  };
  std::map<std::string, Interval> init_map, term_map;
  if (!normalize(init, *init_item, &init_map)) return false;
  if (!normalize(term, *term_item, &term_map)) return false;
  for (const auto& [attr, interval] : init_map) {
    if (interval.IsEmpty()) return false;  // never initiates (W201)
  }
  for (const auto& [attr, term_interval] : term_map) {
    auto it = init_map.find(attr);
    Interval init_interval = it == init_map.end() ? Interval() : it->second;
    if (!init_interval.ContainedIn(term_interval)) return false;
  }
  return true;
}

// Derived-type resolution state of one query.
enum class ResolveState : int8_t { kPending, kResolved, kPoisoned, kSkipped };

struct QueryInfo {
  ResolveState state = ResolveState::kPending;
  BindingSet bindings;          // kEvent/kSeq: one var per pattern item
  Schema agg_schema;            // kAggregate: post-aggregation schema
};

class Analyzer {
 public:
  Analyzer(const CaesarModel& model, const AnalyzerOptions& options)
      : model_(model), options_(options), infos_(model.num_queries()) {}

  std::vector<Diagnostic> Run() {
    CheckStructure();
    for (Diagnostic& diag : AnalyzeContextGraph(model_)) {
      diags_.push_back(std::move(diag));
    }
    ResolveTypesAndCheckExpressions();
    CheckWindows();
    if (options_.check_plan && !HasErrors(diags_)) {
      auto plan = TranslateModel(model_, PlanOptions{});
      if (!plan.ok()) {
        Emit(DiagCode::kP304PlanTranslation,
             "plan translation failed: " + plan.status().message());
      }
    }
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
  void Emit(DiagCode code, std::string message, SourceLoc loc = {},
            std::string query = {}, std::string context = {}) {
    diags_.push_back(MakeDiag(code, std::move(message), loc, std::move(query),
                              std::move(context)));
  }

  // ----- Pass 1: structure (CaesarModel::StructuralDiagnostics). -----

  void CheckStructure() {
    for (Diagnostic& diag : model_.StructuralDiagnostics()) {
      diags_.push_back(std::move(diag));
    }
    for (int qi = 0; qi < model_.num_queries(); ++qi) {
      const Query& query = model_.query(qi);
      // Type checking needs a pattern, and an aggregate needs its one
      // positive input (E107 / E105 above).
      if (!query.pattern.has_value() || query.pattern->items.empty()) {
        infos_[qi].state = ResolveState::kSkipped;
        continue;
      }
      const PatternSpec& pattern = *query.pattern;
      if (pattern.kind == PatternSpec::Kind::kAggregate &&
          (pattern.items.size() != 1 || pattern.items[0].negated)) {
        infos_[qi].state = ResolveState::kSkipped;
      }
    }
  }

  // ----- Pass 2: derived-type fixpoint + expression checks. -----

  const Schema* LookupSchema(const std::string& type_name) const {
    TypeId id = model_.registry()->Lookup(type_name);
    if (id != kInvalidTypeId) return &model_.registry()->type(id).schema;
    auto it = derived_.find(type_name);
    if (it != derived_.end()) return &it->second;
    return nullptr;
  }

  void PoisonOutput(const Query& query) {
    if (!query.derive.has_value()) return;
    const std::string& name = query.derive->event_type;
    if (LookupSchema(name) == nullptr) poisoned_.insert(name);
  }

  void ResolveTypesAndCheckExpressions() {
    // Who derives what (first deriver wins, as in the translator).
    std::map<std::string, std::string> deriver;
    for (int qi = 0; qi < model_.num_queries(); ++qi) {
      const Query& query = model_.query(qi);
      if (!query.derive.has_value()) continue;
      deriver.emplace(query.derive->event_type, QueryLabel(query, qi));
    }
    // Fixpoint: a query resolves once every pattern item type is known
    // (registered or derived by an already-resolved query).
    bool progress = true;
    while (progress) {
      progress = false;
      for (int qi = 0; qi < model_.num_queries(); ++qi) {
        if (infos_[qi].state != ResolveState::kPending) continue;
        const Query& query = model_.query(qi);
        bool available = true;
        bool poisoned = false;
        for (const PatternItem& item : query.pattern->items) {
          if (LookupSchema(item.event_type) != nullptr) continue;
          if (poisoned_.count(item.event_type) > 0) {
            poisoned = true;
            continue;
          }
          available = false;
        }
        if (!available) continue;
        progress = true;
        if (poisoned) {
          // The defect is in the producing query; stay quiet here.
          infos_[qi].state = ResolveState::kPoisoned;
          PoisonOutput(query);
          continue;
        }
        infos_[qi].state = ResolveState::kResolved;
        CheckResolvedQuery(qi);
      }
    }
    // Whatever is still pending references a type nobody defines (or a
    // derivation cycle).
    for (int qi = 0; qi < model_.num_queries(); ++qi) {
      if (infos_[qi].state != ResolveState::kPending) continue;
      const Query& query = model_.query(qi);
      std::string label = QueryLabel(query, qi);
      std::set<std::string> reported;
      for (const PatternItem& item : query.pattern->items) {
        if (LookupSchema(item.event_type) != nullptr) continue;
        if (poisoned_.count(item.event_type) > 0) continue;
        if (!reported.insert(item.event_type).second) continue;
        auto it = deriver.find(item.event_type);
        std::string message =
            "query '" + label + "': unknown event type " + item.event_type;
        if (it != deriver.end()) {
          message += " (derived by query '" + it->second +
                     "', which did not resolve — derivation cycle?)";
        }
        Emit(DiagCode::kE101UnknownEventType, message, query.pattern_loc,
             label);
      }
      PoisonOutput(query);
    }
  }

  // Compiles `expr` and reports E102/E103/E104, W205 (constant folding) and
  // W201 (interval contradiction). Returns the compiled expr when usable.
  std::unique_ptr<CompiledExpr> CheckPredicate(const ExprPtr& expr,
                                               const BindingSet& bindings,
                                               SourceLoc loc,
                                               const std::string& clause,
                                               const std::string& label) {
    auto compiled = Compile(expr, bindings);
    if (!compiled.ok()) {
      Emit(ClassifyCompileError(compiled.status().message()),
           "query '" + label + "': " + clause + ": " +
               compiled.status().message(),
           loc, label);
      return nullptr;
    }
    std::unique_ptr<CompiledExpr> result = std::move(compiled).value();
    if (result->result_type() == ValueType::kString) {
      Emit(DiagCode::kE104NonBooleanPredicate,
           "query '" + label + "': " + clause +
               " predicate has type string; expected a boolean condition",
           loc, label);
      return result;
    }
    if (result->referenced_vars().empty()) {
      bool value = result->EvalBool(nullptr);
      Emit(DiagCode::kW205ConstantPredicate,
           "query '" + label + "': " + clause + " predicate is constantly " +
               (value ? "true" : "false (the clause can never be satisfied)"),
           loc, label);
      return result;
    }
    PredicateSummary summary = PredicateSummary::FromExpr(expr);
    if (summary.exact()) {
      for (const auto& [key, interval] : summary.intervals()) {
        if (!interval.IsEmpty()) continue;
        std::string attr =
            key.first.empty() ? key.second : key.first + "." + key.second;
        Emit(DiagCode::kW201ContradictoryPredicate,
             "query '" + label + "': " + clause +
                 " predicate is contradictory: " + attr +
                 " is constrained to the empty set " + interval.ToString(),
             loc, label);
        break;
      }
    }
    return result;
  }

  void CheckResolvedQuery(int qi) {
    const Query& query = model_.query(qi);
    QueryInfo& info = infos_[qi];
    std::string label = QueryLabel(query, qi);
    const PatternSpec& pattern = *query.pattern;

    if (pattern.kind == PatternSpec::Kind::kAggregate) {
      CheckAggregateQuery(qi);
      return;
    }

    // Bindings: one variable per pattern position, negated included (the
    // matcher evaluates negation conditions against them).
    for (size_t i = 0; i < pattern.items.size(); ++i) {
      const PatternItem& item = pattern.items[i];
      BindingVar var;
      var.name = item.variable;
      var.type_id = model_.registry()->Lookup(item.event_type);
      var.schema = LookupSchema(item.event_type);
      info.bindings.Add(std::move(var));
    }

    bool where_compiles =
        query.where != nullptr &&
        CheckPredicate(query.where, info.bindings, query.where_loc, "WHERE",
                       label) != nullptr;

    // W202: SEQ positions carry strictly increasing timestamps, so a match
    // of n positive positions spans at least n-1 time units.
    if (pattern.kind == PatternSpec::Kind::kSeq && pattern.within > 0) {
      int positive = 0;
      for (const PatternItem& item : pattern.items) {
        if (!item.negated) ++positive;
      }
      if (positive >= 2 && pattern.within < positive - 1) {
        Emit(DiagCode::kW202UnsatisfiableSeq,
             "query '" + label + "': SEQ of " + std::to_string(positive) +
                 " positive positions spans at least " +
                 std::to_string(positive - 1) +
                 " time units (timestamps strictly increase) but WITHIN is " +
                 std::to_string(pattern.within),
             query.pattern_loc, label);
      }
    }

    CheckConjunctPlacement(qi, where_compiles);

    if (query.derive.has_value()) {
      CheckDeriveClause(qi, info.bindings, /*post_aggregate=*/false);
    }
  }

  // "var.attr" rendering for interval-fact messages.
  std::string FactName(const BindingSet& bindings, int var, int attr) {
    std::string name = bindings.var(var).name;
    if (name.empty()) name = "#" + std::to_string(var);
    name += ".";
    const Schema* schema = bindings.var(var).schema;
    if (schema != nullptr && attr >= 0 && attr < schema->num_attributes()) {
      name += schema->attribute(attr).name;
    } else {
      name += "a" + std::to_string(attr);
    }
    return name;
  }

  // ----- Conjunct placement: P303 and absint (W206 / W207). -----
  //
  // Places each WHERE conjunct as the translator does (PlaceConjunct): one
  // spanning several negated positions is P303 (once the whole WHERE
  // compiles), and the interval analysis runs over the guards across
  // positions (analysis/absint.h): a guard provably true under the facts
  // accumulated before it is subsumed (W207); one provably false — or facts
  // that become jointly empty — means no match can ever complete (W206).
  void CheckConjunctPlacement(int qi, bool where_compiles) {
    const Query& query = model_.query(qi);
    const QueryInfo& info = infos_[qi];
    if (query.where == nullptr) return;
    const PatternSpec& pattern = *query.pattern;
    std::string label = QueryLabel(query, qi);

    std::vector<AbsPosition> positions(pattern.items.size());
    std::vector<std::vector<ExprPtr>> sources(pattern.items.size());
    for (size_t i = 0; i < pattern.items.size(); ++i) {
      positions[i].negated = pattern.items[i].negated;
    }
    for (const ExprPtr& conjunct : SplitConjuncts(query.where)) {
      auto compiled = Compile(conjunct, info.bindings);
      if (!compiled.ok()) return;  // compile errors already reported
      ConjunctPlacement placement = PlaceConjunct(*compiled.value(), pattern);
      if (placement.kind == ConjunctPlacement::Kind::kMultiNegated &&
          where_compiles) {
        Emit(DiagCode::kP303MultiNegatedPredicate,
             "query '" + label + "': WHERE conjunct '" +
                 conjunct->ToString() +
                 "' references multiple negated pattern variables",
             query.where_loc, label);
      }
      // Negation conditions are not guards a run must pass, and a
      // constant conjunct is W205 territory.
      if (placement.kind != ConjunctPlacement::Kind::kGuard) continue;
      positions[placement.position].guards.push_back(
          AbstractPredicate(*compiled.value()));
      sources[placement.position].push_back(conjunct);
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
    // W201 already explains a flat per-attribute contradiction; W206 adds
    // the cross-position cases its summary cannot see.
    for (const Diagnostic& diag : diags_) {
      if (diag.code == DiagCode::kW201ContradictoryPredicate &&
          diag.query == label) {
        return;
      }
    }
    std::ostringstream message;
    message << "query '" << label << "': SEQ can never complete: ";
    if (result.dead_guard >= 0) {
      message << "WHERE conjunct '"
              << sources[result.dead_position][result.dead_guard]->ToString()
              << "' can never hold under the constraints accumulated from "
                 "earlier positions";
    } else {
      const IntervalFacts& after = result.states[result.dead_position + 1];
      auto key = after.EmptyKey();
      message << "the constraints accumulated at position "
              << result.dead_position << " leave ";
      if (key.first >= 0) {
        message << FactName(info.bindings, key.first, key.second)
                << " constrained to the empty set "
                << after.Get(key.first, key.second).ToString();
      } else {
        message << "an attribute constrained to the empty set";
      }
    }
    Emit(DiagCode::kW206CrossPositionContradiction, message.str(),
         query.where_loc, label);
  }

  void CheckAggregateQuery(int qi) {
    const Query& query = model_.query(qi);
    QueryInfo& info = infos_[qi];
    std::string label = QueryLabel(query, qi);
    const PatternSpec& pattern = *query.pattern;
    const PatternItem& input = pattern.items[0];
    const Schema* input_schema = LookupSchema(input.event_type);

    BindingVar in_var;
    in_var.name = input.variable;
    in_var.type_id = model_.registry()->Lookup(input.event_type);
    in_var.schema = input_schema;
    info.bindings.Add(in_var);

    AggregateTyping typing = TypeAggregate(pattern, *input_schema, label);
    for (std::string& problem : typing.problems) {
      Emit(DiagCode::kE105BadAggregate, std::move(problem), query.pattern_loc,
           label);
    }
    if (!typing.problems.empty()) {
      PoisonOutput(query);
      return;
    }
    info.agg_schema = Schema(std::move(typing.output));

    BindingSet post_bindings;
    BindingVar post_var;
    post_var.name = input.variable;
    post_var.schema = &info.agg_schema;
    post_bindings.Add(post_var);

    // WHERE on an aggregate pattern filters the aggregate's output rows
    // (translator: post_where compiled against post_bindings), not the
    // input events — so it is checked against the post-aggregation schema.
    if (query.where != nullptr) {
      CheckPredicate(query.where, post_bindings, query.where_loc, "WHERE",
                     label);
    }

    if (pattern.having != nullptr) {
      CheckPredicate(pattern.having, post_bindings, query.pattern_loc,
                     "HAVING", label);
    }
    if (query.derive.has_value()) {
      CheckDeriveClause(qi, post_bindings, /*post_aggregate=*/true);
    }
  }

  // Compiles the DERIVE arguments, reports E102/E103 (and references to
  // negated pattern variables), computes the derived schema, and registers
  // it for downstream queries — reporting E106 on conflicts.
  void CheckDeriveClause(int qi, const BindingSet& bindings,
                         bool post_aggregate) {
    const Query& query = model_.query(qi);
    std::string label = QueryLabel(query, qi);
    const DeriveSpec& derive = *query.derive;

    std::vector<std::string> names = DerivedAttributeNames(derive);
    std::vector<Attribute> attrs;
    bool ok = true;
    for (size_t i = 0; i < derive.args.size(); ++i) {
      const ExprPtr& arg = derive.args[i];
      auto compiled = Compile(arg, bindings);
      if (!compiled.ok()) {
        Emit(ClassifyCompileError(compiled.status().message()),
             "query '" + label + "': DERIVE argument '" + arg->ToString() +
                 "': " + compiled.status().message(),
             query.loc, label);
        ok = false;
        continue;
      }
      if (!post_aggregate) {
        for (int var : compiled.value()->referenced_vars()) {
          if (query.pattern->items[var].negated) {
            Emit(DiagCode::kE102UnknownAttribute,
                 "query '" + label +
                     "': attribute of negated variable used outside the "
                     "pattern: " +
                     arg->ToString(),
                 query.loc, label);
            ok = false;
          }
        }
      }
      attrs.push_back(
          Attribute{std::move(names[i]), compiled.value()->result_type()});
    }
    if (!ok) {
      PoisonOutput(query);
      return;
    }

    const std::string& type_name = derive.event_type;
    TypeId registered = model_.registry()->Lookup(type_name);
    if (registered != kInvalidTypeId) {
      const Schema& existing = model_.registry()->type(registered).schema;
      if (existing.num_attributes() != static_cast<int>(attrs.size())) {
        Emit(DiagCode::kE106DeriveSchemaConflict,
             "query '" + label + "': derived event type " + type_name +
                 " is already registered with a different schema (" +
                 std::to_string(existing.num_attributes()) + " vs " +
                 std::to_string(attrs.size()) + " attributes)",
             query.loc, label);
      }
      return;  // the registered schema wins, as in the translator
    }
    auto it = derived_.find(type_name);
    if (it != derived_.end()) {
      if (it->second.num_attributes() != static_cast<int>(attrs.size())) {
        Emit(DiagCode::kE106DeriveSchemaConflict,
             "query '" + label + "': derived event type " + type_name +
                 " is derived with a different schema elsewhere (" +
                 std::to_string(it->second.num_attributes()) + " vs " +
                 std::to_string(attrs.size()) + " attributes)",
             query.loc, label);
      }
      return;  // first deriver wins
    }
    derived_.emplace(type_name, Schema(std::move(attrs)));
  }

  // ----- Pass 3: optimizer preconditions (W203 note / W204 warning). -----

  void CheckWindows() {
    std::set<std::string> groupable;
    for (const WindowBounds& bounds : ExtractWindowBounds(model_)) {
      groupable.insert(bounds.context);
    }
    for (int ci = 0; ci < model_.num_contexts(); ++ci) {
      const ContextType& context = model_.context(ci);
      if (context.name == model_.default_context()) continue;
      std::vector<int> initiators, terminators;
      for (int qi = 0; qi < model_.num_queries(); ++qi) {
        if (model_.query(qi).Opens(context.name)) initiators.push_back(qi);
        if (model_.query(qi).Closes(context.name)) terminators.push_back(qi);
      }
      if (initiators.empty()) continue;  // C001 territory
      std::string prefix = "context '" + context.name + "' ";
      // C006 runs before the groupable skip: a context whose terminator
      // accepts every initiating event is empty whether or not its bounds
      // form an orderable window (open at pos = 5 / close at pos <= 10 is
      // groupable — 5 < 10 — yet each window closes the moment it opens).
      //
      // The same single-threshold reading as ExtractWindowBounds, so
      // W203/W204 explain exactly why it skipped a context.
      std::optional<AttrConstraint> start, end;
      if (initiators.size() == 1 && terminators.size() == 1) {
        const Query& init = model_.query(initiators[0]);
        const Query& term = model_.query(terminators[0]);
        start = SingleThresholdConstraint(init.where);
        end = SingleThresholdConstraint(term.where);
        // C006 yields to W204 on the same-attribute rising-threshold
        // shape: there the inverted-bounds warning explains the empty
        // window more precisely (and fires on exactly the models it
        // always did).
        bool w204_shape = start.has_value() && end.has_value() &&
                          start->QualifiedName() == end->QualifiedName() &&
                          IsRisingCrossing(start->op) &&
                          IsRisingCrossing(end->op);
        if (!w204_shape && ProvablyEmptyContext(init, term)) {
          Emit(DiagCode::kC006ProvablyEmptyContext,
               prefix + "is provably empty: every event satisfying the "
                        "initiating predicate of query '" +
                   QueryLabel(init, initiators[0]) +
                   "' also satisfies the terminating predicate of query '" +
                   QueryLabel(term, terminators[0]) +
                   "', so each window closes the moment it opens",
               context.loc, /*query=*/{}, context.name);
          continue;
        }
      }
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
      const Query& init = model_.query(initiators[0]);
      const Query& term = model_.query(terminators[0]);
      if (!start.has_value() || !end.has_value()) {
        const bool init_ok = start.has_value();
        const Query& bad = init_ok ? term : init;
        Note(prefix + "bounds are not compile-time orderable: the " +
                 (init_ok ? "terminating" : "initiating") +
                 " predicate of query '" +
                 QueryLabel(bad, init_ok ? terminators[0] : initiators[0]) +
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
      // Orderability is only defined when both thresholds mark a rising
      // crossing (the monotone-rising-signal shape window grouping
      // targets). Opposite-direction pairs are hysteresis windows (e.g.
      // open on intensity >= 7, close on intensity <= 3) — valid, just
      // not groupable.
      if (!IsRisingCrossing(start->op) || !IsRisingCrossing(end->op)) {
        Note(prefix + "bounds are opposite-direction thresholds on " +
                 start_attr + " (a hysteresis window) and are not "
                 "compile-time orderable",
             context);
        continue;
      }
      // Same attribute, rising-crossing thresholds — ExtractWindowBounds
      // only skips this shape when the bounds are inverted (zero-width).
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
  const AnalyzerOptions& options_;
  std::vector<Diagnostic> diags_;
  std::vector<QueryInfo> infos_;
  std::map<std::string, Schema> derived_;  // virtual schemas, name-keyed
  std::set<std::string> poisoned_;         // derived types that failed
};

}  // namespace

std::vector<Diagnostic> AnalyzeModel(const CaesarModel& model,
                                     const AnalyzerOptions& options) {
  return Analyzer(model, options).Run();
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

  // C003: a later SWITCH whose pattern and predicate are subsumed by an
  // earlier SWITCH to the same target never changes the outcome. A pattern
  // without items is E107 (StructuralDiagnostics), not a shadowing edge.
  auto event_pattern = [](const Query& q) {
    return q.pattern.has_value() &&
           q.pattern->kind == PatternSpec::Kind::kEvent &&
           !q.pattern->items.empty();
  };
  for (int qj = 0; qj < model.num_queries(); ++qj) {
    const Query& later = model.query(qj);
    if (later.action != ContextAction::kSwitch) continue;
    if (!event_pattern(later)) continue;
    for (int qi = 0; qi < qj; ++qi) {
      const Query& earlier = model.query(qi);
      if (earlier.action != ContextAction::kSwitch ||
          earlier.target_context != later.target_context) {
        continue;
      }
      if (!event_pattern(earlier) ||
          earlier.pattern->items[0].event_type !=
              later.pattern->items[0].event_type) {
        continue;
      }
      // The earlier query must be gated wherever the later one is...
      bool gates_covered = true;
      for (const std::string& gate : later.contexts) {
        if (std::find(earlier.contexts.begin(), earlier.contexts.end(),
                      gate) == earlier.contexts.end()) {
          gates_covered = false;
          break;
        }
      }
      if (!gates_covered) continue;
      // ...and fire whenever the later one fires (predicate subsumption).
      if (!Implies(PredicateSummary::FromExpr(later.where),
                   PredicateSummary::FromExpr(earlier.where))) {
        continue;
      }
      std::string later_label = QueryLabel(later, qj);
      diags.push_back(MakeDiag(
          DiagCode::kC003ShadowedSwitchEdge,
          "query '" + later_label + "': SWITCH CONTEXT " +
              later.target_context + " is shadowed by query '" +
              QueryLabel(earlier, qi) +
              "', which switches there on a weaker predicate over the same "
              "pattern",
          later.loc, later_label, later.target_context));
      break;
    }
  }

  return diags;
}

}  // namespace caesar
