#include "plan/typing.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "expr/analysis.h"

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

// Rewrites attribute references into the composite match schema's
// "<var>.<attr>" names. A bare reference that names no one item's
// attribute stays bare, so the composite does not resolve it either.
ExprPtr RewriteForComposite(const ExprPtr& expr, const BindingSet& bindings) {
  switch (expr->kind()) {
    case Expr::Kind::kConstant:
      return expr;
    case Expr::Kind::kAttrRef: {
      const auto& attr = static_cast<const AttrRefExpr&>(*expr);
      std::string var = attr.variable();
      if (var.empty()) {
        const int index = bindings.ResolveBareAttr(attr.attribute());
        if (index < 0) return expr;
        var = bindings.var(index).name;
      }
      return MakeAttrRef("", var + "." + attr.attribute());
    }
    case Expr::Kind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(*expr);
      return MakeBinary(binary.op(),
                        RewriteForComposite(binary.left(), bindings),
                        RewriteForComposite(binary.right(), bindings));
    }
  }
  return expr;
}

// The attribute names of `derive`'s event type: the AS name, else a
// reference's attribute, else "a<i>"; a taken name gets "_<i>" appended
// until unique, so D(r.x AS v, r.y AS v_2, r.z AS v) is D(v, v_2, v_2_2).
std::vector<std::string> DerivedAttributeNames(const DeriveSpec& derive) {
  std::vector<std::string> names;
  std::set<std::string> seen;
  for (size_t i = 0; i < derive.args.size(); ++i) {
    std::string name;
    if (i < derive.attr_names.size()) name = derive.attr_names[i];
    if (name.empty() && derive.args[i]->kind() == Expr::Kind::kAttrRef) {
      name = static_cast<const AttrRefExpr&>(*derive.args[i]).attribute();
    }
    if (name.empty()) name = std::string("a").append(std::to_string(i));
    while (!seen.insert(name).second) {
      name.append("_").append(std::to_string(i));
    }
    names.push_back(std::move(name));
  }
  return names;
}

// A negation condition (of which item), else a guard at its latest
// positive item, else residual.
ConjunctPlacement PlaceConjunct(const CompiledExpr& conjunct,
                                const PatternSpec& pattern) {
  ConjunctPlacement placement;
  int negated = -1;
  int latest_positive = -1;
  for (int var : conjunct.referenced_vars()) {
    if (!pattern.items[var].negated) {
      latest_positive = std::max(latest_positive, var);
    } else if (negated >= 0) {
      placement.kind = ConjunctPlacement::Kind::kMultiNegated;
      return placement;
    } else {
      negated = var;
    }
  }
  if (negated >= 0) {
    placement.kind = ConjunctPlacement::Kind::kNegation;
    placement.position = negated;
  } else if (latest_positive >= 0) {
    placement.kind = ConjunctPlacement::Kind::kGuard;
    placement.position = latest_positive;
  }
  return placement;
}

class Typer {
 public:
  explicit Typer(const CaesarModel& model)
      : model_(model), registry_(*model.registry()) {}

  ModelTyping Run() {
    typing_.queries.resize(model_.num_queries());
    pending_.resize(model_.num_queries());
    for (int qi = 0; qi < model_.num_queries(); ++qi) {
      const Query& query = model_.query(qi);
      typing_.queries[qi].label = QueryLabel(query, qi);
      // Typing needs a pattern, and an aggregate its one positive input
      // (E107 / E105 in StructuralDiagnostics).
      pending_[qi] = query.pattern.has_value() &&
                     !query.pattern->items.empty() &&
                     (query.pattern->kind != PatternSpec::Kind::kAggregate ||
                      (query.pattern->items.size() == 1 &&
                       !query.pattern->items[0].negated));
    }
    Resolve();
    ReportUnresolved();
    OrderPhases();
    return std::move(typing_);
  }

 private:
  void Emit(DiagCode code, std::string message, SourceLoc loc,
            const std::string& label) {
    typing_.diagnostics.push_back(
        MakeDiag(code, std::move(message), loc, label));
  }

  // A registered type's schema, else the first resolved deriver's.
  const Schema* SchemaOf(const std::string& type_name) const {
    TypeId id = registry_.Lookup(type_name);
    if (id != kInvalidTypeId) return &registry_.type(id).schema;
    auto it = derived_.find(type_name);
    return it == derived_.end() ? nullptr : it->second;
  }

  // A defective query's output type stays unknown, and its consumers stay
  // quiet: the defect is reported at its producer.
  void Poison(const Query& query) {
    if (!query.derive.has_value()) return;
    const std::string& name = query.derive->event_type;
    if (SchemaOf(name) == nullptr) poisoned_.insert(name);
  }

  // Fixpoint: a query resolves once every pattern item type is registered
  // or derived by a resolved query, sweeping in model order.
  void Resolve() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (int qi = 0; qi < model_.num_queries(); ++qi) {
        if (!pending_[qi]) continue;
        const Query& query = model_.query(qi);
        bool available = true;
        bool poisoned = false;
        for (const PatternItem& item : query.pattern->items) {
          if (SchemaOf(item.event_type) != nullptr) continue;
          const bool from_defect = poisoned_.count(item.event_type) > 0;
          poisoned |= from_defect;
          available &= from_defect;
        }
        if (!available) continue;
        progress = true;
        pending_[qi] = false;
        if (poisoned) {
          Poison(query);
          continue;
        }
        typing_.resolution_order.push_back(qi);
        TypedQuery& typed = typing_.queries[qi];
        typed.typed = TypeQuery(query, &typed);
        if (!typed.typed) Poison(query);
      }
    }
  }

  // Whatever is still pending references a type nobody defines (or a
  // derivation cycle).
  void ReportUnresolved() {
    for (int qi = 0; qi < model_.num_queries(); ++qi) {
      if (!pending_[qi]) continue;
      const Query& query = model_.query(qi);
      const std::string& label = typing_.queries[qi].label;
      std::set<std::string> reported;
      for (const PatternItem& item : query.pattern->items) {
        if (SchemaOf(item.event_type) != nullptr) continue;
        if (poisoned_.count(item.event_type) > 0) continue;
        if (!reported.insert(item.event_type).second) continue;
        std::string message =
            "query '" + label + "': unknown event type " + item.event_type;
        for (int pi = 0; pi < model_.num_queries(); ++pi) {  // first deriver
          const std::optional<DeriveSpec>& derive = model_.query(pi).derive;
          if (derive.has_value() && derive->event_type == item.event_type) {
            message += " (derived by query '" + typing_.queries[pi].label +
                       "', which did not resolve — derivation cycle?)";
            break;
          }
        }
        Emit(DiagCode::kE101UnknownEventType, message, query.pattern_loc,
             label);
      }
      Poison(query);
    }
  }

  // Types one resolved query; false when it reported a defect. An event
  // match's and a SEQ's WHERE and DERIVE arguments type against the items;
  // an aggregate's WHERE filters its output rows, so it, HAVING and the
  // DERIVE arguments type against the post-aggregation schema.
  bool TypeQuery(const Query& query, TypedQuery* typed) {
    const PatternSpec& pattern = *query.pattern;
    const std::string& label = typed->label;
    bool ok = true;
    for (size_t i = 0; i < pattern.items.size(); ++i) {
      const PatternItem& item = pattern.items[i];
      std::string var = item.variable.empty()
                            ? std::string("_").append(std::to_string(i))
                            : item.variable;
      if (typed->bindings.IndexOfVar(var) >= 0) {
        Emit(DiagCode::kE102UnknownAttribute,
             "query '" + label + "': pattern variable " + var +
                 " is bound to more than one position",
             query.pattern_loc, label);
        ok = false;
      }
      const TypeId id = registry_.Lookup(item.event_type);
      typed->bindings.Add({std::move(var), id,
                           id == kInvalidTypeId
                               ? derived_.at(item.event_type)
                               : &registry_.type(id).schema});
    }
    if (!ok) return false;

    const bool aggregate = pattern.kind == PatternSpec::Kind::kAggregate;
    if (aggregate && !TypeAggregate(query, typed)) return false;
    if (pattern.kind == PatternSpec::Kind::kSeq) {
      // The composite match: "<var>.<attr>" per positive item's attribute.
      size_t arity = 0;
      for (int item = 0; item < typed->bindings.size(); ++item) {
        if (pattern.items[item].negated) continue;
        arity += typed->bindings.var(item).schema->attributes().size();
      }
      auto attributes = [&] {
        std::vector<Attribute> composite;
        for (int item = 0; item < typed->bindings.size(); ++item) {
          if (pattern.items[item].negated) continue;
          const BindingVar& var = typed->bindings.var(item);
          for (const Attribute& attr : var.schema->attributes()) {
            composite.push_back({var.name + "." + attr.name, attr.type});
          }
        }
        return composite;
      };
      typed->pattern_schema =
          SchemaFor("$match_" + label, arity, attributes, query, label, &ok);
    }
    if (pattern.kind == PatternSpec::Kind::kEvent) {
      typed->post_bindings.Add(typed->bindings.var(0));
    } else {
      // An aggregate's rows are bound under its input's name.
      typed->post_bindings.Add({aggregate ? typed->bindings.var(0).name : "",
                                kInvalidTypeId, typed->pattern_schema});
    }
    const BindingSet& scope =
        aggregate ? typed->post_bindings : typed->bindings;
    if (query.where != nullptr) {
      typed->where =
          CompileClause(query.where, scope, query.where_loc, "WHERE", label);
      ok &= typed->where != nullptr &&
            (aggregate || PlaceConjuncts(query, typed));
    }
    if (aggregate && pattern.having != nullptr) {
      typed->having = CompileClause(pattern.having, scope, query.pattern_loc,
                                    "HAVING", label);
      ok &= typed->having != nullptr;
    }
    if (query.derive.has_value()) ok &= TypeDerive(query, typed);
    return ok;
  }

  // An aggregate's attribute indices and output schema: group-by
  // attributes keep their input types, COUNT is int and the others double.
  // An output name defined twice is E105 like an unknown attribute.
  bool TypeAggregate(const Query& query, TypedQuery* typed) {
    const PatternSpec& pattern = *query.pattern;
    const Schema& input = *typed->bindings.var(0).schema;
    std::vector<Attribute> output;
    const size_t reported = typing_.diagnostics.size();
    auto problem = [&](const std::string& message) {
      Emit(DiagCode::kE105BadAggregate,
           "query '" + typed->label + "': " + message, query.pattern_loc,
           typed->label);
    };
    for (const std::string& name : pattern.group_by) {
      int index = input.IndexOf(name);
      if (index < 0) {
        problem("unknown group-by attribute " + name);
        continue;
      }
      typed->group_by.push_back(index);
      output.push_back(input.attribute(index));
    }
    for (const AggregateSpec& agg : pattern.aggregates) {
      int index = -1;
      if (agg.attribute.empty()) {
        if (agg.func != AggregateFunc::kCount) {
          problem(std::string("only COUNT may omit its attribute (") +
                  AggregateFuncName(agg.func) + " AS " + agg.name + ")");
        }
      } else if ((index = input.IndexOf(agg.attribute)) < 0) {
        problem("unknown aggregate attribute " + agg.attribute);
        continue;
      }
      typed->aggregate_inputs.push_back(index);
      output.push_back({agg.name, agg.func == AggregateFunc::kCount
                                      ? ValueType::kInt
                                      : ValueType::kDouble});
    }
    std::set<std::string> names;
    for (const Attribute& attribute : output) {
      if (!names.insert(attribute.name).second) {
        problem("aggregate output attribute " + attribute.name +
                " is defined twice");
      }
    }
    if (typing_.diagnostics.size() > reported) return false;
    bool ok = true;
    typed->pattern_schema =
        SchemaFor("$agg_" + typed->label, output.size(),
                  [&] { return std::move(output); }, query, typed->label, &ok);
    return ok;
  }

  // The matcher's view of WHERE: each conjunct compiled against the items
  // and placed (P303 when no matcher can hold it).
  bool PlaceConjuncts(const Query& query, TypedQuery* typed) {
    bool ok = true;
    for (SharedExpr& compiled : SplitCompiled(typed->where)) {
      ConjunctPlacement placement = PlaceConjunct(*compiled, *query.pattern);
      if (placement.kind == ConjunctPlacement::Kind::kMultiNegated) {
        Emit(DiagCode::kP303MultiNegatedPredicate,
             "query '" + typed->label + "': WHERE conjunct '" +
                 compiled->ToString() +
                 "' references multiple negated pattern variables",
             query.where_loc, typed->label);
        ok = false;
      }
      typed->conjuncts.push_back({std::move(compiled), placement});
    }
    return ok;
  }

  // Compiles one clause, reporting E102/E103 on failure (null).
  SharedExpr CompileClause(const ExprPtr& expr, const BindingSet& bindings,
                           SourceLoc loc, const std::string& clause,
                           const std::string& label) {
    auto compiled = Compile(expr, bindings);
    if (compiled.ok()) return std::move(compiled).value();
    const std::string message = compiled.status().message();
    Emit(ClassifyCompileError(message),
         "query '" + label + "': " + clause + ": " + message, loc, label);
    return nullptr;
  }

  // The DERIVE arguments, compiled against `post_bindings` (a SEQ's
  // rewritten for the composite match), and schema. No argument may read a
  // negated item; a SEQ argument that does not compile for the composite is
  // typed against the items for its diagnostic.
  bool TypeDerive(const Query& query, TypedQuery* typed) {
    const DeriveSpec& derive = *query.derive;
    const PatternSpec& pattern = *query.pattern;
    const bool seq = pattern.kind == PatternSpec::Kind::kSeq;
    const std::string& label = typed->label;
    auto reads_negated = [&](const CompiledExpr& compiled,
                             const ExprPtr& arg) {
      bool negated = false;
      for (int var : compiled.referenced_vars()) {
        if (!pattern.items[var].negated) continue;
        Emit(DiagCode::kE102UnknownAttribute,
             "query '" + label +
                 "': attribute of negated variable used outside the "
                 "pattern: " +
                 arg->ToString(),
             query.loc, label);
        negated = true;
      }
      return negated;
    };
    typed->derive = derive;
    bool ok = true;
    for (size_t i = 0; i < derive.args.size(); ++i) {
      const ExprPtr& arg = derive.args[i];
      if (seq) {
        typed->derive.args[i] = RewriteForComposite(arg, typed->bindings);
      }
      auto compiled = Compile(typed->derive.args[i], typed->post_bindings);
      if (compiled.ok() && !(pattern.kind == PatternSpec::Kind::kEvent &&
                             reads_negated(*compiled.value(), arg))) {
        typed->derive_args.push_back(std::move(compiled).value());
        continue;
      }
      ok = false;
      if (compiled.ok()) continue;
      // Only a negated item keeps an item-typed argument from the composite.
      SharedExpr items =
          CompileClause(arg, seq ? typed->bindings : typed->post_bindings,
                        query.loc, "DERIVE argument '" + arg->ToString() + "'",
                        label);
      if (items != nullptr) {
        CAESAR_CHECK(reads_negated(*items, arg)) << arg->ToString();
      }
    }
    if (!ok) return false;
    auto attributes = [&] {
      std::vector<std::string> names = DerivedAttributeNames(derive);
      std::vector<Attribute> derived;
      for (size_t i = 0; i < names.size(); ++i) {
        derived.push_back(
            {std::move(names[i]), typed->derive_args[i]->result_type()});
      }
      return derived;
    };
    typed->derived = SchemaFor(derive.event_type, derive.args.size(),
                               attributes, query, label, &ok);
    return ok;
  }

  // The schema of a type the query produces: the registered one, else its
  // first deriver's, else one of `attributes()` (built only then), kept in
  // the result for the queries that consume the type. Another arity than
  // `arity` is E106.
  template <typename Attributes>
  const Schema* SchemaFor(const std::string& type_name, size_t arity,
                          const Attributes& attributes, const Query& query,
                          const std::string& label, bool* ok) {
    const Schema* known = SchemaOf(type_name);
    if (known == nullptr) {
      known = typing_.schemas
                  .emplace_back(std::make_unique<const Schema>(attributes()))
                  .get();
      derived_.emplace(type_name, known);
      return known;
    }
    if (known->num_attributes() == static_cast<int>(arity)) return known;
    const bool registered = registry_.Lookup(type_name) != kInvalidTypeId;
    Emit(DiagCode::kE106DeriveSchemaConflict,
         "query '" + label + "': derived event type " + type_name +
             (registered ? " is already registered with a different schema ("
                         : " is derived with a different schema elsewhere (") +
             std::to_string(known->num_attributes()) + " vs " +
             std::to_string(arity) + " attributes)",
         query.loc, label);
    *ok = false;
    return known;
  }

  // Splits the typed queries into the two phases, each in produce/consume
  // order. Derivation runs before processing, so a deriving query must not
  // consume a processing query's output (P305).
  void OrderPhases() {
    // Per typed query, the typed queries deriving what it consumes (itself
    // aside): in item order, each type's producers in resolution order.
    std::map<std::string, std::vector<int>> producers;
    for (int qi : typing_.resolution_order) {
      const std::optional<DeriveSpec>& derive = model_.query(qi).derive;
      if (typing_.queries[qi].typed && derive.has_value()) {
        producers[derive->event_type].push_back(qi);
      }
    }
    std::vector<std::vector<int>> inputs(model_.num_queries());
    std::vector<int> deriving;
    std::vector<int> processing;
    for (int qi : typing_.resolution_order) {
      if (!typing_.queries[qi].typed) continue;
      const Query& query = model_.query(qi);
      const std::string& label = typing_.queries[qi].label;
      const bool deriving_query = query.IsContextDeriving();
      (deriving_query ? deriving : processing).push_back(qi);
      bool reported = !deriving_query;  // P305: deriving queries, once each
      for (const PatternItem& item : query.pattern->items) {
        auto it = producers.find(item.event_type);
        if (it == producers.end()) continue;
        for (int producer : it->second) {
          if (producer != qi && std::find(inputs[qi].begin(), inputs[qi].end(),
                                          producer) == inputs[qi].end()) {
            inputs[qi].push_back(producer);
          }
          if (reported || model_.query(producer).IsContextDeriving()) continue;
          Emit(DiagCode::kP305DerivingConsumesProcessing,
               "query '" + label +
                   "': context deriving query consumes event type " +
                   item.event_type + ", which context processing query '" +
                   typing_.queries[producer].label +
                   "' derives (derivation runs before processing)",
               query.pattern_loc, label);
          reported = true;
        }
      }
    }
    typing_.deriving = Order(deriving, inputs, "deriving");
    typing_.processing = Order(processing, inputs, "processing");
  }

  // Kahn's algorithm over one phase in resolution order: a query runs after
  // the producers of what it consumes (`inputs`); P306 names the queries a
  // cycle leaves unordered (its members and the queries they feed).
  std::vector<int> Order(const std::vector<int>& queries,
                         const std::vector<std::vector<int>>& inputs,
                         const std::string& phase) {
    const size_t n = queries.size();
    std::vector<int> position(model_.num_queries(), -1);
    for (size_t i = 0; i < n; ++i) position[queries[i]] = static_cast<int>(i);
    std::vector<std::vector<size_t>> dependents(n);
    std::vector<size_t> waiting(n);  // producers not yet ordered
    std::vector<size_t> ready;
    for (size_t i = 0; i < n; ++i) {
      for (int producer : inputs[queries[i]]) {
        if (position[producer] < 0) continue;  // the other phase
        dependents[position[producer]].push_back(i);
        ++waiting[i];
      }
      if (waiting[i] == 0) ready.push_back(i);
    }
    std::vector<int> sorted;
    for (size_t cursor = 0; cursor < ready.size(); ++cursor) {
      sorted.push_back(queries[ready[cursor]]);
      for (size_t dependent : dependents[ready[cursor]]) {
        if (--waiting[dependent] == 0) ready.push_back(dependent);
      }
    }
    if (sorted.size() == n) return sorted;

    std::string members;
    int first = -1;
    for (size_t i = 0; i < n; ++i) {
      if (waiting[i] == 0) continue;
      if (first < 0) first = queries[i];
      if (!members.empty()) members += ", ";
      members += "'" + typing_.queries[queries[i]].label + "'";
    }
    const std::string& label = typing_.queries[first].label;
    Emit(DiagCode::kP306CyclicTypeDependency,
         "query '" + label + "': cyclic type dependency: no order runs the "
             "context " + phase + " queries " + members +
             " each after the producers of what it consumes",
         model_.query(first).loc, label);
    return sorted;
  }

  const CaesarModel& model_;
  const TypeRegistry& registry_;
  std::vector<bool> pending_;  // not skipped, resolved or poisoned yet
  std::map<std::string, const Schema*> derived_;  // first deriver's schema
  std::set<std::string> poisoned_;  // derived types whose producer failed
  ModelTyping typing_;
};

}  // namespace

ModelTyping TypeModel(const CaesarModel& model) { return Typer(model).Run(); }

SharedExpr CompileForComposite(const ExprPtr& expr, const TypedQuery& typed) {
  auto compiled =
      Compile(RewriteForComposite(expr, typed.bindings), typed.post_bindings);
  CAESAR_CHECK_OK(compiled.status());
  return std::move(compiled).value();
}

}  // namespace caesar
