#include "plan/translator.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/aggregate_op.h"
#include "algebra/basic_ops.h"
#include "algebra/context_ops.h"
#include "algebra/pattern_op.h"
#include "compile/compiled_pattern_op.h"
#include "compile/compiler.h"
#include "expr/analysis.h"
#include "expr/compiled.h"

namespace caesar {

namespace {

// Pattern variables with resolved types/schemas, one per pattern item.
struct ResolvedPattern {
  BindingSet bindings;                    // one var per item (incl. negated)
  std::vector<TypeId> item_types;
  std::vector<std::string> var_names;     // synthesized when anonymous
  std::vector<bool> negated;              // per item
};

Result<ResolvedPattern> ResolvePattern(const PatternSpec& pattern,
                                       const TypeRegistry& registry,
                                       const std::string& query_label) {
  ResolvedPattern resolved;
  for (size_t i = 0; i < pattern.items.size(); ++i) {
    const PatternItem& item = pattern.items[i];
    TypeId type_id = registry.Lookup(item.event_type);
    if (type_id == kInvalidTypeId) {
      return Status::NotFound(query_label + ": unknown event type " +
                              item.event_type);
    }
    std::string var = item.variable.empty()
                          ? std::string("_").append(std::to_string(i))
                          : item.variable;
    resolved.bindings.Add({var, type_id, &registry.type(type_id).schema});
    resolved.item_types.push_back(type_id);
    resolved.var_names.push_back(var);
    resolved.negated.push_back(item.negated);
  }
  return resolved;
}

// Rewrites attribute references for evaluation against the flattened
// composite match schema ("<var>.<attr>" attribute names). Bare references
// are resolved to the unique positive variable exposing the attribute.
Result<ExprPtr> RewriteForComposite(const ExprPtr& expr,
                                    const ResolvedPattern& resolved) {
  switch (expr->kind()) {
    case Expr::Kind::kConstant:
      return expr;
    case Expr::Kind::kAttrRef: {
      const auto& attr = static_cast<const AttrRefExpr&>(*expr);
      std::string var = attr.variable();
      if (var.empty()) {
        int index = resolved.bindings.ResolveBareAttr(attr.attribute());
        if (index == -1) {
          return Status::InvalidArgument("unknown attribute: " +
                                         attr.attribute());
        }
        if (index == -2) {
          return Status::InvalidArgument("ambiguous attribute: " +
                                         attr.attribute());
        }
        var = resolved.var_names[index];
        if (resolved.negated[index]) {
          return Status::InvalidArgument(
              "attribute of negated variable used outside the pattern: " +
              attr.attribute());
        }
      } else {
        int index = resolved.bindings.IndexOfVar(var);
        if (index < 0) {
          return Status::InvalidArgument("unknown pattern variable: " + var);
        }
        if (resolved.negated[index]) {
          return Status::InvalidArgument(
              "negated variable used outside the pattern: " + var);
        }
      }
      return MakeAttrRef("", var + "." + attr.attribute());
    }
    case Expr::Kind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(*expr);
      CAESAR_ASSIGN_OR_RETURN(ExprPtr left,
                              RewriteForComposite(binary.left(), resolved));
      CAESAR_ASSIGN_OR_RETURN(ExprPtr right,
                              RewriteForComposite(binary.right(), resolved));
      return MakeBinary(binary.op(), std::move(left), std::move(right));
    }
  }
  return Status::Internal("unreachable");
}

// Registers (or fetches) an event type, checking arity compatibility.
Result<TypeId> RegisterDerivedType(TypeRegistry* registry,
                                   const std::string& name,
                                   std::vector<Attribute> attributes,
                                   const std::string& query_label) {
  TypeId existing = registry->Lookup(name);
  if (existing != kInvalidTypeId) {
    const Schema& schema = registry->type(existing).schema;
    if (schema.num_attributes() != static_cast<int>(attributes.size())) {
      return Status::FailedPrecondition(
          query_label + ": derived type " + name +
          " already registered with a different schema");
    }
    return existing;
  }
  return registry->Register(name, std::move(attributes));
}

// Builds everything per query; shared between the normal path and the
// guard-construction path of the context-independent baseline.
class QueryTranslator {
 public:
  QueryTranslator(const CaesarModel& model, const PlanOptions& options)
      : model_(model), options_(options), registry_(model.registry()) {}

  // Translates query `qi` into a CompiledQuery (without guards).
  Result<CompiledQuery> Translate(int qi) {
    const Query& query = model_.query(qi);
    std::string label = QueryLabel(query, qi);

    CompiledQuery compiled;
    compiled.query_index = qi;
    compiled.name = label;
    compiled.deriving = query.IsContextDeriving();
    // Every context name resolves: TranslateModel checked the structure.
    for (const std::string& context : query.contexts) {
      compiled.contexts.push_back(model_.ContextIndex(context));
    }
    if (query.context_anchors.empty()) {
      compiled.anchors = compiled.contexts;  // identity
    } else {
      for (const std::string& anchor : query.context_anchors) {
        compiled.anchors.push_back(model_.ContextIndex(anchor));
      }
    }

    const PatternSpec& pattern = *query.pattern;
    CAESAR_ASSIGN_OR_RETURN(ResolvedPattern resolved,
                            ResolvePattern(pattern, *registry_, label));
    compiled.input_types = resolved.item_types;

    // Build the pattern/aggregate operator plus the post-pattern binding
    // (the schema downstream expressions are evaluated against).
    std::unique_ptr<Operator> source_op;
    BindingSet post_bindings;       // single variable
    ExprPtr post_where;             // WHERE part evaluated above the pattern
    switch (pattern.kind) {
      case PatternSpec::Kind::kEvent: {
        CAESAR_RETURN_IF_ERROR(BuildEventMatch(query, resolved, label,
                                               &source_op, &post_bindings));
        post_where = query.where;
        break;
      }
      case PatternSpec::Kind::kSeq: {
        CAESAR_RETURN_IF_ERROR(BuildSeq(query, resolved, label, &source_op,
                                        &post_bindings, &post_where));
        break;
      }
      case PatternSpec::Kind::kAggregate: {
        CAESAR_RETURN_IF_ERROR(BuildAggregate(query, resolved, label,
                                              &source_op, &post_bindings));
        post_where = query.where;
        break;
      }
    }

    // Filter above the pattern.
    std::unique_ptr<Operator> filter_op;
    if (post_where != nullptr) {
      CAESAR_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledExpr> predicate,
                              CompileShared(post_where, post_bindings));
      filter_op = std::make_unique<FilterOp>(std::move(predicate));
    }

    // Projection (DERIVE clause). For SEQ queries the argument expressions
    // reference pattern variables; rewrite them against the composite
    // schema first.
    std::unique_ptr<Operator> projection_op;
    if (query.derive.has_value()) {
      DeriveSpec derive = *query.derive;
      if (pattern.kind == PatternSpec::Kind::kSeq) {
        for (ExprPtr& arg : derive.args) {
          CAESAR_ASSIGN_OR_RETURN(arg, RewriteForComposite(arg, resolved));
        }
      }
      CAESAR_ASSIGN_OR_RETURN(
          projection_op, BuildProjection(derive, *query.derive, post_bindings,
                                         label));
      compiled.output_type =
          static_cast<ProjectionOp*>(projection_op.get())->output_type();
    }

    // Context window operator.
    std::unique_ptr<Operator> cw_op;
    {
      std::string description;
      for (size_t i = 0; i < query.contexts.size(); ++i) {
        if (i > 0) description += ", ";
        description += query.contexts[i];
      }
      cw_op = std::make_unique<ContextWindowOp>(compiled.contexts, description,
                                                compiled.anchors);
    }

    // Context action operators (Table 1).
    std::vector<std::unique_ptr<Operator>> action_ops;
    if (query.action != ContextAction::kNone) {
      int target = model_.ContextIndex(query.target_context);
      switch (query.action) {
        case ContextAction::kInitiate:
          action_ops.push_back(std::make_unique<ContextInitOp>(
              target, query.target_context));
          break;
        case ContextAction::kTerminate:
          action_ops.push_back(std::make_unique<ContextTermOp>(
              target, query.target_context));
          break;
        case ContextAction::kSwitch:
          // SWITCH CONTEXT c -> CI_c, CT_curr for each current context.
          action_ops.push_back(std::make_unique<ContextInitOp>(
              target, query.target_context));
          for (size_t i = 0; i < compiled.contexts.size(); ++i) {
            if (compiled.contexts[i] != target) {
              action_ops.push_back(std::make_unique<ContextTermOp>(
                  compiled.contexts[i], query.contexts[i]));
            }
          }
          break;
        case ContextAction::kNone:
          break;
      }
    }

    // Assemble the chain. Non-optimized order (Fig. 6a): pattern, filter,
    // context window, projection, actions. Push-down moves CW to the bottom.
    std::vector<std::shared_ptr<const Operator>> body;
    body.push_back(std::move(source_op));
    if (filter_op != nullptr) body.push_back(std::move(filter_op));
    int cw_position;  // index within `body` after insertion
    if (options_.force_cw_position >= 0) {
      cw_position = std::min<int>(options_.force_cw_position,
                                  static_cast<int>(body.size()));
    } else if (options_.push_down_context_windows) {
      cw_position = 0;
    } else {
      cw_position = static_cast<int>(body.size());  // above pattern+filter
    }
    body.insert(body.begin() + cw_position, std::move(cw_op));
    if (projection_op != nullptr) body.push_back(std::move(projection_op));
    for (auto& op : action_ops) body.push_back(std::move(op));
    compiled.chain.ops = std::move(body);
    return compiled;
  }

 private:
  // Event matching E(): stateless pattern op; predicates stay in the
  // filter above.
  Status BuildEventMatch(const Query& query, const ResolvedPattern& resolved,
                         const std::string& label,
                         std::unique_ptr<Operator>* source_op,
                         BindingSet* post_bindings) {
    (void)query;
    (void)label;
    auto config = std::make_shared<PatternOpConfig>();
    PatternOpConfig::Position position;
    position.type_id = resolved.item_types[0];
    config->positions.push_back(std::move(position));
    config->output_type = resolved.item_types[0];
    config->description = registry_->type(resolved.item_types[0]).name;
    *source_op = std::make_unique<PatternOp>(std::move(config));
    post_bindings->Add(resolved.bindings.var(0));
    return Status::Ok();
  }

  // SEQ pattern: builds the pattern configuration (with negation/pushed
  // predicates) and compiles it to the automaton that executes it, plus the
  // composite output type and the residual WHERE.
  Status BuildSeq(const Query& query, const ResolvedPattern& resolved,
                  const std::string& label,
                  std::unique_ptr<Operator>* source_op,
                  BindingSet* post_bindings, ExprPtr* post_where) {
    const PatternSpec& pattern = *query.pattern;
    auto config = std::make_shared<PatternOpConfig>();
    config->within =
        pattern.within > 0 ? pattern.within : options_.default_within;
    config->description = pattern.ToString();
    for (size_t i = 0; i < pattern.items.size(); ++i) {
      PatternOpConfig::Position position;
      position.type_id = resolved.item_types[i];
      position.negated = pattern.items[i].negated;
      config->positions.push_back(std::move(position));
    }

    // Composite output type: attributes "<var>.<attr>" of positive items.
    std::vector<Attribute> attributes;
    for (int item = 0; item < resolved.bindings.size(); ++item) {
      if (resolved.negated[item]) continue;
      const Schema& schema = *resolved.bindings.var(item).schema;
      for (const Attribute& attr : schema.attributes()) {
        attributes.push_back(
            {resolved.var_names[item] + "." + attr.name, attr.type});
      }
    }
    CAESAR_ASSIGN_OR_RETURN(
        config->output_type,
        RegisterDerivedType(registry_, "$match_" + label,
                            std::move(attributes), label));
    post_bindings->Add(
        {"", config->output_type,
         &registry_->type(config->output_type).schema});

    // Place WHERE conjuncts: negation conditions always live in the
    // matcher, guards only when predicates are pushed into the pattern.
    ExprPtr residual;
    for (const ExprPtr& conjunct : SplitConjuncts(query.where)) {
      CAESAR_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledExpr> compiled,
                              CompileShared(conjunct, resolved.bindings));
      ConjunctPlacement placement = PlaceConjunct(*compiled, pattern);
      using Kind = ConjunctPlacement::Kind;
      if (placement.kind == Kind::kMultiNegated) {
        return Status::Unimplemented(
            label + ": predicate spans multiple negated variables: " +
            conjunct->ToString());
      }
      if (placement.kind == Kind::kNegation ||
          (placement.kind == Kind::kGuard &&
           options_.push_predicates_into_pattern)) {
        config->positions[placement.position].predicates.push_back(
            std::move(compiled));
        continue;
      }
      residual = MakeConjunction(residual, conjunct);
    }
    if (residual != nullptr) {
      CAESAR_ASSIGN_OR_RETURN(*post_where,
                              RewriteForComposite(residual, resolved));
    }
    *source_op = std::make_unique<CompiledPatternOp>(
        CompilePattern(std::move(config), options_.absint));
    return Status::Ok();
  }

  // Aggregate pattern: builds the aggregate operator and its output type.
  Status BuildAggregate(const Query& query, const ResolvedPattern& resolved,
                        const std::string& label,
                        std::unique_ptr<Operator>* source_op,
                        BindingSet* post_bindings) {
    const PatternSpec& pattern = *query.pattern;
    const Schema& input_schema = *resolved.bindings.var(0).schema;

    auto config = std::make_shared<AggregateOpConfig>();
    config->input_type = resolved.item_types[0];
    config->window_length = pattern.window_length;
    config->description = pattern.ToString();

    AggregateTyping typing = TypeAggregate(pattern, input_schema, label);
    if (!typing.problems.empty()) {
      return Status::InvalidArgument(typing.problems.front());
    }
    config->group_by = std::move(typing.group_by);
    for (size_t i = 0; i < pattern.aggregates.size(); ++i) {
      config->aggregates.push_back(
          {pattern.aggregates[i].func, typing.arguments[i]});
    }
    CAESAR_ASSIGN_OR_RETURN(
        config->output_type,
        RegisterDerivedType(registry_, "$agg_" + label,
                            std::move(typing.output), label));
    const Schema* out_schema = &registry_->type(config->output_type).schema;
    post_bindings->Add(
        {resolved.var_names[0], config->output_type, out_schema});

    if (pattern.having != nullptr) {
      CAESAR_ASSIGN_OR_RETURN(config->having,
                              CompileShared(pattern.having, *post_bindings));
    }
    *source_op = std::make_unique<AggregateOp>(std::move(config));
    return Status::Ok();
  }

  // `derive` carries the (possibly composite-rewritten) argument
  // expressions; `original` names the derived attributes, so they keep
  // their user-visible names.
  Result<std::unique_ptr<Operator>> BuildProjection(
      const DeriveSpec& derive, const DeriveSpec& original,
      const BindingSet& bindings, const std::string& label) {
    std::vector<std::string> names = DerivedAttributeNames(original);
    std::vector<std::shared_ptr<const CompiledExpr>> args;
    std::vector<Attribute> attributes;
    for (size_t i = 0; i < derive.args.size(); ++i) {
      CAESAR_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledExpr> compiled,
                              CompileShared(derive.args[i], bindings));
      attributes.push_back({std::move(names[i]), compiled->result_type()});
      args.push_back(std::move(compiled));
    }
    CAESAR_ASSIGN_OR_RETURN(
        TypeId output_type,
        RegisterDerivedType(registry_, derive.event_type,
                            std::move(attributes), label));
    return std::unique_ptr<Operator>(std::make_unique<ProjectionOp>(
        output_type, std::move(args), derive.ToString()));
  }

  // Compiles against `bindings`; for composite bindings qualified refs are
  // rewritten to "var.attr" bare references first.
  Result<std::shared_ptr<const CompiledExpr>> CompileShared(
      const ExprPtr& expr, const BindingSet& bindings) {
    CAESAR_ASSIGN_OR_RETURN(std::unique_ptr<CompiledExpr> compiled,
                            Compile(expr, bindings));
    return std::shared_ptr<const CompiledExpr>(std::move(compiled));
  }

  const CaesarModel& model_;
  const PlanOptions& options_;
  TypeRegistry* registry_;
};

// Topologically sorts queries by produced/consumed types. Queries only
// depend on queries in `producers` (mapping type -> producer position).
Result<std::vector<CompiledQuery>> TopoSort(
    std::vector<CompiledQuery> queries, const std::string& phase) {
  std::map<TypeId, std::vector<size_t>> producers;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].output_type != kInvalidTypeId) {
      producers[queries[i].output_type].push_back(i);
    }
  }
  // Kahn's algorithm.
  std::vector<std::set<size_t>> deps(queries.size());
  std::vector<std::vector<size_t>> dependents(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    for (TypeId input : queries[i].input_types) {
      auto it = producers.find(input);
      if (it == producers.end()) continue;
      for (size_t p : it->second) {
        if (p == i) continue;  // self-recursion is allowed (ignored)
        if (deps[i].insert(p).second) dependents[p].push_back(i);
      }
    }
  }
  std::vector<size_t> ready;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (deps[i].empty()) ready.push_back(i);
  }
  std::vector<CompiledQuery> sorted;
  sorted.reserve(queries.size());
  std::vector<bool> done(queries.size(), false);
  size_t cursor = 0;
  while (cursor < ready.size()) {
    size_t i = ready[cursor++];
    done[i] = true;
    sorted.push_back(std::move(queries[i]));
    for (size_t dependent : dependents[i]) {
      deps[dependent].erase(i);
      if (deps[dependent].empty() && !done[dependent]) {
        ready.push_back(dependent);
      }
    }
  }
  if (sorted.size() != queries.size()) {
    return Status::FailedPrecondition("cyclic type dependency among " + phase +
                                      " queries");
  }
  return sorted;
}

}  // namespace

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

AggregateTyping TypeAggregate(const PatternSpec& pattern, const Schema& input,
                              const std::string& label) {
  AggregateTyping typing;
  const std::string prefix = "query '" + label + "': ";
  for (const std::string& name : pattern.group_by) {
    int index = input.IndexOf(name);
    if (index < 0) {
      typing.problems.push_back(prefix + "unknown group-by attribute " + name);
      continue;
    }
    typing.group_by.push_back(index);
    typing.output.push_back(input.attribute(index));
  }
  for (const AggregateSpec& agg : pattern.aggregates) {
    int index = -1;
    if (agg.attribute.empty()) {
      if (agg.func != AggregateFunc::kCount) {
        typing.problems.push_back(
            prefix + "only COUNT may omit its attribute (" +
            AggregateFuncName(agg.func) + " AS " + agg.name + ")");
      }
    } else {
      index = input.IndexOf(agg.attribute);
      if (index < 0) {
        typing.problems.push_back(prefix + "unknown aggregate attribute " +
                                  agg.attribute);
        continue;
      }
    }
    typing.arguments.push_back(index);
    typing.output.push_back({agg.name, agg.func == AggregateFunc::kCount
                                           ? ValueType::kInt
                                           : ValueType::kDouble});
  }
  std::set<std::string> names;
  for (const Attribute& attribute : typing.output) {
    if (!names.insert(attribute.name).second) {
      typing.problems.push_back(prefix + "aggregate output attribute " +
                                attribute.name + " is defined twice");
    }
  }
  return typing;
}

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

Result<ExecutablePlan> TranslateModel(const CaesarModel& model,
                                      const PlanOptions& options) {
  CAESAR_RETURN_IF_ERROR(model.CheckStructure());
  ExecutablePlan plan;
  plan.registry = model.registry();
  plan.num_contexts = model.num_contexts();
  plan.default_context = model.ContextIndex(model.default_context());
  for (const ContextType& context : model.contexts()) {
    plan.context_names.push_back(context.name);
  }
  plan.partition_by = model.partition_by();

  QueryTranslator translator(model, options);
  std::vector<CompiledQuery> deriving;
  std::vector<CompiledQuery> processing;
  // Queries may reference event types another query derives further down
  // the model ("forward references"); the derived type only becomes known
  // once its producer translates. Retry NotFound failures as long as a pass
  // makes progress.
  std::vector<int> pending;
  for (int qi = 0; qi < model.num_queries(); ++qi) pending.push_back(qi);
  while (!pending.empty()) {
    std::vector<int> failed;
    Status first_error;
    for (int qi : pending) {
      Result<CompiledQuery> compiled = translator.Translate(qi);
      if (!compiled.ok()) {
        if (compiled.status().code() != StatusCode::kNotFound) {
          return compiled.status();
        }
        if (first_error.ok()) first_error = compiled.status();
        failed.push_back(qi);
        continue;
      }
      if (compiled.value().deriving) {
        deriving.push_back(std::move(compiled).value());
      } else {
        processing.push_back(std::move(compiled).value());
      }
    }
    if (failed.size() == pending.size()) return first_error;  // no progress
    pending = std::move(failed);
  }

  // Deriving queries must not consume types produced by processing queries
  // (the scheduler runs derivation strictly before processing).
  {
    std::set<TypeId> processing_outputs;
    for (const CompiledQuery& query : processing) {
      if (query.output_type != kInvalidTypeId) {
        processing_outputs.insert(query.output_type);
      }
    }
    for (const CompiledQuery& query : deriving) {
      for (TypeId input : query.input_types) {
        if (processing_outputs.count(input) > 0) {
          return Status::FailedPrecondition(
              query.name +
              ": context deriving query consumes a type produced by a "
              "context processing query");
        }
      }
    }
  }

  CAESAR_ASSIGN_OR_RETURN(plan.deriving,
                          TopoSort(std::move(deriving), "deriving"));
  CAESAR_ASSIGN_OR_RETURN(plan.processing,
                          TopoSort(std::move(processing), "processing"));

  if (options.context_independent) {
    // Baseline: no shared context derivation. Every query re-derives its
    // contexts through private guard chains; context actions of the guards
    // update the query-private vector the chain's CW reads. The deriving
    // queries' event-derivation output is still needed globally (complex
    // events feeding other queries), so deriving chains stay, but their
    // actions now only affect per-query private state as well.
    //
    // Guard set for query Q: the chains of every deriving query that opens
    // or closes one of Q's contexts, i.e. the queries that define Q's
    // window bounds.
    std::vector<const CompiledQuery*> all;
    for (const CompiledQuery& query : plan.deriving) all.push_back(&query);
    auto attach_guards = [&](CompiledQuery* query) {
      for (const CompiledQuery* candidate : all) {
        if (candidate->query_index == query->query_index) continue;
        const Query& model_query = model.query(candidate->query_index);
        bool relevant = std::any_of(
            query->contexts.begin(), query->contexts.end(), [&](int c) {
              const std::string& name = model.context(c).name;
              return model_query.Opens(name) || model_query.Closes(name);
            });
        if (relevant) query->guards.push_back(candidate->chain);
      }
    };
    for (CompiledQuery& query : plan.processing) attach_guards(&query);
    for (CompiledQuery& query : plan.deriving) attach_guards(&query);
  }

  return plan;
}

}  // namespace caesar
