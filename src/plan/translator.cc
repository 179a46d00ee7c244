#include "plan/translator.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/aggregate_op.h"
#include "algebra/basic_ops.h"
#include "algebra/context_ops.h"
#include "algebra/pattern_op.h"
#include "compile/compiled_pattern_op.h"
#include "compile/compiler.h"
#include "plan/typing.h"

namespace caesar {

namespace {

// Builds each typed query's operator chain (Table 1), registering the
// derived and composite event types it produces.
class QueryBuilder {
 public:
  QueryBuilder(const CaesarModel& model, const ModelTyping& typing,
               const PlanOptions& options)
      : model_(model),
        typing_(typing),
        options_(options),
        registry_(model.registry()) {}

  CompiledQuery Build(int qi) {
    const Query& query = model_.query(qi);
    const TypedQuery& typed = typing_.queries[qi];

    CompiledQuery compiled;
    compiled.query_index = qi;
    compiled.name = typed.label;
    compiled.deriving = query.IsContextDeriving();
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

    // Every input type is registered: its producer resolved first.
    const PatternSpec& pattern = *query.pattern;
    const TypeId input = registry_->Lookup(pattern.items[0].event_type);

    // The pattern/aggregate operator, and the WHERE part evaluated above it
    // (an event match's or aggregate's whole WHERE; a SEQ's residual).
    std::unique_ptr<Operator> source_op;
    SharedExpr filter = typed.where;
    switch (pattern.kind) {
      case PatternSpec::Kind::kEvent: {
        // Event matching E(): stateless; WHERE stays in the filter above.
        auto config = std::make_shared<PatternOpConfig>();
        config->positions.resize(1);
        config->positions[0].type_id = input;
        config->output_type = input;
        config->description = pattern.items[0].event_type;
        source_op = std::make_unique<PatternOp>(std::move(config));
        break;
      }
      case PatternSpec::Kind::kSeq:
        source_op = BuildSeq(pattern, typed, &filter);
        break;
      case PatternSpec::Kind::kAggregate:
        source_op = BuildAggregate(pattern, typed, input);
        break;
    }

    // The chain. Non-optimized order (Fig. 6a): pattern, filter, context
    // window, projection, actions. Push-down moves CW to the bottom.
    std::vector<std::shared_ptr<const Operator>>& body = compiled.chain.ops;
    body.push_back(std::move(source_op));
    if (filter != nullptr) body.push_back(std::make_shared<FilterOp>(filter));
    int cw_position = static_cast<int>(body.size());  // above pattern+filter
    if (options_.force_cw_position >= 0) {
      cw_position = std::min(options_.force_cw_position, cw_position);
    } else if (options_.push_down_context_windows) {
      cw_position = 0;
    }
    std::string gates;
    for (const std::string& context : query.contexts) {
      if (!gates.empty()) gates += ", ";
      gates += context;
    }
    body.insert(body.begin() + cw_position,
                std::make_shared<ContextWindowOp>(compiled.contexts, gates,
                                                  compiled.anchors));

    // Projection (DERIVE clause).
    if (query.derive.has_value()) {
      compiled.output_type = registry_->RegisterOrGet(
          typed.derive.event_type, typed.derived->attributes());
      body.push_back(std::make_shared<ProjectionOp>(
          compiled.output_type, typed.derive_args, typed.derive.ToString()));
    }

    // Context action operators (Table 1): SWITCH CONTEXT c is CI_c plus
    // CT_curr for each current context.
    const int target = model_.ContextIndex(query.target_context);
    if (query.action == ContextAction::kInitiate ||
        query.action == ContextAction::kSwitch) {
      body.push_back(
          std::make_shared<ContextInitOp>(target, query.target_context));
    }
    if (query.action == ContextAction::kTerminate) {
      body.push_back(
          std::make_shared<ContextTermOp>(target, query.target_context));
    }
    if (query.action == ContextAction::kSwitch) {
      for (size_t i = 0; i < compiled.contexts.size(); ++i) {
        if (compiled.contexts[i] == target) continue;
        body.push_back(std::make_shared<ContextTermOp>(compiled.contexts[i],
                                                       query.contexts[i]));
      }
    }
    return compiled;
  }

 private:
  // SEQ pattern: the pattern configuration with its negation conditions
  // and (when pushed) guards, compiled to the automaton that executes it.
  // The conjuncts left over are evaluated above the pattern, against the
  // composite match.
  std::unique_ptr<Operator> BuildSeq(const PatternSpec& pattern,
                                     const TypedQuery& typed,
                                     SharedExpr* filter) {
    auto config = std::make_shared<PatternOpConfig>();
    config->within =
        pattern.within > 0 ? pattern.within : options_.default_within;
    config->description = pattern.ToString();
    config->positions.resize(pattern.items.size());
    for (size_t i = 0; i < pattern.items.size(); ++i) {
      config->positions[i].type_id =
          registry_->Lookup(pattern.items[i].event_type);
      config->positions[i].negated = pattern.items[i].negated;
    }
    config->output_type = registry_->RegisterOrGet(
        "$match_" + typed.label, typed.pattern_schema->attributes());

    ExprPtr residual;
    for (const TypedConjunct& conjunct : typed.conjuncts) {
      using Kind = ConjunctPlacement::Kind;
      if (conjunct.placement.kind == Kind::kNegation ||
          (conjunct.placement.kind == Kind::kGuard &&
           options_.push_predicates_into_pattern)) {
        config->positions[conjunct.placement.position].predicates.push_back(
            conjunct.compiled);
        continue;
      }
      residual = MakeConjunction(residual, conjunct.compiled->source());
    }
    *filter = residual == nullptr ? nullptr
                                  : CompileForComposite(residual, typed);
    return std::make_unique<CompiledPatternOp>(
        CompilePattern(std::move(config), options_.absint));
  }

  // Aggregate pattern: the aggregate operator and its output type.
  std::unique_ptr<Operator> BuildAggregate(const PatternSpec& pattern,
                                           const TypedQuery& typed,
                                           TypeId input_type) {
    auto config = std::make_shared<AggregateOpConfig>();
    config->input_type = input_type;
    config->window_length = pattern.window_length;
    config->description = pattern.ToString();
    config->group_by = typed.group_by;
    for (size_t i = 0; i < pattern.aggregates.size(); ++i) {
      config->aggregates.push_back(
          {pattern.aggregates[i].func, typed.aggregate_inputs[i]});
    }
    config->output_type = registry_->RegisterOrGet(
        "$agg_" + typed.label, typed.pattern_schema->attributes());
    config->having = typed.having;
    return std::make_unique<AggregateOp>(std::move(config));
  }

  const CaesarModel& model_;
  const ModelTyping& typing_;
  const PlanOptions& options_;
  TypeRegistry* registry_;
};

}  // namespace

Result<ExecutablePlan> TranslateModel(const CaesarModel& model,
                                      const PlanOptions& options) {
  return TranslateModel(model, TypeModel(model), options);
}

Result<ExecutablePlan> TranslateModel(const CaesarModel& model,
                                      const ModelTyping& typing,
                                      const PlanOptions& options) {
  CAESAR_RETURN_IF_ERROR(model.CheckStructure());
  if (!typing.diagnostics.empty()) {
    return Status::FailedPrecondition(
        FormatDiagnostic(typing.diagnostics.front()));
  }

  ExecutablePlan plan;
  plan.registry = model.registry();
  plan.num_contexts = model.num_contexts();
  plan.default_context = model.ContextIndex(model.default_context());
  for (const ContextType& context : model.contexts()) {
    plan.context_names.push_back(context.name);
  }
  plan.partition_by = model.partition_by();

  // Types register in resolution order; chains run in each phase's order.
  QueryBuilder builder(model, typing, options);
  std::vector<CompiledQuery> built(model.num_queries());
  for (int qi : typing.resolution_order) built[qi] = builder.Build(qi);
  for (int qi : typing.deriving) plan.deriving.push_back(std::move(built[qi]));
  for (int qi : typing.processing) {
    plan.processing.push_back(std::move(built[qi]));
  }

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
    auto attach_guards = [&](CompiledQuery* query) {
      for (const CompiledQuery& candidate : plan.deriving) {
        if (candidate.query_index == query->query_index) continue;
        const Query& model_query = model.query(candidate.query_index);
        bool relevant = std::any_of(
            query->contexts.begin(), query->contexts.end(), [&](int c) {
              const std::string& name = model.context(c).name;
              return model_query.Opens(name) || model_query.Closes(name);
            });
        if (relevant) query->guards.push_back(candidate.chain);
      }
    };
    for (CompiledQuery& query : plan.processing) attach_guards(&query);
    for (CompiledQuery& query : plan.deriving) attach_guards(&query);
  }

  return plan;
}

}  // namespace caesar
