#include "oracle/oracle.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "event/schema.h"
#include "event/value.h"
#include "expr/analysis.h"
#include "expr/compiled.h"
#include "runtime/context_vector.h"

namespace caesar {
namespace {

// ---------------------------------------------------------------------------
// Static per-query description, resolved once per model.

struct OracleConjunct {
  std::unique_ptr<CompiledExpr> expr;
  // Pattern position of the (single) negated variable the conjunct
  // references, or -1 for an ordinary match condition. Mirrors the
  // translator's conjunct classification: negation conditions are evaluated
  // against negation candidates, everything else against the completed
  // match (push-down only changes *when* the engine evaluates them, never
  // the final match set).
  int negated_pos = -1;
};

struct OracleAgg {
  AggregateFunc func = AggregateFunc::kCount;
  int attr_index = -1;  // -1 for COUNT
};

struct OracleQuery {
  int model_index = -1;
  std::string label;
  bool deriving = false;

  // Context gate (OR semantics) with history anchors.
  std::vector<int> contexts;
  std::vector<int> anchors;
  uint64_t mask = 0;

  PatternSpec::Kind kind = PatternSpec::Kind::kEvent;
  std::vector<TypeId> item_types;  // one per pattern item
  std::vector<bool> negated;       // parallel to item_types
  std::vector<int> positives;     // item indices of the positive positions
  Timestamp within = 0;            // kSeq: resolved WITHIN bound
  TypeId match_type = kInvalidTypeId;  // kSeq: "$match_<label>" composite

  // kEvent / kSeq, compiled against the per-item bindings.
  std::vector<OracleConjunct> conjuncts;

  // kAggregate.
  std::vector<int> group_by;  // input attribute indices
  std::vector<OracleAgg> aggs;
  Timestamp window_length = 0;
  TypeId agg_type = kInvalidTypeId;               // "$agg_<label>"
  std::unique_ptr<CompiledExpr> having;           // vs the output binding
  std::unique_ptr<CompiledExpr> post_where;       // vs the output binding

  // DERIVE. For kEvent/kSeq the args are compiled against the item
  // bindings (equivalent to the translator's composite rewrite); for
  // kAggregate against the aggregate output binding.
  TypeId output_type = kInvalidTypeId;
  std::vector<std::unique_ptr<CompiledExpr>> derive_args;

  ContextAction action = ContextAction::kNone;
  int target_context = -1;
};

// ---------------------------------------------------------------------------
// Per-(partition, query) dynamic state.

struct AggSample {
  Timestamp time = 0;
  EventPtr event;  // the admitted input event (values re-read naively)
};

struct AggGroup {
  std::vector<Value> key;  // values of the first event that formed the group
  std::vector<AggSample> samples;
};

struct QueryState {
  bool was_active = false;
  uint64_t last_active_bits = 0;
  // kSeq / kEvent: admitted events of the query's item types (time order).
  std::vector<EventPtr> log;
  // kAggregate.
  std::vector<AggGroup> groups;

  void Reset() {
    log.clear();
    groups.clear();
  }
  // The single retention rule: drop everything older than `horizon`.
  // Reproduces partial-match expiry (the first component of any match
  // carries the strictly minimal time), negation-buffer expiry, aggregate
  // eviction, and GC. A group left without samples goes too, as in
  // AggregateOp: the next event of its key starts a new group, keyed by
  // that event's representation.
  void ExpireBefore(Timestamp horizon) {
    std::erase_if(log,
                  [horizon](const EventPtr& e) { return e->time() < horizon; });
    for (AggGroup& group : groups) {
      std::erase_if(group.samples, [horizon](const AggSample& s) {
        return s.time < horizon;
      });
    }
    std::erase_if(groups,
                  [](const AggGroup& group) { return group.samples.empty(); });
  }
};

struct PartitionState {
  ContextBitVector contexts;
  std::vector<QueryState> deriving;    // parallel to Oracle::deriving_
  std::vector<QueryState> processing;  // parallel to Oracle::processing_

  PartitionState(int num_contexts, int default_context, size_t num_deriving,
                 size_t num_processing)
      : contexts(num_contexts, default_context),
        deriving(num_deriving),
        processing(num_processing) {}
};

// ---------------------------------------------------------------------------

// Same mixing as Engine::PartitionKeyOf (runtime/engine.cc); the oracle
// never shards, but it must group events into the same partitions so
// per-partition context state matches.
uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

std::string InferAttrName(const ExprPtr& arg, const std::string& given,
                          int index) {
  if (!given.empty()) return given;
  if (arg->kind() == Expr::Kind::kAttrRef) {
    return static_cast<const AttrRefExpr&>(*arg).attribute();
  }
  return "a" + std::to_string(index);
}

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

// ---------------------------------------------------------------------------
// The interpreter.

class Oracle {
 public:
  Oracle(const CaesarModel& model, OracleOptions options)
      : model_(model), options_(options), registry_(model.registry()) {}

  Status Prepare();
  Result<EventBatch> Run(const EventBatch& input);

 private:
  Result<OracleQuery> ResolveQuery(int qi);
  Status OrderPhase(std::vector<OracleQuery> phase,
                    std::vector<OracleQuery>* sorted, const char* name);

  uint64_t PartitionKeyOf(const Event& event) const;
  PartitionState* GetOrCreatePartition(uint64_t key);

  void ProcessTransaction(PartitionState* partition, Timestamp t,
                          const EventBatch& events, EventBatch* derived);
  void RunQuery(PartitionState* partition, const OracleQuery& oq,
                QueryState* qs, const EventBatch& pool, Timestamp t,
                EventBatch* out);
  void HandleTransitions(PartitionState* partition, const OracleQuery& oq,
                         QueryState* qs);

  // ContextWindowOp semantics: some active gate context admits the event.
  bool WindowAdmits(const PartitionState& partition, const OracleQuery& oq,
                    const Event& event) const;

  void MatchSeq(const PartitionState& partition, const OracleQuery& oq,
                QueryState* qs, Timestamp t, EventBatch* matched);
  bool NegationsClear(const OracleQuery& oq, const QueryState& qs,
                      std::vector<EventPtr>* bound) const;
  void RunAggregate(const PartitionState& partition, const OracleQuery& oq,
                    QueryState* qs, const EventBatch& pool, Timestamp t,
                    EventBatch* matched);

  const CaesarModel& model_;
  OracleOptions options_;
  TypeRegistry* registry_;

  std::vector<OracleQuery> deriving_;
  std::vector<OracleQuery> processing_;
  // partition_by attribute index per type id; -1 = absent.
  std::vector<std::vector<int>> partition_attrs_;

  std::map<uint64_t, std::unique_ptr<PartitionState>> partitions_;
  Timestamp last_gc_ = 0;
};

Status Oracle::Prepare() {
  // Resolve queries in model order — the same order in which the
  // translator's first pass registers derived types — then split into
  // phases and order each phase by type dependencies exactly like
  // plan/translator.cc::TopoSort. (The oracle does not replicate the
  // translator's forward-reference retry: the differential harness always
  // presents models whose producers precede their consumers.)
  std::vector<OracleQuery> deriving;
  std::vector<OracleQuery> processing;
  for (int qi = 0; qi < model_.num_queries(); ++qi) {
    CAESAR_ASSIGN_OR_RETURN(OracleQuery oq, ResolveQuery(qi));
    if (oq.deriving) {
      deriving.push_back(std::move(oq));
    } else {
      processing.push_back(std::move(oq));
    }
  }
  CAESAR_RETURN_IF_ERROR(
      OrderPhase(std::move(deriving), &deriving_, "deriving"));
  CAESAR_RETURN_IF_ERROR(
      OrderPhase(std::move(processing), &processing_, "processing"));
  return Status::Ok();
}

Result<OracleQuery> Oracle::ResolveQuery(int qi) {
  const Query& query = model_.query(qi);
  OracleQuery oq;
  oq.model_index = qi;
  oq.label = query.name.empty() ? "query #" + std::to_string(qi) : query.name;
  oq.deriving = query.IsContextDeriving();
  oq.action = query.action;
  if (query.action != ContextAction::kNone) {
    oq.target_context = model_.ContextIndex(query.target_context);
    if (oq.target_context < 0) {
      return Status::InvalidArgument(oq.label + ": unknown target context " +
                                     query.target_context);
    }
  }
  for (const std::string& context : query.contexts) {
    int id = model_.ContextIndex(context);
    if (id < 0) {
      return Status::InvalidArgument(oq.label + ": unknown context " +
                                     context);
    }
    oq.contexts.push_back(id);
    oq.mask |= uint64_t{1} << id;
  }
  if (query.context_anchors.empty()) {
    oq.anchors = oq.contexts;
  } else {
    for (const std::string& anchor : query.context_anchors) {
      int id = model_.ContextIndex(anchor);
      if (id < 0) {
        return Status::InvalidArgument(oq.label + ": unknown anchor context " +
                                       anchor);
      }
      oq.anchors.push_back(id);
    }
  }

  if (!query.pattern.has_value()) {
    return Status::InvalidArgument(oq.label + ": query without a pattern");
  }
  const PatternSpec& pattern = *query.pattern;
  oq.kind = pattern.kind;

  // Resolve the pattern items into a binding set (anonymous variables get
  // the translator's "_<i>" names so bare-attribute resolution agrees).
  BindingSet bindings;
  std::vector<std::string> var_names;
  for (size_t i = 0; i < pattern.items.size(); ++i) {
    const PatternItem& item = pattern.items[i];
    TypeId type_id = registry_->Lookup(item.event_type);
    if (type_id == kInvalidTypeId) {
      return Status::NotFound(oq.label + ": unknown event type " +
                              item.event_type);
    }
    oq.item_types.push_back(type_id);
    oq.negated.push_back(item.negated);
    if (!item.negated) oq.positives.push_back(static_cast<int>(i));
    std::string var =
        item.variable.empty() ? "_" + std::to_string(i) : item.variable;
    var_names.push_back(var);
    bindings.Add({var, type_id, &registry_->type(type_id).schema});
  }

  switch (pattern.kind) {
    case PatternSpec::Kind::kEvent: {
      // Whole WHERE as one match condition over the single binding.
      if (query.where != nullptr) {
        CAESAR_ASSIGN_OR_RETURN(std::unique_ptr<CompiledExpr> compiled,
                                Compile(query.where, bindings));
        OracleConjunct conjunct;
        conjunct.expr = std::move(compiled);
        oq.conjuncts.push_back(std::move(conjunct));
      }
      break;
    }
    case PatternSpec::Kind::kSeq: {
      if (pattern.items.back().negated) {
        return Status::Unimplemented(oq.label +
                                     ": trailing NOT is not supported");
      }
      oq.within =
          pattern.within > 0 ? pattern.within : options_.default_within;
      // Register the composite type exactly like the translator so the
      // shared registry ends up with identical ids either way.
      std::vector<Attribute> attributes;
      for (int item : oq.positives) {
        const Schema& schema = registry_->type(oq.item_types[item]).schema;
        for (const Attribute& attr : schema.attributes()) {
          attributes.push_back({var_names[item] + "." + attr.name, attr.type});
        }
      }
      CAESAR_ASSIGN_OR_RETURN(
          oq.match_type,
          RegisterDerivedType(registry_, "$match_" + oq.label,
                              std::move(attributes), oq.label));
      // Classify conjuncts: negation conditions vs match conditions.
      for (const ExprPtr& conjunct : SplitConjuncts(query.where)) {
        CAESAR_ASSIGN_OR_RETURN(std::unique_ptr<CompiledExpr> compiled,
                                Compile(conjunct, bindings));
        int negated_ref = -1;
        for (int var : compiled->referenced_vars()) {
          if (oq.negated[var]) {
            if (negated_ref >= 0 && negated_ref != var) {
              return Status::Unimplemented(
                  oq.label + ": predicate spans multiple negated variables: " +
                  conjunct->ToString());
            }
            negated_ref = var;
          }
        }
        OracleConjunct oc;
        oc.expr = std::move(compiled);
        oc.negated_pos = negated_ref;
        oq.conjuncts.push_back(std::move(oc));
      }
      break;
    }
    case PatternSpec::Kind::kAggregate: {
      const Schema& input_schema =
          registry_->type(oq.item_types[0]).schema;
      oq.window_length = pattern.window_length > 0 ? pattern.window_length : 1;
      std::vector<Attribute> out_attrs;
      for (const std::string& attr_name : pattern.group_by) {
        int index = input_schema.IndexOf(attr_name);
        if (index < 0) {
          return Status::InvalidArgument(
              oq.label + ": unknown group-by attribute " + attr_name);
        }
        oq.group_by.push_back(index);
        out_attrs.push_back({attr_name, input_schema.attribute(index).type});
      }
      for (const AggregateSpec& agg : pattern.aggregates) {
        OracleAgg oa;
        oa.func = agg.func;
        if (!agg.attribute.empty()) {
          oa.attr_index = input_schema.IndexOf(agg.attribute);
          if (oa.attr_index < 0) {
            return Status::InvalidArgument(
                oq.label + ": unknown aggregate attribute " + agg.attribute);
          }
        } else if (agg.func != AggregateFunc::kCount) {
          return Status::InvalidArgument(
              oq.label + ": only COUNT may omit its attribute");
        }
        oq.aggs.push_back(oa);
        out_attrs.push_back({agg.name, agg.func == AggregateFunc::kCount
                                           ? ValueType::kInt
                                           : ValueType::kDouble});
      }
      CAESAR_ASSIGN_OR_RETURN(
          oq.agg_type, RegisterDerivedType(registry_, "$agg_" + oq.label,
                                           std::move(out_attrs), oq.label));
      BindingSet post_bindings;
      post_bindings.Add({var_names[0], oq.agg_type,
                         &registry_->type(oq.agg_type).schema});
      if (pattern.having != nullptr) {
        CAESAR_ASSIGN_OR_RETURN(oq.having,
                                Compile(pattern.having, post_bindings));
      }
      if (query.where != nullptr) {
        CAESAR_ASSIGN_OR_RETURN(oq.post_where,
                                Compile(query.where, post_bindings));
      }
      break;
    }
  }

  // DERIVE clause: infer the output schema with the translator's rules and
  // compile the argument expressions.
  if (query.derive.has_value()) {
    const DeriveSpec& derive = *query.derive;
    const BindingSet* arg_bindings = &bindings;
    BindingSet post_bindings;
    if (pattern.kind == PatternSpec::Kind::kAggregate) {
      post_bindings.Add({var_names[0], oq.agg_type,
                         &registry_->type(oq.agg_type).schema});
      arg_bindings = &post_bindings;
    }
    std::vector<Attribute> attributes;
    for (size_t i = 0; i < derive.args.size(); ++i) {
      CAESAR_ASSIGN_OR_RETURN(std::unique_ptr<CompiledExpr> compiled,
                              Compile(derive.args[i], *arg_bindings));
      if (pattern.kind == PatternSpec::Kind::kSeq) {
        for (int var : compiled->referenced_vars()) {
          if (oq.negated[var]) {
            return Status::InvalidArgument(
                oq.label + ": DERIVE references negated variable " +
                var_names[var]);
          }
        }
      }
      std::string name = InferAttrName(
          derive.args[i],
          i < derive.attr_names.size() ? derive.attr_names[i] : "",
          static_cast<int>(i));
      attributes.push_back({name, compiled->result_type()});
      oq.derive_args.push_back(std::move(compiled));
    }
    std::set<std::string> seen;
    for (size_t i = 0; i < attributes.size(); ++i) {
      while (seen.count(attributes[i].name) > 0) {
        attributes[i].name += "_" + std::to_string(i);
      }
      seen.insert(attributes[i].name);
    }
    CAESAR_ASSIGN_OR_RETURN(
        oq.output_type, RegisterDerivedType(registry_, derive.event_type,
                                            std::move(attributes), oq.label));
  }
  return oq;
}

Status Oracle::OrderPhase(std::vector<OracleQuery> phase,
                          std::vector<OracleQuery>* sorted,
                          const char* name) {
  // Kahn's algorithm with the exact tie-breaks of plan/translator.cc.
  std::map<TypeId, std::vector<size_t>> producers;
  for (size_t i = 0; i < phase.size(); ++i) {
    if (phase[i].output_type != kInvalidTypeId) {
      producers[phase[i].output_type].push_back(i);
    }
  }
  std::vector<std::set<size_t>> deps(phase.size());
  std::vector<std::vector<size_t>> dependents(phase.size());
  for (size_t i = 0; i < phase.size(); ++i) {
    for (TypeId input : phase[i].item_types) {
      auto it = producers.find(input);
      if (it == producers.end()) continue;
      for (size_t p : it->second) {
        if (p == i) continue;
        if (deps[i].insert(p).second) dependents[p].push_back(i);
      }
    }
  }
  std::vector<size_t> ready;
  for (size_t i = 0; i < phase.size(); ++i) {
    if (deps[i].empty()) ready.push_back(i);
  }
  std::vector<bool> done(phase.size(), false);
  size_t cursor = 0;
  while (cursor < ready.size()) {
    size_t i = ready[cursor++];
    done[i] = true;
    sorted->push_back(std::move(phase[i]));
    for (size_t dependent : dependents[i]) {
      deps[dependent].erase(i);
      if (deps[dependent].empty() && !done[dependent]) {
        ready.push_back(dependent);
      }
    }
  }
  if (sorted->size() != phase.size()) {
    return Status::FailedPrecondition(
        std::string("cyclic type dependency among ") + name + " queries");
  }
  return Status::Ok();
}

uint64_t Oracle::PartitionKeyOf(const Event& event) const {
  if (model_.partition_by().empty()) return 0;
  TypeId type_id = event.type_id();
  if (type_id >= static_cast<TypeId>(partition_attrs_.size())) return 0;
  uint64_t key = 0x12345678;
  for (int index : partition_attrs_[type_id]) {
    if (index < 0) continue;
    key = HashCombine(key, event.value(index).Hash());
  }
  return key;
}

PartitionState* Oracle::GetOrCreatePartition(uint64_t key) {
  auto it = partitions_.find(key);
  if (it != partitions_.end()) return it->second.get();
  auto partition = std::make_unique<PartitionState>(
      model_.num_contexts(), model_.ContextIndex(model_.default_context()),
      deriving_.size(), processing_.size());
  PartitionState* raw = partition.get();
  partitions_.emplace(key, std::move(partition));
  return raw;
}

bool Oracle::WindowAdmits(const PartitionState& partition,
                          const OracleQuery& oq, const Event& event) const {
  for (size_t i = 0; i < oq.contexts.size(); ++i) {
    if (!partition.contexts.IsActive(oq.contexts[i])) continue;
    if (options_.bug_ignore_window_start) return true;
    if (event.start_time() >=
        partition.contexts.ActiveSince(oq.anchors[i])) {
      return true;
    }
  }
  return false;
}

void Oracle::HandleTransitions(PartitionState* partition,
                               const OracleQuery& oq, QueryState* qs) {
  uint64_t active_bits = partition->contexts.bits() & oq.mask;
  bool active_now = active_bits != 0;
  if (qs->was_active && !active_now) {
    qs->Reset();
  } else if (qs->was_active && active_now &&
             active_bits != qs->last_active_bits) {
    // Composition change while active: state survives back to the oldest
    // still-active window's (anchor's) activation.
    Timestamp horizon = partition->contexts.time();
    for (size_t i = 0; i < oq.contexts.size(); ++i) {
      if (partition->contexts.IsActive(oq.contexts[i])) {
        horizon = std::min(horizon,
                           partition->contexts.ActiveSince(oq.anchors[i]));
      }
    }
    qs->ExpireBefore(horizon);
  } else if (!qs->was_active && active_now) {
    qs->Reset();
  }
  qs->was_active = active_now;
  qs->last_active_bits = active_bits;
}

bool Oracle::NegationsClear(const OracleQuery& oq, const QueryState& qs,
                            std::vector<EventPtr>* bound) const {
  if (options_.bug_skip_negation) return true;
  int num_items = static_cast<int>(oq.item_types.size());
  for (int n = 0; n < num_items; ++n) {
    if (!oq.negated[n]) continue;
    int prev = -1, next = -1;
    for (int i = n - 1; i >= 0; --i) {
      if (!oq.negated[i]) {
        prev = i;
        break;
      }
    }
    for (int i = n + 1; i < num_items; ++i) {
      if (!oq.negated[i]) {
        next = i;
        break;
      }
    }
    CAESAR_CHECK_GE(next, 0);  // trailing NOT rejected at resolve time
    Timestamp hi = (*bound)[next]->time();
    bool closed_lo = prev < 0;
    Timestamp lo = prev >= 0 ? (*bound)[prev]->time() : hi - oq.within;
    bool blocked = false;
    for (const EventPtr& candidate : qs.log) {
      if (candidate->time() >= hi) break;  // log is time-ordered
      if (candidate->type_id() != oq.item_types[n]) continue;
      if (closed_lo ? candidate->time() < lo : candidate->time() <= lo) {
        continue;
      }
      (*bound)[n] = candidate;
      bool all_pass = true;
      for (const OracleConjunct& conjunct : oq.conjuncts) {
        if (conjunct.negated_pos != n) continue;
        if (!conjunct.expr->EvalBool(bound->data())) {
          all_pass = false;
          break;
        }
      }
      if (all_pass) {
        blocked = true;
        break;
      }
    }
    (*bound)[n] = nullptr;
    if (blocked) return false;
  }
  return true;
}

void Oracle::MatchSeq(const PartitionState& partition, const OracleQuery& oq,
                      QueryState* qs, Timestamp t, EventBatch* matched) {
  (void)partition;
  // Brute-force subsequence enumeration over the admitted-event log:
  // strictly increasing times, the final component at the current tick,
  // total span bounded by WITHIN, all match conditions evaluated on the
  // complete assignment, then the negation check.
  int k = static_cast<int>(oq.positives.size());
  std::vector<EventPtr> bound(oq.item_types.size());
  std::vector<int> choice(k, -1);  // index into qs->log per positive
  int depth = 0;
  int cursor = 0;
  while (depth >= 0) {
    if (depth == k) {
      // Complete assignment: evaluate match conditions, then negations.
      bool ok = true;
      for (const OracleConjunct& conjunct : oq.conjuncts) {
        if (conjunct.negated_pos >= 0) continue;
        if (!conjunct.expr->EvalBool(bound.data())) {
          ok = false;
          break;
        }
      }
      if (ok && NegationsClear(oq, *qs, &bound)) {
        const EventPtr& first = bound[oq.positives[0]];
        const EventPtr& last = bound[oq.positives[k - 1]];
        if (oq.output_type != kInvalidTypeId) {
          // DERIVE straight off the bound components (equivalent to the
          // engine's composite event + rewritten projection).
          std::vector<Value> values;
          values.reserve(oq.derive_args.size());
          for (const auto& arg : oq.derive_args) {
            values.push_back(arg->Eval(bound.data()));
          }
          matched->push_back(MakeComplexEvent(oq.output_type,
                                              first->start_time(),
                                              last->end_time(),
                                              std::move(values)));
        } else {
          std::vector<Value> values;
          for (int item : oq.positives) {
            for (const Value& v : bound[item]->values()) values.push_back(v);
          }
          matched->push_back(MakeComplexEvent(oq.match_type,
                                              first->start_time(),
                                              last->end_time(),
                                              std::move(values)));
        }
      }
      --depth;
      cursor = choice[depth] + 1;
      continue;
    }
    int item = oq.positives[depth];
    bool advanced = false;
    for (int i = cursor; i < static_cast<int>(qs->log.size()); ++i) {
      const EventPtr& e = qs->log[i];
      if (e->type_id() != oq.item_types[item]) continue;
      if (depth > 0) {
        const EventPtr& prev = bound[oq.positives[depth - 1]];
        if (e->time() <= prev->time()) continue;  // strict sequence order
        const EventPtr& first = bound[oq.positives[0]];
        if (e->time() - first->time() > oq.within) break;  // span bound
      }
      if (depth == k - 1 && e->time() != t) continue;  // fresh matches only
      bound[item] = e;
      choice[depth] = i;
      ++depth;
      cursor = 0;
      advanced = true;
      break;
    }
    if (!advanced) {
      bound[item] = nullptr;
      --depth;
      if (depth >= 0) cursor = choice[depth] + 1;
    }
  }
}

void Oracle::RunAggregate(const PartitionState& partition,
                          const OracleQuery& oq, QueryState* qs,
                          const EventBatch& pool, Timestamp t,
                          EventBatch* matched) {
  (void)t;
  for (const EventPtr& event : pool) {
    if (event->type_id() != oq.item_types[0]) continue;
    if (!WindowAdmits(partition, oq, *event)) continue;
    // Group lookup/creation by key equality (first key representation
    // wins, like AggregateOp).
    std::vector<Value> key;
    key.reserve(oq.group_by.size());
    for (int index : oq.group_by) key.push_back(event->value(index));
    AggGroup* group = nullptr;
    for (AggGroup& g : qs->groups) {
      if (g.key.size() != key.size()) continue;
      bool equal = true;
      for (size_t i = 0; i < key.size(); ++i) {
        if (!g.key[i].Equals(key[i])) {
          equal = false;
          break;
        }
      }
      if (equal) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      qs->groups.push_back(AggGroup{key, {}});
      group = &qs->groups.back();
    }
    group->samples.push_back(AggSample{event->time(), event});

    // Naive recomputation over the live window (> t - W], folded oldest to
    // newest: the rule AggregateOp computes too, bit for bit on any data.
    Timestamp horizon = event->time() - oq.window_length;
    std::vector<Value> outputs = group->key;
    for (const OracleAgg& agg : oq.aggs) {
      int64_t count = 0;
      double sum = 0.0;
      double min_v = 0.0, max_v = 0.0;
      bool any = false;
      for (const AggSample& sample : group->samples) {
        if (sample.time <= horizon) continue;
        double v = 0.0;
        if (agg.attr_index >= 0) {
          const Value& cell = sample.event->value(agg.attr_index);
          v = cell.is_numeric() ? cell.ToDouble() : 0.0;
        }
        ++count;
        sum += v;
        if (!any || v < min_v) min_v = v;
        if (!any || v > max_v) max_v = v;
        any = true;
      }
      switch (agg.func) {
        case AggregateFunc::kCount:
          outputs.push_back(Value(count));
          break;
        case AggregateFunc::kSum:
          outputs.push_back(Value(sum));
          break;
        case AggregateFunc::kAvg:
          outputs.push_back(Value(count == 0 ? 0.0 : sum / count));
          break;
        case AggregateFunc::kMin:
          outputs.push_back(Value(any ? min_v : 0.0));
          break;
        case AggregateFunc::kMax:
          outputs.push_back(Value(any ? max_v : 0.0));
          break;
      }
    }
    EventPtr result =
        MakeEvent(oq.agg_type, event->time(), std::move(outputs));
    if (oq.having != nullptr && !options_.bug_drop_having &&
        !oq.having->EvalBool(&result)) {
      continue;
    }
    if (oq.post_where != nullptr && !oq.post_where->EvalBool(&result)) {
      continue;
    }
    matched->push_back(std::move(result));
  }
}

void Oracle::RunQuery(PartitionState* partition, const OracleQuery& oq,
                      QueryState* qs, const EventBatch& pool, Timestamp t,
                      EventBatch* out) {
  HandleTransitions(partition, oq, qs);
  bool active = partition->contexts.AnyActive(oq.mask);

  EventBatch matched;  // post-pattern, post-filter, pre-projection
  if (active) {
    switch (oq.kind) {
      case PatternSpec::Kind::kEvent: {
        for (const EventPtr& event : pool) {
          if (event->type_id() != oq.item_types[0]) continue;
          if (!WindowAdmits(*partition, oq, *event)) continue;
          bool ok = true;
          for (const OracleConjunct& conjunct : oq.conjuncts) {
            if (!conjunct.expr->EvalBool(&event)) {
              ok = false;
              break;
            }
          }
          if (ok) matched.push_back(event);
        }
        break;
      }
      case PatternSpec::Kind::kSeq: {
        // The matcher expires state `within` behind every transaction it
        // participates in, then admits this tick's events, then matches.
        qs->ExpireBefore(t - oq.within);
        for (const EventPtr& event : pool) {
          bool relevant = false;
          for (TypeId type : oq.item_types) {
            if (event->type_id() == type) {
              relevant = true;
              break;
            }
          }
          if (relevant && WindowAdmits(*partition, oq, *event)) {
            qs->log.push_back(event);
          }
        }
        MatchSeq(*partition, oq, qs, t, &matched);
        break;
      }
      case PatternSpec::Kind::kAggregate: {
        RunAggregate(*partition, oq, qs, pool, t, &matched);
        break;
      }
    }
  }

  // Projection (DERIVE). SEQ matches already derived inside MatchSeq
  // (the argument expressions bind pattern components directly); for the
  // other kinds the args evaluate against the single matched event.
  EventBatch emitted;
  if (oq.output_type != kInvalidTypeId &&
      oq.kind != PatternSpec::Kind::kSeq) {
    for (const EventPtr& event : matched) {
      std::vector<Value> values;
      values.reserve(oq.derive_args.size());
      for (const auto& arg : oq.derive_args) {
        values.push_back(arg->Eval(&event));
      }
      emitted.push_back(MakeComplexEvent(oq.output_type, event->start_time(),
                                         event->end_time(),
                                         std::move(values)));
    }
  } else {
    emitted = std::move(matched);
  }

  // Context action: CI/CT per emitted event (idempotent; SWITCH expands to
  // CI target then CT of the other gate contexts, in clause order).
  if (oq.action != ContextAction::kNone && !emitted.empty()) {
    for (const EventPtr& event : emitted) {
      Timestamp now = event->time();
      switch (oq.action) {
        case ContextAction::kInitiate:
          partition->contexts.Initiate(oq.target_context, now);
          break;
        case ContextAction::kTerminate:
          partition->contexts.Terminate(oq.target_context, now);
          break;
        case ContextAction::kSwitch:
          partition->contexts.Initiate(oq.target_context, now);
          for (int context : oq.contexts) {
            if (context != oq.target_context) {
              partition->contexts.Terminate(context, now);
            }
          }
          break;
        case ContextAction::kNone:
          break;
      }
    }
  }

  if (oq.output_type != kInvalidTypeId) {
    for (EventPtr& event : emitted) out->push_back(std::move(event));
  }
}

void Oracle::ProcessTransaction(PartitionState* partition, Timestamp t,
                                const EventBatch& events,
                                EventBatch* derived) {
  EventBatch pool = events;
  for (size_t qi = 0; qi < deriving_.size(); ++qi) {
    EventBatch out;
    RunQuery(partition, deriving_[qi], &partition->deriving[qi], pool, t,
             &out);
    for (EventPtr& event : out) {
      pool.push_back(event);
      derived->push_back(std::move(event));
    }
  }
  for (size_t qi = 0; qi < processing_.size(); ++qi) {
    EventBatch out;
    RunQuery(partition, processing_[qi], &partition->processing[qi], pool, t,
             &out);
    for (EventPtr& event : out) {
      pool.push_back(event);
      derived->push_back(std::move(event));
    }
  }
}

Result<EventBatch> Oracle::Run(const EventBatch& input) {
  ptrdiff_t disorder = FirstOutOfOrderIndex(input);
  if (disorder >= 0) {
    return Status::InvalidArgument(
        "oracle input is not time-ordered at index " +
        std::to_string(disorder));
  }

  // Resolve partition attribute indices for every known type.
  partition_attrs_.clear();
  partition_attrs_.resize(registry_->num_types());
  for (TypeId id = 0; id < registry_->num_types(); ++id) {
    const Schema& schema = registry_->type(id).schema;
    for (const std::string& attr : model_.partition_by()) {
      partition_attrs_[id].push_back(schema.IndexOf(attr));
    }
  }

  EventBatch derived;
  size_t i = 0;
  while (i < input.size()) {
    Timestamp t = input[i]->time();
    size_t j = i;
    while (j < input.size() && input[j]->time() == t) ++j;

    // Partition this tick's events; std::map gives ascending key order,
    // the engine's deterministic transaction order.
    std::map<uint64_t, EventBatch> by_partition;
    for (size_t k = i; k < j; ++k) {
      by_partition[PartitionKeyOf(*input[k])].push_back(input[k]);
    }
    for (auto& [key, events] : by_partition) {
      ProcessTransaction(GetOrCreatePartition(key), t, events, &derived);
    }

    // Periodic GC, over every partition and query (engine cadence).
    if (t - last_gc_ >= options_.gc_interval) {
      last_gc_ = t;
      Timestamp horizon =
          t >= options_.gc_horizon ? t - options_.gc_horizon : 0;
      for (auto& [key, partition] : partitions_) {
        (void)key;
        for (QueryState& qs : partition->deriving) qs.ExpireBefore(horizon);
        for (QueryState& qs : partition->processing) {
          qs.ExpireBefore(horizon);
        }
      }
    }
    i = j;
  }
  return derived;
}

}  // namespace

Result<EventBatch> RunReferenceModel(const CaesarModel& model,
                                     const EventBatch& input,
                                     const OracleOptions& options) {
  Oracle oracle(model, options);
  CAESAR_RETURN_IF_ERROR(oracle.Prepare());
  return oracle.Run(input);
}

}  // namespace caesar
