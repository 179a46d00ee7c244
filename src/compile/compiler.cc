#include "compile/compiler.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/absint.h"
#include "common/logging.h"
#include "compile/compiled_pattern_op.h"
#include "optimizer/cost_model.h"
#include "plan/translator.h"
#include "query/model.h"

namespace caesar {

namespace {

// The equality key `conjunct` states on `own_slot`, or an invalid key. A
// key is `x.attr = y.attr` with one side on own_slot and the other on a
// different slot. own_slot is the probe side on a transition and the
// stored side on a negation watch. The other slot is positive and, on a
// transition, bound earlier: a position's predicates reference only slots
// bound when it binds, and every negated reference makes a conjunct a
// negation condition (PatternOpConfig, plan/translator.cc).
EqualityKey KeyOn(const std::shared_ptr<const CompiledExpr>& conjunct,
                  int own_slot, bool own_probes) {
  EqualityKey key;
  const auto& nodes = conjunct->nodes();
  const CompiledExpr::Node& root = nodes.back();
  if (root.kind != Expr::Kind::kBinary || root.op != BinaryOp::kEq) {
    return key;
  }
  const CompiledExpr::Node* own = &nodes[root.left];
  const CompiledExpr::Node* other = &nodes[root.right];
  if (own->var_index != own_slot) std::swap(own, other);
  if (own->kind != Expr::Kind::kAttrRef ||
      other->kind != Expr::Kind::kAttrRef || own->var_index != own_slot ||
      other->var_index == own_slot) {
    return key;
  }
  const CompiledExpr::Node* stored = own_probes ? other : own;
  const CompiledExpr::Node* probe = own_probes ? own : other;
  key.stored_slot = stored->var_index;
  key.stored_attr = stored->attr_index;
  key.probe_slot = probe->var_index;
  key.probe_attr = probe->attr_index;
  key.conjunct = conjunct;
  return key;
}

}  // namespace

std::shared_ptr<const CompiledAutomaton> CompilePattern(
    std::shared_ptr<const PatternOpConfig> config, bool absint) {
  auto automaton = std::make_shared<CompiledAutomaton>();
  automaton->config = config;
  const auto& positions = config->positions;
  if (positions.size() > 1) {
    CAESAR_CHECK_GT(config->within, 0)
        << "multi-position pattern needs WITHIN: " << config->description;
  }

  // Interval facts over the positions (config order). Each guard's verdict
  // is taken against the facts accumulated before it, so pruning is sound
  // by induction: the kept guards imply every pruned one (absint.h).
  PatternAbsintResult facts;
  if (absint) {
    std::vector<AbsPosition> abs_positions;
    for (const auto& position : positions) {
      AbsPosition abs;
      abs.negated = position.negated;
      for (const auto& predicate : position.predicates) {
        abs.guards.push_back(AbstractPredicate(*predicate));
      }
      abs_positions.push_back(std::move(abs));
    }
    facts = AnalyzePositions(abs_positions);
  }

  // Positive positions become the transition chain; negated ones become
  // completion-time watches with their interval endpoints precomputed.
  for (int i = 0; i < static_cast<int>(positions.size()); ++i) {
    if (positions[i].negated) {
      NegationWatch watch;
      watch.neg_index = static_cast<int>(automaton->negations.size());
      watch.slot = i;
      watch.type_id = positions[i].type_id;
      for (int p = i - 1; p >= 0; --p) {
        if (!positions[p].negated) {
          watch.prev_positive_slot = p;
          break;
        }
      }
      for (int p = i + 1; p < static_cast<int>(positions.size()); ++p) {
        if (!positions[p].negated) {
          watch.next_positive_slot = p;
          break;
        }
      }
      CAESAR_CHECK_GE(watch.next_positive_slot, 0)
          << "trailing NOT reached the compiler: " << config->description;
      watch.predicates = positions[i].predicates;
      for (const auto& predicate : watch.predicates) {
        watch.key = KeyOn(predicate, i, /*own_probes=*/false);
        if (watch.key.valid()) break;
      }
      automaton->negations.push_back(std::move(watch));
      continue;
    }
    AutomatonTransition transition;
    transition.slot = i;
    transition.type_id = positions[i].type_id;
    for (size_t p = 0; p < positions[i].predicates.size(); ++p) {
      AutomatonPredicate predicate;
      predicate.expr = positions[i].predicates[p];
      predicate.config_index = static_cast<int>(p);
      predicate.est_cost = EstimatePredicateCost(*predicate.expr);
      predicate.est_selectivity = EstimatePredicateSelectivity(*predicate.expr);
      if (absint) {
        const AbsGuardInfo& info = facts.guards[i][p];
        if (info.verdict == AbsVerdict::kTrue) {
          // Implied by guards already evaluated on any run reaching this
          // state: never evaluate it again.
          transition.pruned.push_back(std::move(predicate));
          continue;
        }
        if (info.sat_fraction.has_value()) {
          predicate.est_selectivity =
              RefineSelectivityFromFacts(*info.sat_fraction);
          predicate.absint_refined = true;
        }
      }
      transition.predicates.push_back(std::move(predicate));
    }
    // The key: the first evaluated guard in config order joining this slot
    // to one bound earlier.
    for (const AutomatonPredicate& predicate : transition.predicates) {
      transition.key = KeyOn(predicate.expr, i, /*own_probes=*/true);
      if (transition.key.valid()) break;
    }
    // Lazy evaluation: cheapest expected cost per rejection first. The sort
    // is stable with a config-index tie-break, so the order (and the dump)
    // is deterministic.
    std::stable_sort(transition.predicates.begin(),
                     transition.predicates.end(),
                     [](const AutomatonPredicate& a,
                        const AutomatonPredicate& b) {
                       if (a.rank() != b.rank()) return a.rank() < b.rank();
                       return a.config_index < b.config_index;
                     });
    if (absint && facts.dead_position == i) {
      automaton->dead_transition =
          static_cast<int>(automaton->transitions.size());
    }
    automaton->transitions.push_back(std::move(transition));
  }
  CAESAR_CHECK(!automaton->transitions.empty());

  // Type dispatch over the non-initial states.
  for (int s = 1; s < static_cast<int>(automaton->transitions.size()); ++s) {
    const TypeId type = automaton->transitions[s].type_id;
    auto it = std::lower_bound(
        automaton->dispatch.begin(), automaton->dispatch.end(), type,
        [](const auto& entry, TypeId id) { return entry.first < id; });
    if (it == automaton->dispatch.end() || it->first != type) {
      it = automaton->dispatch.insert(it, {type, {}});
    }
    it->second.push_back(s);
  }
  return automaton;
}

namespace {

// Event matching has no automaton: one type check and its pushed guards.
std::string DumpEventMatch(const PatternOpConfig& config,
                           const TypeRegistry& registry) {
  const PatternOpConfig::Position& position = config.positions[0];
  std::ostringstream os;
  os << "automaton " << config.description << "\n";
  os << "  positions: 1 (1 positive, 0 negated)  within: " << config.within
     << "\n";
  os << "  mode: pass-through\n";
  os << "  match " << registry.type(position.type_id).name << " -> emit\n";
  for (size_t p = 0; p < position.predicates.size(); ++p) {
    os << "    guard #" << p << ": (" << position.predicates[p]->ToString()
       << ")\n";
  }
  return os.str();
}

}  // namespace

Result<std::string> DumpModelAutomatons(const CaesarModel& model,
                                        const PlanOptions& plan_options) {
  CAESAR_ASSIGN_OR_RETURN(ExecutablePlan plan,
                          TranslateModel(model, plan_options));
  std::ostringstream os;
  for (const auto* queries : {&plan.deriving, &plan.processing}) {
    for (const CompiledQuery& query : *queries) {
      for (const auto& op : query.chain.ops) {
        if (op->kind() == Operator::Kind::kPattern) {
          os << "query " << query.name << "\n"
             << DumpEventMatch(static_cast<const PatternOp&>(*op).config(),
                               *plan.registry);
        } else if (op->kind() == Operator::Kind::kCompiledPattern) {
          os << "query " << query.name << "\n"
             << static_cast<const CompiledPatternOp&>(*op)
                    .automaton()
                    .DumpText(*plan.registry);
        }
      }
    }
  }
  return os.str();
}

}  // namespace caesar
