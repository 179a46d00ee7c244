#include "compile/automaton.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace caesar {

double AutomatonPredicate::rank() const {
  // Expected cost per rejected candidate. Guard the division: a predicate
  // estimated to pass everything still has to run (last).
  const double rejection = 1.0 - est_selectivity;
  if (rejection <= 1e-9) return 1e18;
  return est_cost / rejection;
}

const std::vector<int>* CompiledAutomaton::StatesAwaiting(
    TypeId type_id) const {
  auto it = std::lower_bound(
      dispatch.begin(), dispatch.end(), type_id,
      [](const auto& entry, TypeId id) { return entry.first < id; });
  if (it == dispatch.end() || it->first != type_id) return nullptr;
  return &it->second;
}

namespace {

std::string FmtEstimate(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", value);
  return buffer;
}

std::string TypeName(const TypeRegistry& registry, TypeId id) {
  if (id < 0 || id >= registry.num_types()) return "?";
  return registry.type(id).name;
}

void DumpKey(const EqualityKey& key, std::ostringstream& os) {
  if (!key.valid()) return;
  os << "    key: " << key.conjunct->ToString() << "  stored slot "
     << key.stored_slot << ", probe slot " << key.probe_slot << "\n";
}

}  // namespace

std::string CompiledAutomaton::DumpText(const TypeRegistry& registry) const {
  const PatternOpConfig& cfg = *config;
  std::ostringstream os;
  os << "automaton " << cfg.description << "\n";
  int positive = 0;
  for (const auto& position : cfg.positions) {
    if (!position.negated) ++positive;
  }
  os << "  positions: " << cfg.positions.size() << " (" << positive
     << " positive, " << cfg.positions.size() - positive << " negated)"
     << "  within: " << cfg.within << "\n";
  os << "  mode: sequence\n";
  for (size_t s = 0; s < transitions.size(); ++s) {
    const AutomatonTransition& t = transitions[s];
    os << "  state " << s << " --" << TypeName(registry, t.type_id)
       << "--> state " << s + 1 << "  [slot " << t.slot << "]";
    if (s + 1 == transitions.size()) os << "  accepting";
    os << "\n";
    for (const AutomatonPredicate& predicate : t.predicates) {
      os << "    guard #" << predicate.config_index << ": ("
         << predicate.expr->ToString() << ")  cost="
         << FmtEstimate(predicate.est_cost)
         << " sel=" << FmtEstimate(predicate.est_selectivity)
         << (predicate.absint_refined ? "  (absint)" : "") << "\n";
    }
    for (const AutomatonPredicate& predicate : t.pruned) {
      os << "    pruned #" << predicate.config_index << ": ("
         << predicate.expr->ToString() << ")  [implied by earlier guards]\n";
    }
    DumpKey(t.key, os);
    if (dead_transition == static_cast<int>(s)) {
      os << "    dead: no event can pass this transition (absint)\n";
    }
  }
  for (const NegationWatch& watch : negations) {
    os << "  negation slot " << watch.slot << " type "
       << TypeName(registry, watch.type_id) << " in ";
    if (watch.prev_positive_slot >= 0) {
      os << "(slot " << watch.prev_positive_slot << ", slot "
         << watch.next_positive_slot << ")";
    } else {
      os << "[slot " << watch.next_positive_slot << " - within, slot "
         << watch.next_positive_slot << ")";
    }
    os << "\n";
    for (const auto& predicate : watch.predicates) {
      os << "    cond: (" << predicate->ToString() << ")\n";
    }
    DumpKey(watch.key, os);
  }
  os << "  output: " << TypeName(registry, cfg.output_type)
     << "  (emit on state " << transitions.size() << ")\n";
  return os.str();
}

}  // namespace caesar
