#include "optimizer/overlap_analysis.h"

#include <optional>

#include "expr/analysis.h"

namespace caesar {

std::vector<WindowBounds> ExtractWindowBounds(const CaesarModel& model) {
  std::vector<WindowBounds> result;
  for (int ci = 0; ci < model.num_contexts(); ++ci) {
    const std::string& name = model.context(ci).name;
    if (name == model.default_context()) continue;
    WindowBounds bounds;
    bounds.context = name;
    bool ok = true;  // at most one initiator and one terminator
    for (int qi = 0; qi < model.num_queries() && ok; ++qi) {
      const Query& query = model.query(qi);
      if (query.Opens(name)) {
        if (bounds.initiator_query >= 0) ok = false;
        bounds.initiator_query = qi;
      }
      if (query.Closes(name)) {
        if (bounds.terminator_query >= 0) ok = false;
        bounds.terminator_query = qi;
      }
    }
    if (!ok || bounds.initiator_query < 0 || bounds.terminator_query < 0) {
      continue;
    }
    std::optional<AttrConstraint> start =
        SingleThresholdConstraint(model.query(bounds.initiator_query).where);
    std::optional<AttrConstraint> end =
        SingleThresholdConstraint(model.query(bounds.terminator_query).where);
    if (!start.has_value() || !end.has_value()) continue;
    if (start->QualifiedName() != end->QualifiedName() ||
        !(start->value < end->value)) {
      continue;
    }
    bounds.bound_attr = start->QualifiedName();
    bounds.start_key = start->value;
    bounds.end_key = end->value;
    result.push_back(std::move(bounds));
  }
  return result;
}

WindowRelation Relate(const WindowBounds& a, const WindowBounds& b) {
  if (a.bound_attr != b.bound_attr) return WindowRelation::kUnknown;
  if (a.start_key == b.start_key && a.end_key == b.end_key) {
    return WindowRelation::kEqual;
  }
  bool overlap = a.start_key < b.end_key && b.start_key < a.end_key;
  if (!overlap) return WindowRelation::kDisjoint;
  if (b.start_key <= a.start_key && a.end_key <= b.end_key) {
    return WindowRelation::kContainedIn;
  }
  if (a.start_key <= b.start_key && b.end_key <= a.end_key) {
    return WindowRelation::kContains;
  }
  return WindowRelation::kOverlaps;
}

}  // namespace caesar
