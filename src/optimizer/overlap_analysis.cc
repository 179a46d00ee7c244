#include "optimizer/overlap_analysis.h"

namespace caesar {

bool WindowShape::Rising() const {
  return start.has_value() && end.has_value() &&
         start->QualifiedName() == end->QualifiedName() &&
         IsRisingCrossing(start->op) && IsRisingCrossing(end->op);
}

WindowShape ShapeOfWindows(const CaesarModel& model,
                           const std::string& context) {
  WindowShape shape;
  for (int qi = 0; qi < model.num_queries(); ++qi) {
    if (model.query(qi).Opens(context)) shape.initiators.push_back(qi);
    if (model.query(qi).Closes(context)) shape.terminators.push_back(qi);
  }
  if (shape.initiators.size() == 1 && shape.terminators.size() == 1) {
    shape.start =
        SingleThresholdConstraint(model.query(shape.initiators[0]).where);
    shape.end =
        SingleThresholdConstraint(model.query(shape.terminators[0]).where);
  }
  return shape;
}

std::vector<WindowBounds> ExtractWindowBounds(const CaesarModel& model) {
  std::vector<WindowBounds> result;
  for (const ContextType& context : model.contexts()) {
    if (context.name == model.default_context()) continue;
    WindowShape shape = ShapeOfWindows(model, context.name);
    if (!shape.Rising() || !(shape.start->value < shape.end->value)) continue;
    result.push_back({context.name, shape.initiators[0],
                      shape.terminators[0], shape.start->value,
                      shape.end->value, shape.start->QualifiedName()});
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
