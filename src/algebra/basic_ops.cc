#include "algebra/basic_ops.h"

#include <sstream>

namespace caesar {

FilterOp::FilterOp(std::shared_ptr<const CompiledExpr> predicate,
                   double selectivity)
    : Operator(Kind::kFilter),
      predicate_(std::move(predicate)),
      selectivity_(selectivity) {}

void FilterOp::Process(const EventBatch& input, EventBatch* output,
                       OpExecContext* ctx, OperatorState*) const {
  ctx->CountWork(input.size());
  for (const EventPtr& event : input) {
    if (predicate_->EvalBool(&event)) {
      output->push_back(event);
    }
  }
}

std::string FilterOp::DebugString() const {
  return "Filter: " + predicate_->ToString();
}

ProjectionOp::ProjectionOp(
    TypeId output_type, std::vector<std::shared_ptr<const CompiledExpr>> args,
    std::string description)
    : Operator(Kind::kProjection),
      output_type_(output_type),
      args_(std::move(args)),
      description_(std::move(description)) {}

void ProjectionOp::Process(const EventBatch& input, EventBatch* output,
                           OpExecContext* ctx, OperatorState*) const {
  ctx->CountWork(input.size());
  for (const EventPtr& event : input) {
    std::vector<Value> values;
    values.reserve(args_.size());
    for (const auto& arg : args_) {
      values.push_back(arg->Eval(&event));
    }
    output->push_back(MakeComplexEvent(output_type_, event->start_time(),
                                       event->end_time(), std::move(values)));
  }
}

std::string ProjectionOp::DebugString() const {
  std::ostringstream os;
  os << "Projection: ";
  if (!description_.empty()) {
    os << description_;
  } else {
    for (size_t i = 0; i < args_.size(); ++i) {
      if (i > 0) os << ", ";
      os << args_[i]->ToString();
    }
  }
  return os.str();
}

}  // namespace caesar
