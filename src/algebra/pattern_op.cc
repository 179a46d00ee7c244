#include "algebra/pattern_op.h"

#include "common/logging.h"

namespace caesar {

PatternOp::PatternOp(std::shared_ptr<const PatternOpConfig> config)
    : Operator(Kind::kPattern), config_(std::move(config)) {
  CAESAR_CHECK_EQ(config_->positions.size(), 1u)
      << "event matching takes one position: " << config_->description;
  CAESAR_CHECK(!config_->positions[0].negated);
}

void PatternOp::Process(const EventBatch& input, EventBatch* output,
                        OpExecContext* ctx, OperatorState*) const {
  // Forward events of the type, applying any pushed predicates.
  ctx->CountWork(input.size());
  const auto& position = config_->positions[0];
  for (const EventPtr& event : input) {
    if (event->type_id() != position.type_id) continue;
    bool pass = true;
    for (const auto& predicate : position.predicates) {
      ctx->CountWork(1);
      if (!predicate->EvalBool(&event)) {
        pass = false;
        break;
      }
    }
    if (pass) output->push_back(event);
  }
}

std::string PatternOp::DebugString() const {
  return "Pattern: " + config_->description;
}

}  // namespace caesar
