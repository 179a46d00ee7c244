#include "algebra/context_ops.h"

#include "common/logging.h"

namespace caesar {

ContextInitOp::ContextInitOp(int context_id, std::string context_name)
    : Operator(Kind::kContextInit),
      context_id_(context_id),
      context_name_(std::move(context_name)) {}

void ContextInitOp::Process(const EventBatch& input, EventBatch* output,
                            OpExecContext* ctx, OperatorState*) const {
  ctx->CountWork(input.size());
  for (const EventPtr& event : input) {
    // e.time = w_c.start (the window begins when the initiating event
    // completes).
    ctx->contexts->Initiate(context_id_, event->time());
    output->push_back(event);
  }
}

std::string ContextInitOp::DebugString() const {
  return "ContextInit: " + context_name_;
}

ContextTermOp::ContextTermOp(int context_id, std::string context_name)
    : Operator(Kind::kContextTerm),
      context_id_(context_id),
      context_name_(std::move(context_name)) {}

void ContextTermOp::Process(const EventBatch& input, EventBatch* output,
                            OpExecContext* ctx, OperatorState*) const {
  ctx->CountWork(input.size());
  for (const EventPtr& event : input) {
    ctx->contexts->Terminate(context_id_, event->time());
    output->push_back(event);
  }
}

std::string ContextTermOp::DebugString() const {
  return "ContextTerm: " + context_name_;
}

ContextWindowOp::ContextWindowOp(std::vector<int> context_ids,
                                 std::string description,
                                 std::vector<int> anchors)
    : Operator(Kind::kContextWindow),
      context_ids_(std::move(context_ids)),
      anchors_(std::move(anchors)),
      mask_(0),
      description_(std::move(description)) {
  CAESAR_CHECK(!context_ids_.empty());
  if (anchors_.empty()) anchors_ = context_ids_;  // identity anchors
  CAESAR_CHECK_EQ(anchors_.size(), context_ids_.size());
  for (int id : context_ids_) {
    CAESAR_CHECK_GE(id, 0);
    CAESAR_CHECK_LT(id, kMaxContexts);
    mask_ |= uint64_t{1} << id;
  }
}

void ContextWindowOp::Process(const EventBatch& input, EventBatch* output,
                              OpExecContext* ctx, OperatorState*) const {
  // The bit-vector probe is constant and negligible next to per-event
  // operator work (Section 5.1: "the CPU cost of these operators is
  // constant"), so it contributes no work units — the premise of Theorem 1
  // is that the context window costs the same wherever it sits in the plan.
  const ContextBitVector& contexts = *ctx->contexts;
  if (!contexts.AnyActive(mask_)) return;
  for (const EventPtr& event : input) {
    for (size_t i = 0; i < context_ids_.size(); ++i) {
      if (contexts.IsActive(context_ids_[i]) &&
          event->start_time() >= contexts.ActiveSince(anchors_[i])) {
        output->push_back(event);
        break;
      }
    }
  }
}

std::string ContextWindowOp::DebugString() const {
  return "ContextWindow: " + description_;
}

}  // namespace caesar
