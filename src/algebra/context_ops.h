// The context-specific operators unique to the CAESAR algebra
// (Section 4.1): context initiation CI_c, context termination CT_c, and
// context window CW_c.
//
// CI/CT consume the match stream of a context deriving query and update the
// partition's context bit vector; they pass their input through so a
// deriving query can feed further operators. CW passes exactly the events
// that occur during the current window of its context(s); its per-event cost
// is constant (one bit-vector probe), which is the premise of the context
// window push-down theorem (Theorem 1).

#ifndef CAESAR_ALGEBRA_CONTEXT_OPS_H_
#define CAESAR_ALGEBRA_CONTEXT_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/operator.h"

namespace caesar {

// CI_c: on any input event, starts a window of context `context_id` (no-op
// if one already holds) and forwards the input unchanged.
class ContextInitOp : public Operator {
 public:
  ContextInitOp(int context_id, std::string context_name);

  void Process(const EventBatch& input, EventBatch* output,
               OpExecContext* ctx, OperatorState* state) const override;
  std::string DebugString() const override;

  int context_id() const { return context_id_; }

 private:
  int context_id_;
  std::string context_name_;
};

// CT_c: on any input event, ends the window of context `context_id` (re-
// activating the default context if none remains) and forwards the input.
class ContextTermOp : public Operator {
 public:
  ContextTermOp(int context_id, std::string context_name);

  void Process(const EventBatch& input, EventBatch* output,
               OpExecContext* ctx, OperatorState* state) const override;
  std::string DebugString() const override;

  int context_id() const { return context_id_; }

 private:
  int context_id_;
  std::string context_name_;
};

// CW_{c1,...}: passes an event iff some listed context is active AND the
// event's occurrence interval lies within that context's current window
// (a complex event spanning a window boundary is out of scope; Section 2's
// t ⊑ w applied to intervals).
class ContextWindowOp : public Operator {
 public:
  // `context_ids` is an OR-set: the query belongs to several contexts
  // (e.g. accident detection runs in both clear and congestion).
  // `anchors`, when non-empty, parallels `context_ids`: an event passes for
  // an active context if its occurrence interval starts no earlier than the
  // *anchor* context's activation time — grouped windows anchor at the
  // first grouped window of the oldest original window covering them, so
  // matches may span the grouped windows of one original but never beyond.
  ContextWindowOp(std::vector<int> context_ids, std::string description,
                  std::vector<int> anchors = {});

  void Process(const EventBatch& input, EventBatch* output,
               OpExecContext* ctx, OperatorState* state) const override;
  std::string DebugString() const override;

  const std::vector<int>& context_ids() const { return context_ids_; }
  const std::vector<int>& anchors() const { return anchors_; }

 private:
  std::vector<int> context_ids_;
  std::vector<int> anchors_;  // parallel to context_ids_
  uint64_t mask_;
  std::string description_;
};

}  // namespace caesar

#endif  // CAESAR_ALGEBRA_CONTEXT_OPS_H_
