// The operator interface of the CAESAR algebra (Section 4.1).
//
// The algebra's six operators — pattern, filter, projection, context window,
// context initiation, context termination — plus the sliding-aggregate
// extension all implement Operator. Operators process event batches
// bottom-up in a query plan. An Operator is an immutable program shared by
// every partition and thread, so Process is const; a stateful operator
// (pattern, aggregate) keeps its per-partition data in an OperatorState
// from NewState, which the runtime owns.
//
// Work accounting: every operator adds its processed "work units" (events
// examined, partial matches extended, buffer entries scanned) to
// OpExecContext::ops_counter. This is the cost measure behind the CPU-cost
// experiments and the Theorem-1 test.

#ifndef CAESAR_ALGEBRA_OPERATOR_H_
#define CAESAR_ALGEBRA_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "event/event.h"
#include "event/schema.h"
#include "runtime/context_vector.h"

namespace caesar {

class StateWriter;
class StateReader;

// Per-call execution environment handed to Operator::Process.
struct OpExecContext {
  // Context windows of the current partition; mutated by CI/CT operators.
  ContextBitVector* contexts = nullptr;
  // Work-unit counter (see header comment); never null during execution.
  uint64_t* ops_counter = nullptr;

  void CountWork(uint64_t units) const { *ops_counter += units; }
};

// The per-partition state of one stateful operator (Operator::NewState).
class OperatorState {
 public:
  OperatorState() = default;
  virtual ~OperatorState() = default;

  OperatorState(const OperatorState&) = delete;
  OperatorState& operator=(const OperatorState&) = delete;

  // Drops all partial state. Called when the context window scoping the
  // operator's query ends ("context history can be safely discarded").
  virtual void Reset() = 0;

  // Drops partial state derived from events older than `t` (garbage
  // collection / grouped-window history expiry).
  virtual void ExpireBefore(Timestamp t) = 0;

  // Serializes the state (durability/serde.h); configuration is rebuilt
  // from the plan on recovery. Byte-stable for identical state.
  virtual void Save(StateWriter* w) const = 0;

  // Restores state produced by Save into a fresh state of an identically
  // configured operator. Returns DataLoss on malformed bytes.
  virtual Status Load(StateReader* r) = 0;
};

// Base class for all algebra operators.
class Operator {
 public:
  enum class Kind : int8_t {
    // Event matching E() (algebra/pattern_op.h).
    kPattern,
    kFilter,
    kProjection,
    kContextWindow,
    kContextInit,
    kContextTerm,
    kAggregate,
    // SEQ, executed by its compiled automaton (compile/).
    kCompiledPattern,
  };

  explicit Operator(Kind kind) : kind_(kind) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  Kind kind() const { return kind_; }

  // A fresh, empty state for one partition; null for a stateless operator.
  // The state refers to this operator's configuration, so it must not
  // outlive the operator.
  virtual std::unique_ptr<OperatorState> NewState() const { return nullptr; }

  // Consumes `input` and appends results to `output`. `state` is a state
  // from this operator's NewState (null for a stateless operator); it
  // carries partial matches across calls. Events must arrive in
  // non-decreasing time order across the calls on one state.
  virtual void Process(const EventBatch& input, EventBatch* output,
                       OpExecContext* ctx, OperatorState* state) const = 0;

  // One-line description for plan printing.
  virtual std::string DebugString() const = 0;

  // --- Cost model hooks (relative units; see optimizer/cost_model.h) ---

  // Expected CPU cost per input event.
  virtual double UnitCost() const { return 1.0; }

  // Expected ratio of output to input events.
  virtual double Selectivity() const { return 1.0; }

 private:
  Kind kind_;
};

const char* OperatorKindName(Operator::Kind kind);

}  // namespace caesar

#endif  // CAESAR_ALGEBRA_OPERATOR_H_
