// The operator interface of the CAESAR algebra (Section 4.1).
//
// The algebra's six operators — pattern, filter, projection, context window,
// context initiation, context termination — plus the sliding-aggregate
// extension all implement Operator. Operators process event batches
// bottom-up in a query plan; stateful operators (pattern, aggregate) keep
// per-partition state, so plans are instantiated per partition via Clone().
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
  const TypeRegistry* registry = nullptr;
  // Application time of the batch being processed.
  Timestamp now = 0;
  // Work-unit counter (see header comment); never null during execution.
  uint64_t* ops_counter = nullptr;

  void CountWork(uint64_t units) const { *ops_counter += units; }
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

  // Consumes `input` and appends results to `output`. Stateful operators may
  // retain partial state across calls. Events must arrive in non-decreasing
  // time order across calls.
  virtual void Process(const EventBatch& input, EventBatch* output,
                       OpExecContext* ctx) = 0;

  // Fresh-state copy for per-partition instantiation (configuration is
  // shared, state is not).
  virtual std::unique_ptr<Operator> Clone() const = 0;

  // Drops all partial state. Called when the context window scoping this
  // operator's query ends ("context history can be safely discarded").
  virtual void Reset() {}

  // Drops partial state derived from events older than `t` (garbage
  // collection / grouped-window history expiry).
  virtual void ExpireBefore(Timestamp t) { (void)t; }

  // One-line description for plan printing.
  virtual std::string DebugString() const = 0;

  // --- Durability hooks (durability/serde.h) ---
  // Serializes the operator's mutable state. Configuration is rebuilt from
  // the plan on recovery and never persisted; stateless operators write
  // nothing. Byte-stable for identical state (checkpoint determinism).
  virtual void SaveState(StateWriter* w) const { (void)w; }

  // Restores state produced by SaveState on an identically configured
  // fresh instance. Returns DataLoss on malformed bytes.
  virtual Status LoadState(StateReader* r) {
    (void)r;
    return Status::Ok();
  }

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
