// The automaton-backed SEQ operator: the one implementation of the
// sequence semantics defined in algebra/pattern_op.h. The translator emits
// it for every SEQ pattern (plan/translator.h). It is incremental:
//
//  - Runs are bucketed per automaton state and only probed when an event of
//    the state's awaited type arrives (type dispatch), instead of scanning
//    every partial match for every event.
//  - Transition predicates run in the compiler's cost order and
//    short-circuit run creation (lazy evaluation).
//  - Expiry keeps a per-state minimum first_time, so states with no stale
//    runs are skipped entirely (timer wheel degenerate case: one timer per
//    state suffices because WITHIN is a single per-pattern constant).
//
// Determinism contract: matches of one event are emitted as if every live
// run were scanned in creation order. Every run is tagged with a
// monotonically increasing sequence number, candidate states are probed in
// a seq-ordered merge, and the runs an event creates are stored (and
// completed matches emitted) only after the probe, fresh run first, then
// extensions in probe order. The derived stream is therefore a pure
// function of the input, independent of how runs are bucketed, and an
// event never extends a run it just created.

#ifndef CAESAR_COMPILE_COMPILED_PATTERN_OP_H_
#define CAESAR_COMPILE_COMPILED_PATTERN_OP_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "algebra/operator.h"
#include "compile/automaton.h"

namespace caesar {

class CompiledPatternOp : public Operator {
 public:
  explicit CompiledPatternOp(
      std::shared_ptr<const CompiledAutomaton> automaton);

  void Process(const EventBatch& input, EventBatch* output,
               OpExecContext* ctx) override;
  std::unique_ptr<Operator> Clone() const override;
  void Reset() override;
  void ExpireBefore(Timestamp t) override;
  std::string DebugString() const override;
  void SaveState(StateWriter* w) const override;
  Status LoadState(StateReader* r) override;

  // Sequence matching scales with the number of positions.
  double UnitCost() const override;
  double Selectivity() const override;

  const CompiledAutomaton& automaton() const { return *automaton_; }
  const PatternOpConfig& config() const { return *automaton_->config; }

  // Introspection for tests and the garbage collector.
  size_t num_runs() const;
  size_t negation_buffer_size() const;

 private:
  // A partial match: state s holds runs with the first s positive
  // components bound. Negated slots are bound transiently at completion.
  struct Run {
    std::vector<EventPtr> bound;
    Timestamp first_time = 0;
    Timestamp last_time = -1;
    uint64_t seq = 0;  // global creation order (the determinism contract)
  };

  void ProcessEvent(const EventPtr& event, EventBatch* output,
                    OpExecContext* ctx);
  bool PredicatesPass(const std::vector<EventPtr>& bound_scratch,
                      const AutomatonTransition& transition,
                      OpExecContext* ctx) const;
  bool NegationsPass(Run* run, OpExecContext* ctx);
  void EmitMatch(const Run& run, EventBatch* output) const;
  void StoreRun(int state, Run run);

  std::shared_ptr<const CompiledAutomaton> automaton_;
  // runs_[s] = runs in state s, ascending seq; slots 0 and k are unused
  // (fresh runs are created from the event, accepted runs emit). Runs are
  // only appended, scanned by index and erased in bulk, so a vector serves
  // (an empty deque would allocate a block per state per partition).
  std::vector<std::vector<Run>> runs_;
  // Min first_time per state (expiry skip); max() when the state is empty.
  std::vector<Timestamp> state_min_first_;
  uint64_t seq_counter_ = 0;
  // One time-ordered buffer per NegationWatch.
  std::vector<std::deque<EventPtr>> neg_buffers_;
};

}  // namespace caesar

#endif  // CAESAR_COMPILE_COMPILED_PATTERN_OP_H_
