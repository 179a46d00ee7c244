// The automaton-backed SEQ operator: the one implementation of the
// sequence semantics defined in algebra/pattern_op.h. The translator emits
// it for every SEQ pattern (plan/translator.h). It is incremental:
//
//  - Runs are bucketed per automaton state and only probed when an event of
//    the state's awaited type arrives (type dispatch), instead of scanning
//    every partial match for every event.
//  - Transition predicates run in the compiler's cost order and
//    short-circuit run creation (lazy evaluation). They run against the
//    probed run with the event bound into its own empty slot, and the run
//    is copied only when they pass.
//  - Equality keys (automaton.h) filter before any predicate: every stored
//    run carries the Value::Hash of its state's key, every buffered negated
//    event the hash of its watch's key, and a probe hashes its own side
//    once and skips each candidate whose tag differs. A skipped candidate
//    counts no work unit. The tag is one word inside the existing run or
//    buffer entry, not a per-key bucket: buckets would multiply containers
//    across partitions x watches for a few live keys each, and memory with
//    them. Tags are 0 where there is no key, so they always match there.
//  - Expiry keeps one timer per state: the oldest first_time of any
//    stored run or time of any buffered negated event. A call before it is
//    due touches nothing else (timer wheel degenerate case: one timer
//    suffices because WITHIN is a single per-pattern constant).
//  - A negation buffer expires by advancing its head past the expired
//    prefix; the dead prefix is erased only once it passes half of the
//    buffer, so a live entry moves O(1) times on average.
//
// Determinism contract: matches of one event are emitted as if every live
// run were scanned in creation order. Every run is tagged with a
// monotonically increasing sequence number, candidate states are probed in
// a seq-ordered merge, completed matches are emitted in that order (fresh
// run first, then extensions in probe order), and the runs an event
// creates are stored only after the probe. The derived stream is
// therefore a pure function of the input, independent of how runs are
// bucketed, and an event never extends a run it just created. A tag only
// skips candidates whose key conjunct is false, so it changes no output
// and no order.

#ifndef CAESAR_COMPILE_COMPILED_PATTERN_OP_H_
#define CAESAR_COMPILE_COMPILED_PATTERN_OP_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "algebra/operator.h"
#include "compile/automaton.h"

namespace caesar {

class CompiledPatternOp : public Operator {
 public:
  // One partition's runs, negation buffers and expiry timer, and the
  // matching that advances them over the shared automaton.
  class State : public OperatorState {
   public:
    explicit State(const CompiledAutomaton* automaton);

    void Process(const EventBatch& input, EventBatch* output,
                 OpExecContext* ctx);
    void Reset() override;
    void ExpireBefore(Timestamp t) override;
    void Save(StateWriter* w) const override;
    Status Load(StateReader* r) override;

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
      size_t key_tag = 0;  // hash of the waiting state's key (derived)
    };

    // A buffered negated event and the hash of its watch's key (derived).
    struct Buffered {
      EventPtr event;
      size_t key_tag = 0;
    };

    // One NegationWatch's time-ordered buffer: the live entries are
    // entries[head, end).
    struct NegationBuffer {
      std::vector<Buffered> entries;
      size_t head = 0;

      const Buffered* begin() const { return entries.data() + head; }
      const Buffered* end() const { return entries.data() + entries.size(); }
      size_t size() const { return entries.size() - head; }
    };

    void ProcessEvent(const EventPtr& event, EventBatch* output,
                      OpExecContext* ctx);
    // The helpers take a binding indexed by slot: a run's `bound` or the
    // fresh run's scratch.
    bool PredicatesPass(const EventPtr* bound,
                        const AutomatonTransition& transition,
                        OpExecContext* ctx) const;
    // Binds each buffered candidate transiently at its watch's slot.
    bool NegationsPass(EventPtr* bound, OpExecContext* ctx) const;
    void EmitMatch(const EventPtr* bound, EventBatch* output) const;
    void StoreRun(int state, Run run);
    // The tag of `run` waiting in `state`: its key's stored-side hash.
    size_t RunTag(int state, const Run& run) const;
    // Recomputes earliest_ from the stored runs and buffers.
    void RearmTimer();

    const CompiledAutomaton* automaton_;
    // runs_[s] = runs in state s, ascending seq; slots 0 and k are unused
    // (fresh runs are created from the event, accepted runs emit). Runs are
    // only appended, scanned by index and erased in bulk, so a vector
    // serves (an empty deque would allocate a block per state per
    // partition).
    std::vector<std::vector<Run>> runs_;
    // The expiry timer: min first_time over runs_ and min time over
    // neg_buffers_; max() when both are empty.
    Timestamp earliest_ = std::numeric_limits<Timestamp>::max();
    uint64_t seq_counter_ = 0;
    // One buffer per NegationWatch; a vector for the same reason as runs_.
    std::vector<NegationBuffer> neg_buffers_;
  };

  explicit CompiledPatternOp(
      std::shared_ptr<const CompiledAutomaton> automaton);

  std::unique_ptr<OperatorState> NewState() const override;
  void Process(const EventBatch& input, EventBatch* output,
               OpExecContext* ctx, OperatorState* state) const override;
  std::string DebugString() const override;

  // Sequence matching scales with the number of positions.
  double UnitCost() const override;
  double Selectivity() const override;

  const CompiledAutomaton& automaton() const { return *automaton_; }
  const PatternOpConfig& config() const { return *automaton_->config; }

 private:
  std::shared_ptr<const CompiledAutomaton> automaton_;
};

}  // namespace caesar

#endif  // CAESAR_COMPILE_COMPILED_PATTERN_OP_H_
