#include "compile/compiled_pattern_op.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "durability/serde.h"

namespace caesar {

namespace {
constexpr Timestamp kNothing = std::numeric_limits<Timestamp>::max();

// The tag of `event` on one side of `key`: 0 without a key, so untagged
// candidates always pass the tag check.
size_t KeyTag(const EqualityKey& key, const Event& event, int attr) {
  return key.valid() ? event.value(attr).Hash() : 0;
}

// One awaiting state's cursor in the seq-ordered merge, and the event's
// tag on that state's key.
struct Probe {
  size_t cursor = 0;
  size_t tag = 0;
};

// ProcessEvent's scratch: the fresh run's binding (its predicates and
// completion run there before any run is allocated) and the probe cursors.
// ProcessEvent never nests, so one per thread serves every state of every
// operator; binding entries are reset to null after use, so the scratch
// owns no event between calls.
struct Scratch {
  std::vector<EventPtr> binding;
  std::vector<Probe> probes;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}
}  // namespace

CompiledPatternOp::CompiledPatternOp(
    std::shared_ptr<const CompiledAutomaton> automaton)
    : Operator(Kind::kCompiledPattern), automaton_(std::move(automaton)) {
  CAESAR_CHECK(automaton_ != nullptr);
}

std::unique_ptr<OperatorState> CompiledPatternOp::NewState() const {
  return std::make_unique<State>(automaton_.get());
}

void CompiledPatternOp::Process(const EventBatch& input, EventBatch* output,
                                OpExecContext* ctx,
                                OperatorState* state) const {
  static_cast<State*>(state)->Process(input, output, ctx);
}

CompiledPatternOp::State::State(const CompiledAutomaton* automaton)
    : automaton_(automaton),
      runs_(automaton->num_states()),
      neg_buffers_(automaton->negations.size()) {}

void CompiledPatternOp::State::Process(const EventBatch& input,
                                       EventBatch* output,
                                       OpExecContext* ctx) {
  const PatternOpConfig& cfg = *automaton_->config;
  // A dead transition makes the accepting state unreachable: the pattern
  // can never emit, so no run is worth creating or advancing — every run
  // would stall on the impassable position.
  if (automaton_->dead_transition >= 0) return;
  if (!input.empty()) {
    // Expire once per batch; advancement re-checks WITHIN per event, so
    // late expiry never admits a stale match.
    ExpireBefore(input.front()->time() - cfg.within);
  }
  for (const EventPtr& event : input) {
    ProcessEvent(event, output, ctx);
  }
}

void CompiledPatternOp::State::ProcessEvent(const EventPtr& event,
                                            EventBatch* output,
                                            OpExecContext* ctx) {
  ctx->CountWork(1);
  const auto& transitions = automaton_->transitions;
  const int accepting = static_cast<int>(transitions.size());

  // 1. Feed negation buffers (time-ordered by construction).
  for (const NegationWatch& watch : automaton_->negations) {
    if (watch.type_id == event->type_id()) {
      neg_buffers_[watch.neg_index].entries.push_back(
          {event, KeyTag(watch.key, *event, watch.key.stored_attr)});
      earliest_ = std::min(earliest_, event->time());
    }
  }

  // 2. Advance in creation order: a fresh run first, then existing runs
  // ascending by seq. A completed match is emitted as soon as it is found
  // (completion reads only the negation buffers, which the probe leaves
  // alone). Partial runs are stored only after the scan (the created-list
  // barrier), so an event never extends a run it just created.
  Scratch& scratch = ThreadScratch();
  std::vector<std::pair<int, Run>> created;  // (destination state, run)
  if (transitions[0].type_id == event->type_id()) {
    const size_t slots = automaton_->config->positions.size();
    std::vector<EventPtr>& binding = scratch.binding;
    if (binding.size() < slots) binding.resize(slots);
    const int slot = transitions[0].slot;
    binding[slot] = event;
    if (PredicatesPass(binding.data(), transitions[0], ctx)) {
      if (accepting == 1) {
        if (NegationsPass(binding.data(), ctx)) {
          EmitMatch(binding.data(), output);
        }
      } else {
        Run fresh;
        fresh.bound.assign(binding.begin(), binding.begin() + slots);
        fresh.first_time = event->time();
        fresh.last_time = event->time();
        created.emplace_back(1, std::move(fresh));
      }
    }
    binding[slot] = nullptr;
  }

  if (const std::vector<int>* states =
          automaton_->StatesAwaiting(event->type_id())) {
    // Seq-ordered merge across the (few) states awaiting this type; each
    // state's runs are already seq-ascending. The event's side of each
    // state's key is hashed once.
    std::vector<Probe>& probes = scratch.probes;
    probes.assign(states->size(), Probe());
    for (size_t j = 0; j < states->size(); ++j) {
      const EqualityKey& key = transitions[(*states)[j]].key;
      probes[j].tag = KeyTag(key, *event, key.probe_attr);
    }
    while (true) {
      int pick = -1;
      uint64_t best_seq = 0;
      for (size_t j = 0; j < states->size(); ++j) {
        const std::vector<Run>& bucket = runs_[(*states)[j]];
        if (probes[j].cursor >= bucket.size()) continue;
        const uint64_t seq = bucket[probes[j].cursor].seq;
        if (pick < 0 || seq < best_seq) {
          pick = static_cast<int>(j);
          best_seq = seq;
        }
      }
      if (pick < 0) break;
      const int state = (*states)[pick];
      Run& run = runs_[state][probes[pick].cursor++];
      if (run.key_tag != probes[pick].tag) continue;  // key conjunct false
      ctx->CountWork(1);
      if (event->time() <= run.last_time) continue;  // strict ordering
      if (event->time() - run.first_time > automaton_->config->within) {
        continue;
      }
      // Bind into the run's own empty slot; copy only a run that passes
      // and stays partial.
      const int slot = transitions[state].slot;
      run.bound[slot] = event;
      if (PredicatesPass(run.bound.data(), transitions[state], ctx)) {
        if (state + 1 == accepting) {
          if (NegationsPass(run.bound.data(), ctx)) {
            EmitMatch(run.bound.data(), output);
          }
        } else {
          Run extended = run;
          extended.last_time = event->time();
          created.emplace_back(state + 1, std::move(extended));
        }
      }
      run.bound[slot] = nullptr;
    }
  }

  // 3. Store the partial runs (creation order = future seq order).
  for (auto& [destination, run] : created) {
    StoreRun(destination, std::move(run));
  }
}

bool CompiledPatternOp::State::PredicatesPass(
    const EventPtr* bound, const AutomatonTransition& transition,
    OpExecContext* ctx) const {
  for (const AutomatonPredicate& predicate : transition.predicates) {
    ctx->CountWork(1);
    if (!predicate.expr->EvalBool(bound)) return false;
  }
  return true;
}

bool CompiledPatternOp::State::NegationsPass(EventPtr* bound,
                                             OpExecContext* ctx) const {
  for (const NegationWatch& watch : automaton_->negations) {
    const Timestamp next_time =
        bound[watch.next_positive_slot]->time();
    Timestamp lo;
    bool lo_closed = false;
    if (watch.prev_positive_slot >= 0) {
      lo = bound[watch.prev_positive_slot]->time();  // open
    } else {
      lo = next_time - automaton_->config->within;  // leading NOT: closed
      lo_closed = true;
    }
    const Timestamp hi = next_time;  // open
    const EqualityKey& key = watch.key;
    const size_t probe_tag =
        key.valid() ? bound[key.probe_slot]->value(key.probe_attr).Hash()
                    : 0;

    for (const Buffered& candidate : neg_buffers_[watch.neg_index]) {
      if (candidate.key_tag != probe_tag) continue;  // key conjunct false
      ctx->CountWork(1);
      const Timestamp t = candidate.event->time();
      if (t >= hi) break;  // buffers are time-ordered
      if (lo_closed ? t < lo : t <= lo) continue;
      bool matches = true;
      bound[watch.slot] = candidate.event;
      for (const auto& predicate : watch.predicates) {
        ctx->CountWork(1);
        if (!predicate->EvalBool(bound)) {
          matches = false;
          break;
        }
      }
      bound[watch.slot] = nullptr;
      if (matches) return false;  // a negated event blocks the match
    }
  }
  return true;
}

void CompiledPatternOp::State::EmitMatch(const EventPtr* bound,
                                         EventBatch* output) const {
  const auto& transitions = automaton_->transitions;
  std::vector<Value> values;
  const Timestamp start = bound[transitions.front().slot]->start_time();
  const Timestamp end = bound[transitions.back().slot]->end_time();
  for (const AutomatonTransition& transition : transitions) {
    const EventPtr& component = bound[transition.slot];
    values.insert(values.end(), component->values().begin(),
                  component->values().end());
  }
  output->push_back(MakeComplexEvent(automaton_->config->output_type, start,
                                     end, std::move(values)));
}

void CompiledPatternOp::State::StoreRun(int state, Run run) {
  run.seq = seq_counter_++;
  run.key_tag = RunTag(state, run);
  earliest_ = std::min(earliest_, run.first_time);
  runs_[state].push_back(std::move(run));
}

size_t CompiledPatternOp::State::RunTag(int state, const Run& run) const {
  const EqualityKey& key = automaton_->transitions[state].key;
  return key.valid() ? run.bound[key.stored_slot]->value(key.stored_attr).Hash()
                     : 0;
}

void CompiledPatternOp::State::Reset() {
  for (auto& bucket : runs_) bucket.clear();
  earliest_ = kNothing;
  for (NegationBuffer& buffer : neg_buffers_) {
    buffer.entries.clear();
    buffer.head = 0;
  }
  seq_counter_ = 0;
}

void CompiledPatternOp::State::ExpireBefore(Timestamp t) {
  // One timer: until the oldest stored time is due, nothing is touched.
  if (earliest_ >= t) return;
  for (auto& bucket : runs_) {
    std::erase_if(bucket, [t](const Run& run) { return run.first_time < t; });
  }
  for (NegationBuffer& buffer : neg_buffers_) {
    // Time-ordered: the expired events are a prefix of the live ones.
    std::vector<Buffered>& entries = buffer.entries;
    buffer.head = std::partition_point(entries.begin() + buffer.head,
                                       entries.end(),
                                       [t](const Buffered& b) {
                                         return b.event->time() < t;
                                       }) -
                  entries.begin();
    if (2 * buffer.head > entries.size()) {
      entries.erase(entries.begin(), entries.begin() + buffer.head);
      buffer.head = 0;
    }
  }
  RearmTimer();
}

void CompiledPatternOp::State::RearmTimer() {
  earliest_ = kNothing;
  for (const auto& bucket : runs_) {
    for (const Run& run : bucket) {
      earliest_ = std::min(earliest_, run.first_time);
    }
  }
  for (const NegationBuffer& buffer : neg_buffers_) {
    if (buffer.size() > 0) {
      earliest_ = std::min(earliest_, buffer.begin()->event->time());
    }
  }
}

size_t CompiledPatternOp::State::num_runs() const {
  size_t total = 0;
  for (const auto& bucket : runs_) total += bucket.size();
  return total;
}

size_t CompiledPatternOp::State::negation_buffer_size() const {
  size_t total = 0;
  for (const auto& buffer : neg_buffers_) total += buffer.size();
  return total;
}

std::string CompiledPatternOp::DebugString() const {
  return "CompiledPattern: " + automaton_->config->description;
}

void CompiledPatternOp::State::Save(StateWriter* w) const {
  // Everything the determinism contract depends on is saved verbatim —
  // in particular run seq values and the global counter, so a recovered
  // engine merges probe order exactly like the uninterrupted one.
  // The expiry timer and the key tags are derived and recomputed on load.
  w->U64(seq_counter_);
  w->U32(static_cast<uint32_t>(runs_.size()));
  for (const auto& bucket : runs_) {
    w->U32(static_cast<uint32_t>(bucket.size()));
    for (const Run& run : bucket) {
      w->U32(static_cast<uint32_t>(run.bound.size()));
      for (const EventPtr& event : run.bound) {
        w->Bool(event != nullptr);
        if (event != nullptr) WriteEvent(w, *event);
      }
      w->I64(run.first_time);
      w->I64(run.last_time);
      w->U64(run.seq);
    }
  }
  w->U32(static_cast<uint32_t>(neg_buffers_.size()));
  for (const auto& buffer : neg_buffers_) {
    w->U32(static_cast<uint32_t>(buffer.size()));
    for (const Buffered& entry : buffer) WriteEvent(w, *entry.event);
  }
}

Status CompiledPatternOp::State::Load(StateReader* r) {
  seq_counter_ = r->U64();
  uint32_t n_states = r->U32();
  if (!r->ok() || n_states != runs_.size()) {
    return Status::DataLoss("automaton state set does not match the plan");
  }
  for (size_t s = 0; s < runs_.size(); ++s) {
    runs_[s].clear();
    uint32_t n_runs = r->U32();
    for (uint32_t i = 0; r->ok() && i < n_runs; ++i) {
      Run run;
      uint32_t n_slots = r->U32();
      if (!r->ok() || n_slots != automaton_->config->positions.size()) {
        return Status::DataLoss("automaton run does not match the plan");
      }
      run.bound.resize(n_slots);
      for (uint32_t slot = 0; r->ok() && slot < n_slots; ++slot) {
        if (!r->Bool()) continue;
        run.bound[slot] = ReadEvent(r);
        if (run.bound[slot] == nullptr) {
          return Status::DataLoss("malformed automaton run event");
        }
      }
      run.first_time = r->I64();
      run.last_time = r->I64();
      run.seq = r->U64();
      if (r->ok() && s + 1 < runs_.size()) {
        const EqualityKey& key = automaton_->transitions[s].key;
        if (key.valid() &&
            (run.bound[key.stored_slot] == nullptr ||
             run.bound[key.stored_slot]->num_values() <= key.stored_attr)) {
          return Status::DataLoss("automaton run lacks its key slot");
        }
        run.key_tag = RunTag(static_cast<int>(s), run);
      }
      runs_[s].push_back(std::move(run));
    }
  }
  uint32_t n_buffers = r->U32();
  if (!r->ok() || n_buffers != neg_buffers_.size()) {
    return Status::DataLoss("negation buffers do not match the plan");
  }
  for (const NegationWatch& watch : automaton_->negations) {
    NegationBuffer& buffer = neg_buffers_[watch.neg_index];
    buffer.entries.clear();
    buffer.head = 0;
    uint32_t n = r->U32();
    for (uint32_t i = 0; r->ok() && i < n; ++i) {
      EventPtr event = ReadEvent(r);
      if (event == nullptr || (watch.key.valid() &&
                               event->num_values() <= watch.key.stored_attr)) {
        return Status::DataLoss("malformed negation buffer event");
      }
      const size_t tag = KeyTag(watch.key, *event, watch.key.stored_attr);
      buffer.entries.push_back({std::move(event), tag});
    }
  }
  RearmTimer();
  return r->ok() ? Status::Ok()
                 : Status::DataLoss("truncated automaton state");
}

double CompiledPatternOp::UnitCost() const {
  return 2.0 * static_cast<double>(automaton_->config->positions.size());
}

double CompiledPatternOp::Selectivity() const { return 0.2; }

}  // namespace caesar
