#include "compile/compiled_pattern_op.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "durability/serde.h"

namespace caesar {

namespace {
constexpr Timestamp kNoRuns = std::numeric_limits<Timestamp>::max();
}  // namespace

CompiledPatternOp::CompiledPatternOp(
    std::shared_ptr<const CompiledAutomaton> automaton)
    : Operator(Kind::kCompiledPattern), automaton_(std::move(automaton)) {
  CAESAR_CHECK(automaton_ != nullptr);
  runs_.resize(automaton_->num_states());
  state_min_first_.assign(automaton_->num_states(), kNoRuns);
  neg_buffers_.resize(automaton_->negations.size());
}

void CompiledPatternOp::Process(const EventBatch& input, EventBatch* output,
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

void CompiledPatternOp::ProcessEvent(const EventPtr& event,
                                     EventBatch* output, OpExecContext* ctx) {
  ctx->CountWork(1);
  const auto& transitions = automaton_->transitions;
  const int accepting = static_cast<int>(transitions.size());

  // 1. Feed negation buffers (time-ordered by construction).
  for (const NegationWatch& watch : automaton_->negations) {
    if (watch.type_id == event->type_id()) {
      neg_buffers_[watch.neg_index].push_back(event);
    }
  }

  // 2. Collect advancements in creation order: a fresh run first, then
  // existing runs ascending by seq. Nothing is stored or emitted until the
  // scan is over (the created-list barrier), so an event never extends a
  // run it just created.
  std::vector<std::pair<int, Run>> created;  // (destination state, run)
  if (transitions[0].type_id == event->type_id()) {
    Run fresh;
    fresh.bound.resize(automaton_->config->positions.size());
    fresh.bound[transitions[0].slot] = event;
    if (PredicatesPass(fresh.bound, transitions[0], ctx)) {
      fresh.first_time = event->time();
      fresh.last_time = event->time();
      created.emplace_back(1, std::move(fresh));
    }
  }

  if (const std::vector<int>* states =
          automaton_->StatesAwaiting(event->type_id())) {
    // Seq-ordered merge across the (few) states awaiting this type; each
    // state's runs are already seq-ascending.
    std::vector<size_t> cursor(states->size(), 0);
    while (true) {
      int pick = -1;
      uint64_t best_seq = 0;
      for (size_t j = 0; j < states->size(); ++j) {
        const std::vector<Run>& bucket = runs_[(*states)[j]];
        if (cursor[j] >= bucket.size()) continue;
        const uint64_t seq = bucket[cursor[j]].seq;
        if (pick < 0 || seq < best_seq) {
          pick = static_cast<int>(j);
          best_seq = seq;
        }
      }
      if (pick < 0) break;
      const int state = (*states)[pick];
      const Run& run = runs_[state][cursor[pick]++];
      ctx->CountWork(1);
      if (event->time() <= run.last_time) continue;  // strict ordering
      if (event->time() - run.first_time > automaton_->config->within) {
        continue;
      }
      Run extended = run;
      extended.bound[transitions[state].slot] = event;
      if (!PredicatesPass(extended.bound, transitions[state], ctx)) continue;
      extended.last_time = event->time();
      created.emplace_back(state + 1, std::move(extended));
    }
  }

  // 3. Emit completions, store the rest (creation order = future seq
  // order).
  for (auto& [destination, run] : created) {
    if (destination == accepting) {
      if (NegationsPass(&run, ctx)) EmitMatch(run, output);
    } else {
      StoreRun(destination, std::move(run));
    }
  }
}

bool CompiledPatternOp::PredicatesPass(
    const std::vector<EventPtr>& bound_scratch,
    const AutomatonTransition& transition, OpExecContext* ctx) const {
  for (const AutomatonPredicate& predicate : transition.predicates) {
    ctx->CountWork(1);
    if (!predicate.expr->EvalBool(bound_scratch.data())) return false;
  }
  return true;
}

bool CompiledPatternOp::NegationsPass(Run* run, OpExecContext* ctx) {
  for (const NegationWatch& watch : automaton_->negations) {
    const Timestamp next_time =
        run->bound[watch.next_positive_slot]->time();
    Timestamp lo;
    bool lo_closed = false;
    if (watch.prev_positive_slot >= 0) {
      lo = run->bound[watch.prev_positive_slot]->time();  // open
    } else {
      lo = next_time - automaton_->config->within;  // leading NOT: closed
      lo_closed = true;
    }
    const Timestamp hi = next_time;  // open

    for (const EventPtr& candidate : neg_buffers_[watch.neg_index]) {
      ctx->CountWork(1);
      const Timestamp t = candidate->time();
      if (t >= hi) break;  // buffers are time-ordered
      if (lo_closed ? t < lo : t <= lo) continue;
      bool matches = true;
      run->bound[watch.slot] = candidate;
      for (const auto& predicate : watch.predicates) {
        ctx->CountWork(1);
        if (!predicate->EvalBool(run->bound.data())) {
          matches = false;
          break;
        }
      }
      run->bound[watch.slot] = nullptr;
      if (matches) return false;  // a negated event blocks the match
    }
  }
  return true;
}

void CompiledPatternOp::EmitMatch(const Run& run, EventBatch* output) const {
  const auto& transitions = automaton_->transitions;
  std::vector<Value> values;
  const Timestamp start = run.bound[transitions.front().slot]->start_time();
  const Timestamp end = run.bound[transitions.back().slot]->end_time();
  for (const AutomatonTransition& transition : transitions) {
    const EventPtr& component = run.bound[transition.slot];
    values.insert(values.end(), component->values().begin(),
                  component->values().end());
  }
  output->push_back(MakeComplexEvent(automaton_->config->output_type, start,
                                     end, std::move(values)));
}

void CompiledPatternOp::StoreRun(int state, Run run) {
  run.seq = seq_counter_++;
  state_min_first_[state] = std::min(state_min_first_[state], run.first_time);
  runs_[state].push_back(std::move(run));
}

void CompiledPatternOp::Reset() {
  for (auto& bucket : runs_) bucket.clear();
  std::fill(state_min_first_.begin(), state_min_first_.end(), kNoRuns);
  for (auto& buffer : neg_buffers_) buffer.clear();
  seq_counter_ = 0;
}

void CompiledPatternOp::ExpireBefore(Timestamp t) {
  for (size_t s = 0; s < runs_.size(); ++s) {
    // Per-state timer: skip states whose oldest run is still live.
    if (state_min_first_[s] >= t) continue;
    std::erase_if(runs_[s],
                  [t](const Run& run) { return run.first_time < t; });
    Timestamp min_first = kNoRuns;
    for (const Run& run : runs_[s]) {
      min_first = std::min(min_first, run.first_time);
    }
    state_min_first_[s] = min_first;
  }
  for (auto& buffer : neg_buffers_) {
    while (!buffer.empty() && buffer.front()->time() < t) {
      buffer.pop_front();
    }
  }
}

std::unique_ptr<Operator> CompiledPatternOp::Clone() const {
  return std::make_unique<CompiledPatternOp>(automaton_);
}

size_t CompiledPatternOp::num_runs() const {
  size_t total = 0;
  for (const auto& bucket : runs_) total += bucket.size();
  return total;
}

size_t CompiledPatternOp::negation_buffer_size() const {
  size_t total = 0;
  for (const auto& buffer : neg_buffers_) total += buffer.size();
  return total;
}

std::string CompiledPatternOp::DebugString() const {
  return "CompiledPattern: " + automaton_->config->description;
}

void CompiledPatternOp::SaveState(StateWriter* w) const {
  // Everything the determinism contract depends on is saved verbatim —
  // in particular run seq values and the global counter, so a recovered
  // engine merges probe order exactly like the uninterrupted one.
  // state_min_first_ is derived and recomputed on load.
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
    for (const EventPtr& event : buffer) WriteEvent(w, *event);
  }
}

Status CompiledPatternOp::LoadState(StateReader* r) {
  seq_counter_ = r->U64();
  uint32_t n_states = r->U32();
  if (!r->ok() || n_states != runs_.size()) {
    return Status::DataLoss("automaton state set does not match the plan");
  }
  for (size_t s = 0; s < runs_.size(); ++s) {
    runs_[s].clear();
    state_min_first_[s] = kNoRuns;
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
      state_min_first_[s] = std::min(state_min_first_[s], run.first_time);
      runs_[s].push_back(std::move(run));
    }
  }
  uint32_t n_buffers = r->U32();
  if (!r->ok() || n_buffers != neg_buffers_.size()) {
    return Status::DataLoss("negation buffers do not match the plan");
  }
  for (auto& buffer : neg_buffers_) {
    buffer.clear();
    uint32_t n = r->U32();
    for (uint32_t i = 0; r->ok() && i < n; ++i) {
      EventPtr event = ReadEvent(r);
      if (event == nullptr) {
        return Status::DataLoss("malformed negation buffer event");
      }
      buffer.push_back(std::move(event));
    }
  }
  return r->ok() ? Status::Ok()
                 : Status::DataLoss("truncated automaton state");
}

double CompiledPatternOp::UnitCost() const {
  return 2.0 * static_cast<double>(automaton_->config->positions.size());
}

double CompiledPatternOp::Selectivity() const { return 0.2; }

}  // namespace caesar
