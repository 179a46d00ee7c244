#include "runtime/engine.h"

#include <algorithm>
#include <sstream>

#include "algebra/context_ops.h"
#include "analysis/analyzer.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "durability/manager.h"
#include "durability/serde.h"
#include "plan/translator.h"
#include "plan/typing.h"

namespace caesar {

namespace {

// Events the quarantine sink retains in full (its counters stay exact past
// the bound).
constexpr size_t kQuarantineCapacity = 1024;
// Points (ticks) the activity timeline keeps; older points are dropped but
// stay counted.
constexpr size_t kTimelineCapacity = 512;

uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

std::string RunStats::ToString() const {
  std::ostringstream os;
  if (!tenant.empty()) os << "tenant=" << tenant << " ";
  os << "input=" << input_events << " derived=" << derived_events
     << " max_latency=" << max_latency << "s mean_latency=" << mean_latency
     << "s cpu=" << cpu_seconds << "s ops=" << ops_executed
     << " suspended=" << suspended_chains << "/"
     << suspended_chains + executed_chains << " txns=" << transactions;
  if (parallel_ticks > 0) {
    os << " pool_ticks=" << parallel_ticks << " pool_tasks=" << parallel_tasks
       << " imbalance=" << shard_imbalance
       << " barrier_wait=" << barrier_wait_seconds << "s";
  }
  if (events_reordered > 0 || events_quarantined > 0 ||
      max_observed_lateness > 0) {
    os << " reordered=" << events_reordered
       << " dropped_late=" << events_dropped_late
       << " quarantined=" << events_quarantined
       << " max_lateness=" << max_observed_lateness;
  }
  if (wal_records > 0 || checkpoints_written > 0) {
    os << " wal_records=" << wal_records << " wal_bytes=" << wal_bytes
       << " fsyncs=" << fsyncs << " checkpoints=" << checkpoints_written
       << " wal_wait=" << wal_wait_seconds << "s";
  }
  for (const auto& [type, count] : derived_by_type) {
    os << "\n  " << type << ": " << count;
  }
  return os.str();
}

// What a partition keeps of one operator chain: its window-transition
// bookkeeping and one state slot per op (null for a stateless op).
struct ChainState {
  bool was_active = false;
  uint64_t last_active_bits = 0;  // gate bits active at last execution
  std::vector<std::unique_ptr<OperatorState>> slots;
};

namespace {

// The gate of a chain: its context ids with their history anchors (see
// plan/plan.h). Empty = always active.
struct Gate {
  std::vector<int> contexts;
  std::vector<int> anchors;
  uint64_t mask = 0;
};

Gate GateOf(const std::vector<int>& contexts, const std::vector<int>& anchors) {
  Gate gate;
  gate.contexts = contexts;
  gate.anchors = anchors.empty() ? contexts : anchors;
  for (int c : contexts) gate.mask |= uint64_t{1} << c;
  return gate;
}

// Gate of a chain, extracted from its context-window operator (used for the
// private guards of the context-independent baseline).
Gate GateOfChain(const OpChain& chain) {
  for (const auto& op : chain.ops) {
    if (op->kind() == Operator::Kind::kContextWindow) {
      const auto* window = static_cast<const ContextWindowOp*>(op.get());
      return GateOf(window->context_ids(), window->anchors());
    }
  }
  return Gate{};
}

ChainState NewChainState(const OpChain& chain) {
  ChainState state;
  state.slots.reserve(chain.ops.size());
  for (const auto& op : chain.ops) state.slots.push_back(op->NewState());
  return state;
}

void ExpireChainState(const ChainState& state, Timestamp horizon) {
  for (const auto& slot : state.slots) {
    if (slot != nullptr) slot->ExpireBefore(horizon);
  }
}

// Applies window-transition side effects to `state` before an execution at
// the current `contexts` state:
//  - window ended: context history discarded (Reset; Section 6.2);
//  - window (re)started: state accumulated while inactive discarded
//    (Reset), so all plan shapes stay semantically identical;
//  - gate composition changed while staying active (e.g. a grouped-window
//    boundary): partial matches survive exactly as far back as some
//    currently-active window's *anchor* — the start of the oldest original
//    window covering the current grouped window ("when the third window
//    begins, the partial results within the first window expire").
void ApplyWindowTransitions(const Gate& gate, const ContextBitVector& contexts,
                            ChainState* state) {
  uint64_t active_bits = contexts.bits() & gate.mask;
  bool active_now = active_bits != 0;

  if (state->was_active != active_now) {  // the window ended or started
    for (const auto& slot : state->slots) {
      if (slot != nullptr) slot->Reset();
    }
  } else if (active_now && active_bits != state->last_active_bits) {
    Timestamp horizon = contexts.time();
    for (size_t i = 0; i < gate.contexts.size(); ++i) {
      if (contexts.IsActive(gate.contexts[i])) {
        horizon = std::min(horizon, contexts.ActiveSince(gate.anchors[i]));
      }
    }
    ExpireChainState(*state, horizon);
  }
  state->was_active = active_now;
  state->last_active_bits = active_bits;
}

}  // namespace

// The program of one compiled query, built once per engine and shared by
// every partition.
struct Engine::QueryProgram {
  const CompiledQuery* spec = nullptr;  // into plan_
  Gate gate;                            // of spec->chain
  std::vector<Gate> guard_gates;        // parallel to spec->guards
  // First row of this query's ops in the plan-order (query, op) row space
  // of TransactionScratch::operators and CollectStatistics.
  size_t stats_row_base = 0;
};

// What one partition keeps of one query: the state its program does not
// share.
struct Engine::QueryState {
  ChainState chain;
  // Parallel to spec->guards; their transitions follow private_contexts.
  std::vector<ChainState> guards;
  // Query-private context vector (context-independent baseline only). A
  // pointer, not an inline optional: every query of every partition holds
  // this field, and only baseline plans fill it.
  std::unique_ptr<ContextBitVector> private_contexts;
};

struct Engine::PartitionState {
  PartitionState(uint64_t key, const ContextBitVector& contexts)
      : key(key), contexts(contexts) {}

  uint64_t key;
  ContextBitVector contexts;
  std::vector<QueryState> queries;  // parallel to Engine::programs_
  // Cumulative counters, never reset (Run takes deltas).
  uint64_t ops_counter = 0;
  int64_t total_suspended = 0;
  int64_t total_executed = 0;
  // The batch that last claimed a run slot for this partition, and the
  // slot (scheduler thread only).
  uint64_t batch_seq = 0;
  size_t run_slot = 0;
};

Status EngineOptions::Validate() const {
  if (num_threads < 1) {
    return Status::InvalidArgument(
        "EngineOptions::num_threads must be >= 1, got " +
        std::to_string(num_threads));
  }
  if (reorder_slack < 0) {
    return Status::InvalidArgument(
        "EngineOptions::reorder_slack must be >= 0, got " +
        std::to_string(reorder_slack));
  }
  if (ingest_policy == IngestPolicy::kStrict && reorder_slack > 0) {
    return Status::InvalidArgument(
        "EngineOptions::reorder_slack must be 0 under IngestPolicy::kStrict, "
        "got " + std::to_string(reorder_slack));
  }
  if (!(accel > 0.0)) {
    return Status::InvalidArgument(
        "EngineOptions::accel must be positive, got " +
        std::to_string(accel));
  }
  if (gc_interval < 1) {
    return Status::InvalidArgument(
        "EngineOptions::gc_interval must be >= 1, got " +
        std::to_string(gc_interval));
  }
  if (gc_horizon < 0) {
    return Status::InvalidArgument(
        "EngineOptions::gc_horizon must be >= 0, got " +
        std::to_string(gc_horizon));
  }
  CAESAR_RETURN_IF_ERROR(durability.Validate());
  return Status::Ok();
}

Result<std::unique_ptr<Engine>> Engine::Create(ExecutablePlan plan,
                                               EngineOptions options) {
  CAESAR_RETURN_IF_ERROR(options.Validate());
  return std::make_unique<Engine>(std::move(plan), std::move(options));
}

Result<std::unique_ptr<Engine>> Engine::Create(const CaesarModel& model,
                                               const PlanOptions& plan_options,
                                               EngineOptions options) {
  CAESAR_RETURN_IF_ERROR(options.Validate());
  // One typing for the analyzer and the plan build; a defect is
  // FailedPrecondition whether the analyzer or the translator finds it.
  const ModelTyping typing = TypeModel(model);
  std::vector<std::string> retained;
  if (options.analysis == AnalysisMode::kStrict) {
    AnalyzerOptions analyzer_options;
    analyzer_options.source_name = "<model>";
    analyzer_options.include_notes = false;
    for (const Diagnostic& diag :
         AnalyzeModel(model, typing, analyzer_options)) {
      if (diag.severity == DiagSeverity::kError) {
        return Status::FailedPrecondition(FormatDiagnostic(diag));
      }
      retained.push_back(FormatDiagnostic(diag));
    }
  }
  CAESAR_ASSIGN_OR_RETURN(ExecutablePlan plan,
                          TranslateModel(model, typing, plan_options));
  auto engine = std::make_unique<Engine>(std::move(plan), std::move(options));
  engine->analysis_diagnostics_ = std::move(retained);
  return engine;
}

Engine::Engine(ExecutablePlan plan, EngineOptions options)
    : plan_(std::move(plan)),
      options_(std::move(options)),
      quarantine_(kQuarantineCapacity) {
  CAESAR_CHECK_OK(options_.Validate());
  // Resolve partition attribute indices for every type known now, so the
  // cache is read-only on the hot path (see header comment).
  if (!plan_.partition_by.empty()) {
    partition_attr_cache_.resize(plan_.registry->num_types());
    for (TypeId id = 0; id < plan_.registry->num_types(); ++id) {
      ResolvePartitionAttrs(id);
    }
  }
  executor_ = options_.shared_executor != nullptr
                  ? options_.shared_executor
                  : std::make_shared<ShardedExecutor>(options_.num_threads);
  // Metric shards are keyed by executing worker id, so the shard count
  // follows the pool actually in use (a shared pool may be wider than
  // num_threads).
  transaction_scratch_.resize(static_cast<size_t>(executor_->num_workers()));
  if (options_.metrics >= MetricsGranularity::kEngine) {
    timeline_ = std::make_unique<Timeline>(kTimelineCapacity);
  }
  size_t rows = 0;
  for (const auto* queries : {&plan_.deriving, &plan_.processing}) {
    for (const CompiledQuery& spec : *queries) {
      QueryProgram& program = programs_.emplace_back();
      program.spec = &spec;
      program.gate = GateOf(spec.contexts, spec.anchors);
      for (const OpChain& guard : spec.guards) {
        program.guard_gates.push_back(GateOfChain(guard));
      }
      program.stats_row_base = rows;
      rows += spec.chain.ops.size();
    }
  }
  if (options_.gather_statistics ||
      options_.metrics >= MetricsGranularity::kOperator) {
    for (TransactionScratch& shard : transaction_scratch_) {
      shard.operators.resize(rows);
    }
  }
  if (options_.tracing) {
    trace_ = std::make_unique<TraceRecorder>();
  }
}

Engine::~Engine() = default;

int Engine::num_partitions() const {
  return static_cast<int>(partitions_.size());
}

std::vector<uint64_t> Engine::partition_keys() const {
  std::vector<uint64_t> keys;
  keys.reserve(partitions_.size());
  for (const auto& [key, partition] : partitions_) keys.push_back(key);
  return keys;
}

const ContextBitVector* Engine::partition_contexts(uint64_t key) const {
  auto it = partitions_.find(key);
  return it == partitions_.end() ? nullptr : &it->second->contexts;
}

Engine::PartitionState* Engine::GetOrCreatePartition(uint64_t key) {
  auto it = partitions_.find(key);
  if (it != partitions_.end()) return it->second.get();

  const ContextBitVector initial(std::max(plan_.num_contexts, 1),
                                 std::max(plan_.default_context, 0));
  auto partition = std::make_unique<PartitionState>(key, initial);
  partition->queries.reserve(programs_.size());
  for (const QueryProgram& program : programs_) {
    QueryState& state = partition->queries.emplace_back();
    state.chain = NewChainState(program.spec->chain);
    for (const OpChain& guard : program.spec->guards) {
      state.guards.push_back(NewChainState(guard));
    }
    if (!state.guards.empty()) {
      state.private_contexts = std::make_unique<ContextBitVector>(initial);
    }
  }
  PartitionState* result = partition.get();
  partitions_.emplace(key, std::move(partition));
  return result;
}

void Engine::ResolvePartitionAttrs(TypeId type_id) {
  const Schema& schema = plan_.registry->type(type_id).schema;
  std::vector<int>& indices = partition_attr_cache_[type_id];
  indices.clear();
  indices.reserve(plan_.partition_by.size());
  for (const std::string& attr : plan_.partition_by) {
    indices.push_back(schema.IndexOf(attr));
  }
}

uint64_t Engine::PartitionKeyOf(const Event& event) {
  if (plan_.partition_by.empty()) return 0;
  TypeId type_id = event.type_id();
  if (type_id >= static_cast<TypeId>(partition_attr_cache_.size()) ||
      partition_attr_cache_[type_id].empty()) {
    // Type registered after construction: lazy fallback, scheduler thread
    // only (distribution precedes the batch's dispatch).
    if (type_id >= static_cast<TypeId>(partition_attr_cache_.size())) {
      partition_attr_cache_.resize(type_id + 1);
    }
    ResolvePartitionAttrs(type_id);
  }
  const std::vector<int>& indices = partition_attr_cache_[type_id];
  uint64_t key = 0x12345678;
  for (int index : indices) {
    if (index < 0) continue;
    key = HashCombine(key, event.value(index).Hash());
  }
  return key;
}

bool Engine::ClassifyMalformed(const Event& event,
                               QuarantineReason* reason) const {
  if (event.type_id() < 0 ||
      event.type_id() >= static_cast<TypeId>(plan_.registry->num_types())) {
    *reason = QuarantineReason::kUnknownType;
    return true;
  }
  if (event.time() < 0) {
    *reason = QuarantineReason::kNegativeTime;
    return true;
  }
  if (event.end_time() < event.start_time()) {
    *reason = QuarantineReason::kInvertedInterval;
    return true;
  }
  return false;
}

void Engine::QuarantineEvent(EventPtr event, QuarantineReason reason) {
  // Partition attribution needs a registered type; unknown types land in
  // partition 0 (unpartitionable).
  uint64_t key = reason == QuarantineReason::kUnknownType
                     ? 0
                     : PartitionKeyOf(*event);
  if (reason == QuarantineReason::kLateBeyondSlack) {
    ++ingest_metrics_.dropped_late;
  }
  ++ingest_metrics_.quarantined;
  quarantine_.Add(std::move(event), reason, key);
}

Status Engine::IngestBatch(const EventBatch& input, EventBatch* admitted,
                           const EventBatch** effective, RunStats* stats) {
  *effective = &input;
  AdmissionWatermark mark = Watermark();
  if (options_.ingest_policy == IngestPolicy::kStrict) {
    // The slack-0 walk (Validate pins the slack to 0) rejecting instead of
    // quarantining: nothing is mutated, and the batch is processed in full
    // or rejected in full. A malformed event is reported before disorder.
    ptrdiff_t refused = -1;
    for (size_t i = 0; i < input.size(); ++i) {
      QuarantineReason reason;
      if (ClassifyMalformed(*input[i], &reason)) {
        return Status::InvalidArgument(
            "strict ingest: malformed event at index " + std::to_string(i) +
            " (" + QuarantineReasonName(reason) + ", " +
            DiagCodeName(QuarantineDiagCode(reason)) +
            "); use IngestPolicy::kReorder to quarantine instead");
      }
      if (refused < 0 && !mark.Admit(input[i]->time())) {
        refused = static_cast<ptrdiff_t>(i);
      }
    }
    // Past the first event the walk refuses only a time stamp below its
    // predecessor; the first event only below the last processed tick.
    // Equal time is admitted: a caller may continue a tick it already ran.
    if (refused > 0) {
      return Status::FailedPrecondition(
          "strict ingest: input not time-ordered at index " +
          std::to_string(refused) + ": time " +
          std::to_string(input[refused]->time()) + " after " +
          std::to_string(input[refused - 1]->time()) +
          "; use IngestPolicy::kReorder with a lateness slack to "
          "re-sequence bounded disorder");
    }
    if (refused == 0) {
      return Status::FailedPrecondition(
          "strict ingest: batch starts at time " +
          std::to_string(input.front()->time()) +
          ", before the last processed tick " +
          std::to_string(last_processed_tick_) +
          "; use IngestPolicy::kReorder to degrade instead (slack 0 drops "
          "late events)");
    }
    ingest_metrics_.admitted += static_cast<int64_t>(input.size());
    return Status::Ok();
  }

  admitted->reserve(input.size());
  Timestamp run_max_lateness = 0;
  for (const EventPtr& event : input) {
    QuarantineReason reason;
    if (ClassifyMalformed(*event, &reason)) {
      QuarantineEvent(event, reason);
      continue;
    }
    Timestamp t = event->time();
    const bool late = mark.late(t);
    if (late) {
      Timestamp lateness = mark.high_water() - t;
      run_max_lateness = std::max(run_max_lateness, lateness);
      ingest_metrics_.max_observed_lateness =
          std::max(ingest_metrics_.max_observed_lateness, lateness);
    }
    if (!mark.Admit(t)) {
      QuarantineEvent(event, QuarantineReason::kLateBeyondSlack);
      continue;
    }
    if (late) ++ingest_metrics_.reordered;
    admitted->push_back(event);
  }
  // Run processes its batch to completion: the admitted events run in
  // (time, arrival) order.
  auto by_time = [](const EventPtr& a, const EventPtr& b) {
    return a->time() < b->time();
  };
  if (!std::is_sorted(admitted->begin(), admitted->end(), by_time)) {
    std::stable_sort(admitted->begin(), admitted->end(), by_time);
  }
  ingest_metrics_.admitted += static_cast<int64_t>(admitted->size());
  stats->max_observed_lateness = run_max_lateness;
  *effective = admitted;
  return Status::Ok();
}

AdmissionWatermark Engine::Watermark() const {
  return AdmissionWatermark(any_tick_processed_, last_processed_tick_,
                            options_.reorder_slack);
}

size_t Engine::RunnablePrefix(const EventBatch& pending) const {
  // Malformed and inadmissible events hold nothing back.
  const size_t n = pending.size();
  AdmissionWatermark mark = Watermark();
  std::vector<char> admissible(n, 0);
  for (size_t i = 0; i < n; ++i) {
    QuarantineReason reason;
    admissible[i] = !ClassifyMalformed(*pending[i], &reason) &&
                    mark.Admit(pending[i]->time());
  }
  // bound[k]: the earliest admissible time in pending[k, n), capped by the
  // watermark every later arrival is at or after.
  std::vector<Timestamp> bound(n + 1);
  bound[n] = mark.watermark();
  for (size_t i = n; i-- > 0;) {
    bound[i] = admissible[i] ? std::min(bound[i + 1], pending[i]->time())
                             : bound[i + 1];
  }
  // The largest k whose latest admissible event precedes bound[k].
  bool any = false;
  Timestamp latest = 0;
  size_t runnable = 0;
  for (size_t k = 0; k <= n; ++k) {
    if (k > 0 && admissible[k - 1]) {
      latest = any ? std::max(latest, pending[k - 1]->time())
                   : pending[k - 1]->time();
      any = true;
    }
    if (!any || latest < bound[k]) runnable = k;
  }
  return runnable;
}

Result<RunStats> Engine::Run(const EventBatch& raw_input,
                             EventBatch* outputs) {
  RunStats stats;
  stats.tenant = options_.tenant;
  stats.input_events = static_cast<int64_t>(raw_input.size());
  const IngestMetrics ingest_before = ingest_metrics_;
  // Lazy durability open: I/O failures surface here as a Status instead of
  // aborting construction. Recover installs the manager itself, and replay
  // must not re-log what it reads.
  if (options_.durability.mode != DurabilityMode::kOff &&
      durability_ == nullptr && !replaying_) {
    CAESAR_ASSIGN_OR_RETURN(durability_,
                            DurabilityManager::Open(options_.durability));
  }
  // A latched WAL failure refuses every later Run, whatever its input, so
  // the caller is pointed at Engine::Recover before any ingest check.
  if (durability_ != nullptr && !replaying_) {
    CAESAR_RETURN_IF_ERROR(durability_->CheckNotFailed());
  }
  const DurabilityCounters durability_before =
      durability_ != nullptr ? durability_->counters() : DurabilityCounters{};
  // Install the trace sink for the scheduler thread (no-op when null).
  TraceScope trace_scope(trace_.get());
  CAESAR_TRACE_SPAN("run");
  const bool tick_telemetry = options_.metrics >= MetricsGranularity::kEngine;
  EventBatch admitted;
  const EventBatch* effective = nullptr;
  {
    CAESAR_TRACE_SPAN("ingest");
    Stopwatch ingest_watch;
    CAESAR_RETURN_IF_ERROR(
        IngestBatch(raw_input, &admitted, &effective, &stats));
    if (tick_telemetry) {
      tick_metrics_.ingest_seconds.Add(ingest_watch.ElapsedSeconds());
    }
  }
  const EventBatch& input = *effective;

  // The plan fixes the admission floor and the GC clock, so every field of
  // the commit snapshot is final before any partition state mutates (the
  // virtual clock, wall-clock telemetry, keeps its batch-start value). One
  // job hands the log thread the tick records and the commit that seals
  // them (group commit, fsync per the policy); it writes them while this
  // thread distributes, dispatches and merges.
  PlanBatch(input);
  if (!gc_points_.empty()) {
    last_gc_ = batch_ticks_[gc_points_.back().tick].time;
  }
  if (!batch_ticks_.empty()) {
    last_processed_tick_ = batch_ticks_.back().time;
    any_tick_processed_ = true;
  }
  const bool logging = durability_ != nullptr && !replaying_;
  if (logging) {
    if (log_thread_ == nullptr) {
      log_thread_ = std::make_unique<WalLogThread>(durability_.get());
    }
    wal_ticks_.clear();
    for (const BatchTick& tick : batch_ticks_) {
      wal_ticks_.push_back(
          {tick.time, input.data() + tick.first_event, tick.num_events});
    }
    log_thread_->Post(wal_ticks_, SerializeIngestSnapshot());
  }
  {
    CAESAR_TRACE_SPAN("distribute");
    DistributeBatch(input);
  }

  // One dispatch runs the whole batch: whichever participant claims a
  // partition's run executes all of its transactions in tick order. A
  // partition's state is single-writer without locks, and metrics record
  // into the executing worker's shard to keep that rule.
  const ExecutorMetrics exec_before = executor_->metrics();
  if (!task_runs_.empty()) {
    CAESAR_TRACE_SPAN("dispatch");
    executor_->Execute(task_runs_.size(), task_weights_.data(),
                       [&](size_t i, int worker) {
                         TraceScope worker_trace(trace_.get());
                         ProcessPartitionRun(task_runs_[i], worker);
                       });
    stats.cpu_seconds = executor_->metrics().barrier_wait.sum() -
                        exec_before.barrier_wait.sum();
    if (tick_telemetry) {
      tick_metrics_.barrier_wait_seconds.Add(stats.cpu_seconds);
    }
  }
  MergeBatch(outputs, &stats);

  // The Run returns OK only once its commit is durable. A failed append or
  // commit leaves this batch in memory and unsealed in the log; the
  // manager has latched, so every later Run is refused until Recover.
  // Then the checkpoint cadence gets its chance at the boundary.
  if (logging) {
    Status logged;
    {
      CAESAR_TRACE_SPAN("wal_wait");
      Stopwatch wait_watch;
      logged = log_thread_->Wait();
      stats.wal_wait_seconds = wait_watch.ElapsedSeconds();
    }
    CAESAR_RETURN_IF_ERROR(logged);
    if (tick_telemetry) {
      tick_metrics_.wal_wait_seconds.Add(stats.wal_wait_seconds);
    }
    if (any_tick_processed_ &&
        durability_->ShouldCheckpoint(last_processed_tick_)) {
      CAESAR_RETURN_IF_ERROR(
          durability_->WriteCheckpoint(last_processed_tick_,
                                       SerializeState()));
    }
  }

  stats.partitions = static_cast<int64_t>(partitions_.size());
  const ExecutorMetrics& exec = executor_->metrics();
  stats.parallel_ticks =
      static_cast<int64_t>(exec.dispatches - exec_before.dispatches);
  stats.parallel_tasks = static_cast<int64_t>(exec.tasks - exec_before.tasks);
  stats.shard_imbalance =
      static_cast<int64_t>(exec.imbalance - exec_before.imbalance);
  stats.barrier_wait_seconds = stats.cpu_seconds;
  stats.events_reordered = ingest_metrics_.reordered - ingest_before.reordered;
  stats.events_dropped_late =
      ingest_metrics_.dropped_late - ingest_before.dropped_late;
  stats.events_quarantined =
      ingest_metrics_.quarantined - ingest_before.quarantined;
  if (durability_ != nullptr) {
    const DurabilityCounters& dur = durability_->counters();
    stats.wal_records = dur.wal_records - durability_before.wal_records;
    stats.wal_bytes = dur.wal_bytes - durability_before.wal_bytes;
    stats.fsyncs = dur.fsyncs - durability_before.fsyncs;
    stats.checkpoints_written =
        dur.checkpoints_written - durability_before.checkpoints_written;
  }
  return stats;
}

void Engine::PlanBatch(const EventBatch& input) {
  batch_ticks_.clear();
  gc_points_.clear();
  Timestamp last_gc = last_gc_;
  for (size_t i = 0; i < input.size();) {
    BatchTick tick;
    tick.time = input[i]->time();
    tick.first_event = i;
    while (i < input.size() && input[i]->time() == tick.time) ++i;
    tick.num_events = i - tick.first_event;
    batch_ticks_.push_back(tick);
    // Periodic garbage collection of stale operator state, after the tick.
    if (tick.time - last_gc >= options_.gc_interval) {
      last_gc = tick.time;
      // Clamp: early in the stream (t < gc_horizon) the naive t - horizon
      // underflows below the epoch; nothing can be older than time 0, so 0
      // is the correct cut-off.
      GcPoint gc;
      gc.tick = batch_ticks_.size() - 1;
      gc.horizon = tick.time >= options_.gc_horizon
                       ? tick.time - options_.gc_horizon
                       : 0;
      gc_points_.push_back(gc);
    }
  }
}

Engine::PartitionRun& Engine::ClaimRun(PartitionState* partition,
                                       size_t first_tick) {
  if (partition->batch_seq == batch_seq_) return runs_[partition->run_slot];
  partition->batch_seq = batch_seq_;
  partition->run_slot = num_runs_;
  if (num_runs_ == runs_.size()) runs_.emplace_back();
  PartitionRun& run = runs_[num_runs_++];
  run.partition = partition;
  // A partition created at batch tick m did not exist at the batch's
  // earlier GC points, so it skips them.
  run.first_gc = 0;
  while (run.first_gc < gc_points_.size() &&
         gc_points_[run.first_gc].tick < first_tick) {
    ++run.first_gc;
  }
  run.ops_before = partition->ops_counter;
  run.executed_before = partition->total_executed;
  run.suspended_before = partition->total_suspended;
  return run;
}

void Engine::DistributeBatch(const EventBatch& input) {
  // The event distributor + event queues of Fig. 8, once per batch: every
  // event is appended to its partition's run, opening a transaction at the
  // partition's first event of each tick.
  ++batch_seq_;
  num_runs_ = 0;
  for (size_t k = 0; k < batch_ticks_.size(); ++k) {
    BatchTick& tick = batch_ticks_[k];
    for (size_t e = tick.first_event; e < tick.first_event + tick.num_events;
         ++e) {
      const size_t known = partitions_.size();
      PartitionState* partition =
          GetOrCreatePartition(PartitionKeyOf(*input[e]));
      PartitionRun& run =
          ClaimRun(partition, partitions_.size() > known ? k : 0);
      if (run.transactions.empty() || run.transactions.back().tick != k) {
        Transaction txn;
        txn.tick = static_cast<uint32_t>(k);
        run.transactions.push_back(txn);
        ++tick.num_transactions;
      }
      run.events.push_back(input[e]);
      ++run.transactions.back().num_events;
    }
  }
  // Partitions idle in this batch still take its GC points.
  if (!gc_points_.empty()) {
    for (auto& [key, partition] : partitions_) ClaimRun(partition.get(), 0);
  }
  gc_seconds_.assign(num_runs_ * gc_points_.size(), 0.0);

  // Task order: partition key ascending. Task i's weight is its run's
  // event count: the pool claims the heaviest runs first (ties in key
  // order), and its imbalance metrics would miss a hot partition on task
  // counts.
  task_runs_.resize(num_runs_);
  for (size_t r = 0; r < num_runs_; ++r) {
    task_runs_[r] = static_cast<uint32_t>(r);
  }
  std::sort(task_runs_.begin(), task_runs_.end(), [&](uint32_t a, uint32_t b) {
    return runs_[a].partition->key < runs_[b].partition->key;
  });
  task_weights_.clear();
  for (uint32_t r : task_runs_) {
    task_weights_.push_back(static_cast<uint64_t>(runs_[r].events.size()));
  }

  // Merge order: a counting sort of the transactions by tick over runs
  // taken in key order yields (tick, partition key) — tick-major order.
  size_t total = 0;
  for (BatchTick& tick : batch_ticks_) {
    tick.first_merged = total;
    total += tick.num_transactions;
  }
  merge_order_.resize(total);
  merge_cursor_.resize(batch_ticks_.size());
  for (size_t k = 0; k < batch_ticks_.size(); ++k) {
    merge_cursor_[k] = batch_ticks_[k].first_merged;
  }
  for (uint32_t r : task_runs_) {
    const std::vector<Transaction>& transactions = runs_[r].transactions;
    for (size_t x = 0; x < transactions.size(); ++x) {
      merge_order_[merge_cursor_[transactions[x].tick]++] = {
          r, static_cast<uint32_t>(x)};
    }
  }
}

void Engine::MergeBatch(EventBatch* outputs, RunStats* stats) {
  // Tick by tick, on the scheduler thread: derived events in (tick,
  // partition key) order, the virtual clock, the observer, and the per-tick
  // telemetry. The dispatch barrier ordered every worker write before this.
  CAESAR_TRACE_SPAN("merge");
  const bool tick_telemetry = options_.metrics >= MetricsGranularity::kEngine;
  const bool collect = outputs != nullptr;
  const double tick_wall = 1.0 / options_.accel;  // one tick = 1 sim second
  RunningStats latency;
  size_t next_gc = 0;
  for (size_t k = 0; k < batch_ticks_.size(); ++k) {
    const BatchTick& tick = batch_ticks_[k];
    double cost = 0.0;
    int64_t tick_derived = 0;
    int64_t context_switches = 0;
    int64_t executed = 0;
    int64_t suspended = 0;
    observer_scratch_.clear();
    for (size_t m = tick.first_merged;
         m < tick.first_merged + tick.num_transactions; ++m) {
      PartitionRun& run = runs_[merge_order_[m].run];
      const Transaction& txn = run.transactions[merge_order_[m].index];
      cost += txn.cost_seconds;
      tick_derived += static_cast<int64_t>(txn.num_derived);
      context_switches += txn.context_switches;
      executed += txn.executed_chains;
      suspended += txn.suspended_chains;
      for (size_t d = txn.first_derived;
           d < txn.first_derived + txn.num_derived; ++d) {
        EventPtr& event = run.derived[d];
        const auto type = static_cast<size_t>(event->type_id());
        if (type >= derived_type_counts_.size()) {
          derived_type_counts_.resize(type + 1, 0);
        }
        ++derived_type_counts_[type];
        if (observer_) {
          if (collect) outputs->push_back(event);
          observer_scratch_.push_back(std::move(event));
        } else if (collect) {
          outputs->push_back(std::move(event));
        }
      }
    }
    stats->derived_events += tick_derived;

    // Virtual clock: queueing latency under the modeled arrival schedule,
    // the tick's cost being its transactions' summed wall time.
    const double arrival = static_cast<double>(tick.time) * tick_wall;
    vclock_completion_ = std::max(vclock_completion_, arrival) + cost;
    latency.Add((vclock_completion_ - arrival) * options_.accel);

    if (observer_) observer_(tick.time, observer_scratch_);

    // Per-tick telemetry: the deterministic histograms, the wall-clock
    // stats, one timeline point, and the GC points that followed the tick.
    if (!tick_telemetry) continue;
    ++tick_metrics_.ticks;
    tick_metrics_.events_per_tick.Add(tick.num_events);
    tick_metrics_.partitions_per_tick.Add(tick.num_transactions);
    tick_metrics_.derived_per_tick.Add(static_cast<uint64_t>(tick_derived));
    tick_metrics_.context_switches_per_tick.Add(
        static_cast<uint64_t>(context_switches));
    tick_metrics_.scheduler_seconds.Add(cost);
    TimelinePoint point;
    point.time = tick.time;
    point.input_events = static_cast<int64_t>(tick.num_events);
    point.derived_events = tick_derived;
    point.partitions = static_cast<int64_t>(tick.num_transactions);
    point.executed_chains = executed;
    point.suspended_chains = suspended;
    point.context_switches = context_switches;
    timeline_->Push(point);
    for (; next_gc < gc_points_.size() && gc_points_[next_gc].tick == k;
         ++next_gc) {
      double pause = 0.0;
      for (size_t r = 0; r < num_runs_; ++r) {
        pause += gc_seconds_[r * gc_points_.size() + next_gc];
      }
      ++tick_metrics_.gc_runs;
      tick_metrics_.gc_horizon_min =
          std::min(tick_metrics_.gc_horizon_min, gc_points_[next_gc].horizon);
      tick_metrics_.gc_pause_seconds.Add(pause);
    }
  }
  observer_scratch_.clear();
  stats->max_latency = latency.max();
  stats->mean_latency = latency.mean();

  // Per-Run counters from the partitions this batch touched, then release
  // the batch's event references (the buffers keep their capacity).
  for (size_t r = 0; r < num_runs_; ++r) {
    PartitionRun& run = runs_[r];
    const PartitionState& partition = *run.partition;
    stats->ops_executed += partition.ops_counter - run.ops_before;
    stats->executed_chains += partition.total_executed - run.executed_before;
    stats->suspended_chains +=
        partition.total_suspended - run.suspended_before;
    stats->transactions += static_cast<int64_t>(run.transactions.size());
    run.events.clear();
    run.derived.clear();
    run.transactions.clear();
  }
  for (size_t type = 0; type < derived_type_counts_.size(); ++type) {
    if (derived_type_counts_[type] == 0) continue;
    stats->derived_by_type[plan_.registry->type(static_cast<TypeId>(type))
                               .name] += derived_type_counts_[type];
    derived_type_counts_[type] = 0;
  }
}

void Engine::ProcessPartitionRun(size_t r, int worker) {
  PartitionRun* run = &runs_[r];
  PartitionState* partition = run->partition;
  const bool telemetry = timeline_ != nullptr;
  double* gc_seconds = gc_seconds_.data() + r * gc_points_.size();
  size_t gc = run->first_gc;
  // One clock read per transaction (and per GC point) splits the run into
  // per-transaction costs for the virtual clock.
  Stopwatch watch;
  auto collect_through = [&](size_t tick) {
    for (; gc < gc_points_.size() && gc_points_[gc].tick < tick; ++gc) {
      CollectGarbage(partition, gc_points_[gc].horizon);
      gc_seconds[gc] = watch.Lap();
    }
  };
  const EventPtr* events = run->events.data();
  for (Transaction& txn : run->transactions) {
    // GC points of earlier ticks come first: each followed its tick.
    collect_through(txn.tick);
    const uint64_t version = partition->contexts.version();
    const int64_t executed = partition->total_executed;
    const int64_t suspended = partition->total_suspended;
    const size_t derived_before = run->derived.size();
    {
      CAESAR_TRACE_SPAN("transaction");
      ProcessTransaction(partition, events, txn.num_events, &run->derived,
                         worker);
    }
    events += txn.num_events;
    txn.first_derived = static_cast<uint32_t>(derived_before);
    txn.num_derived =
        static_cast<uint32_t>(run->derived.size() - derived_before);
    txn.cost_seconds = watch.Lap();
    if (telemetry) {
      txn.context_switches =
          static_cast<uint32_t>(partition->contexts.version() - version);
      txn.executed_chains =
          static_cast<uint32_t>(partition->total_executed - executed);
      txn.suspended_chains =
          static_cast<uint32_t>(partition->total_suspended - suspended);
    }
  }
  collect_through(batch_ticks_.size());
}

void Engine::CollectGarbage(PartitionState* partition, Timestamp horizon) {
  CAESAR_TRACE_SPAN("gc");
  for (const QueryState& query : partition->queries) {
    ExpireChainState(query.chain, horizon);
    for (const ChainState& guard : query.guards) {
      ExpireChainState(guard, horizon);
    }
  }
}

void Engine::ProcessTransaction(PartitionState* partition,
                                const EventPtr* events, size_t count,
                                EventBatch* derived, int worker) {
  TransactionScratch& shard = transaction_scratch_[worker];
  EventBatch& pool = shard.pool;
  pool.assign(events, events + count);
  const size_t derived_before = derived->size();

  // Phase A: context derivation. Phase B: context processing. Queries see
  // the pool slice that exists when their turn comes (topological order
  // guarantees producers run first).
  for (size_t q = 0; q < programs_.size(); ++q) {
    const QueryProgram& program = programs_[q];
    const EventBatch& out =
        RunQuery(partition, program, &partition->queries[q], pool, worker);
    if (program.spec->output_type != kInvalidTypeId) {
      pool.insert(pool.end(), out.begin(), out.end());
      derived->insert(derived->end(), out.begin(), out.end());
    }
  }

  // Each transaction records into the shard of the worker that *executed* it.
  if (options_.metrics >= MetricsGranularity::kEngine) {
    shard.transaction_events.Add(count);
    shard.transaction_derived.Add(derived->size() - derived_before);
  }
}

const EventBatch& Engine::RunQuery(PartitionState* partition,
                                   const QueryProgram& program,
                                   QueryState* query, const EventBatch& pool,
                                   int worker) {
  TransactionScratch& scratch = transaction_scratch_[worker];
  OpExecContext ctx;
  ctx.ops_counter = &partition->ops_counter;

  // Context-independent baseline: private guards re-derive the contexts.
  if (query->private_contexts != nullptr) {
    ctx.contexts = query->private_contexts.get();
    for (size_t g = 0; g < query->guards.size(); ++g) {
      // Guards mirror the shared deriving queries, including their window
      // transition bookkeeping against the private vector.
      ChainState& guard = query->guards[g];
      ApplyWindowTransitions(program.guard_gates[g], *query->private_contexts,
                             &guard);
      const auto& ops = program.spec->guards[g].ops;
      const EventBatch* current = &pool;
      for (size_t o = 0; o < ops.size(); ++o) {
        scratch.guard_out.clear();
        ops[o]->Process(*current, &scratch.guard_out, &ctx,
                        guard.slots[o].get());
        std::swap(scratch.guard_in, scratch.guard_out);
        current = &scratch.guard_in;
        if (current->empty()) break;
      }
    }
  } else {
    ctx.contexts = &partition->contexts;
  }

  // Window-transition bookkeeping runs after the guards so the private
  // vector (context-independent mode) is already up to date for this time
  // stamp, mirroring the shared derivation-before-processing order.
  ApplyWindowTransitions(program.gate, *ctx.contexts, &query->chain);

  // Main chain; an empty intermediate batch skips the rest of the chain —
  // with the context window pushed down this is the suspension of the whole
  // query during foreign contexts.
  // Operator statistics go into the executing worker's shard rows
  // (hoisted pointer: one base computation per chain, not per op). Work
  // units are the deterministic execution-time measure of the cost model —
  // wall clock is tick-level telemetry.
  OperatorStats* stats_rows =
      scratch.operators.empty()
          ? nullptr
          : scratch.operators.data() + program.stats_row_base;
  const bool op_histograms = options_.metrics >= MetricsGranularity::kOperator;
  EventBatch& ping = scratch.ping;
  EventBatch& pong = scratch.pong;
  const EventBatch* current = &pool;
  bool suspended_at_bottom = false;
  const auto& ops = program.spec->chain.ops;
  for (size_t o = 0; o < ops.size(); ++o) {
    pong.clear();
    uint64_t work_before = partition->ops_counter;
    ops[o]->Process(*current, &pong, &ctx, query->chain.slots[o].get());
    if (stats_rows != nullptr) {
      OperatorStats& stats = stats_rows[o];
      const uint64_t work = partition->ops_counter - work_before;
      ++stats.invocations;
      stats.input_events += current->size();
      stats.output_events += pong.size();
      stats.work_units += work;
      if (op_histograms) {
        stats.input_batch.Add(current->size());
        stats.output_batch.Add(pong.size());
        stats.work_per_invocation.Add(work);
      }
    }
    std::swap(ping, pong);
    current = &ping;
    if (current->empty()) {
      suspended_at_bottom =
          (o == 0 && ops[0]->kind() == Operator::Kind::kContextWindow &&
           !pool.empty());
      break;
    }
  }
  if (suspended_at_bottom) {
    ++partition->total_suspended;
  } else {
    ++partition->total_executed;
  }
  // The pool passed through an empty chain (not expected): copy it, so the
  // caller never appends the pool to itself.
  if (current != &ping) ping = *current;
  return ping;
}

StatisticsReport Engine::CollectStatistics() const {
  StatisticsReport report;
  report.tenant = options_.tenant;
  report.granularity = options_.metrics;
  report.executor_workers = executor_->num_workers();
  report.executor = executor_->metrics();
  report.ingest = ingest_metrics_;
  report.analysis_diagnostics = analysis_diagnostics_;
  report.durability_mode = options_.durability.mode;
  if (durability_ != nullptr) report.durability = durability_->counters();
  report.recovered = recovered_;
  report.recovery_diagnostics = recovery_diagnostics_;
  if (options_.metrics >= MetricsGranularity::kEngine) {
    report.ticks = tick_metrics_;
    report.timeline = timeline_->Snapshot();
    report.timeline_dropped = timeline_->dropped();
    // The transaction counters are the count and sums of the transaction
    // histograms; per_shard keeps each executing worker's value. Name
    // order, like every export before.
    auto add_counter = [&](const char* name, const char* help,
                           int64_t (*value)(const TransactionScratch&)) {
      CounterSnapshot& counter = report.counters.emplace_back();
      counter.name = name;
      counter.help = help;
      for (const TransactionScratch& shard : transaction_scratch_) {
        counter.per_shard.push_back(value(shard));
        counter.total += counter.per_shard.back();
      }
    };
    add_counter("transaction_derived_events",
                "Events derived by stream transactions",
                [](const TransactionScratch& shard) {
                  return static_cast<int64_t>(shard.transaction_derived.sum());
                });
    add_counter("transaction_input_events",
                "Events entering stream transactions",
                [](const TransactionScratch& shard) {
                  return static_cast<int64_t>(shard.transaction_events.sum());
                });
    add_counter("transactions", "Stream transactions (partition x time stamp)",
                [](const TransactionScratch& shard) {
                  return shard.transaction_events.count();
                });
    auto add_histogram = [&](const char* name, const char* help,
                             Pow2Histogram TransactionScratch::*member) {
      HistogramSnapshot& histogram = report.histograms.emplace_back();
      histogram.name = name;
      histogram.help = help;
      for (const TransactionScratch& shard : transaction_scratch_) {
        histogram.merged.Merge(shard.*member);
      }
    };
    add_histogram("transaction_derived",
                  "Derived events per stream transaction",
                  &TransactionScratch::transaction_derived);
    add_histogram("transaction_events", "Input events per stream transaction",
                  &TransactionScratch::transaction_events);
  }
  for (int r = 0; r < kNumQuarantineReasons; ++r) {
    report.quarantine_by_reason[r] =
        quarantine_.count(static_cast<QuarantineReason>(r));
  }
  report.quarantine_by_partition = quarantine_.by_partition();
  int64_t suspended = 0;
  int64_t executed = 0;
  for (const auto& [key, partition] : partitions_) {
    suspended += partition->total_suspended;
    executed += partition->total_executed;
  }
  // One row per (query, op) in plan order, once some partition exists,
  // summed over the worker shards. The merge is commutative addition, so
  // the totals do not depend on the shard count or on which worker ran
  // which partition.
  if (!transaction_scratch_.front().operators.empty() && !partitions_.empty()) {
    size_t row = 0;
    for (const QueryProgram& program : programs_) {
      const auto& ops = program.spec->chain.ops;
      for (size_t o = 0; o < ops.size(); ++o, ++row) {
        QueryOperatorStats entry;
        entry.query = program.spec->name;
        entry.op_index = static_cast<int>(o);
        entry.kind = ops[o]->kind();
        entry.description = ops[o]->DebugString();
        for (const TransactionScratch& shard : transaction_scratch_) {
          entry.stats.Merge(shard.operators[row]);
        }
        report.operators.push_back(std::move(entry));
      }
    }
  }
  if (suspended + executed > 0) {
    report.observed_context_activity =
        static_cast<double>(executed) / static_cast<double>(suspended + executed);
  }
  return report;
}

// --- Durability: state serialization and crash recovery --------------------

namespace {

// Per-batch commit snapshot; 3: the quarantine reason set lost
// out_of_order, which renumbered the reasons; 4: the virtual clock, which
// is wall-clock telemetry, is no longer stored, so the durable bytes are a
// function of the input alone. The checkpoint payload has no version of
// its own: the checkpoint file header's version tracks its layout.
constexpr uint8_t kSnapshotVersion = 4;

void SaveTransition(StateWriter* w, const ChainState& t) {
  w->Bool(t.was_active);
  w->U64(t.last_active_bits);
}

void LoadTransition(StateReader* r, ChainState* t) {
  t->was_active = r->Bool();
  t->last_active_bits = r->U64();
}

// One entry per chain op, length-framed so a loader can verify the state
// consumed exactly the bytes its saver produced — a plan/state mismatch
// fails loudly at the offending operator instead of desyncing the rest of
// the payload. A stateless op's entry is empty.
void SaveSlots(StateWriter* w, const ChainState& state) {
  for (const auto& slot : state.slots) {
    StateWriter op_w;
    if (slot != nullptr) slot->Save(&op_w);
    w->Str(op_w.data());
  }
}

Status LoadSlots(StateReader* r, const ChainState& state,
                 const std::string& what) {
  for (const auto& slot : state.slots) {
    std::string bytes = r->Str();
    if (!r->ok()) return Status::DataLoss(what + ": truncated operator state");
    StateReader op_r(bytes);
    if (slot != nullptr) CAESAR_RETURN_IF_ERROR(slot->Load(&op_r));
    CAESAR_RETURN_IF_ERROR(op_r.CheckFullyConsumed(what));
  }
  return Status::Ok();
}

}  // namespace

std::string Engine::SerializeIngestSnapshot() const {
  // Absolute values, not deltas: re-restoring the same snapshot is
  // idempotent, so replay can apply it after every batch unconditionally.
  StateWriter w;
  w.U8(kSnapshotVersion);
  w.I64(ingest_metrics_.admitted);
  w.I64(ingest_metrics_.reordered);
  w.I64(ingest_metrics_.dropped_late);
  w.I64(ingest_metrics_.quarantined);
  w.I64(ingest_metrics_.max_observed_lateness);
  quarantine_.Save(&w);
  w.I64(last_gc_);
  w.Bool(any_tick_processed_);
  w.I64(last_processed_tick_);
  return w.Take();
}

Status Engine::RestoreIngestSnapshot(std::string_view snapshot) {
  StateReader r(snapshot);
  uint8_t version = r.U8();
  if (r.ok() && version != kSnapshotVersion) {
    return Status::DataLoss("unsupported commit snapshot version " +
                            std::to_string(version));
  }
  ingest_metrics_.admitted = r.I64();
  ingest_metrics_.reordered = r.I64();
  ingest_metrics_.dropped_late = r.I64();
  ingest_metrics_.quarantined = r.I64();
  ingest_metrics_.max_observed_lateness = r.I64();
  CAESAR_RETURN_IF_ERROR(quarantine_.Load(&r));
  last_gc_ = r.I64();
  any_tick_processed_ = r.Bool();
  last_processed_tick_ = r.I64();
  return r.CheckFullyConsumed("commit snapshot");
}

std::string Engine::SerializeState() const {
  // Partition iteration is over a std::map (key ascending) and every nested
  // container either preserves insertion order or is explicitly ordered by
  // its saver, so identical engine state yields identical checkpoint bytes.
  // Telemetry (tick metrics, timeline, transaction and operator histograms)
  // is deliberately not persisted: it restarts after recovery. The operator
  // counters are the statistics gatherer's state, so they are.
  StateWriter w;
  w.Str(SerializeIngestSnapshot());
  w.U32(static_cast<uint32_t>(partitions_.size()));
  for (const auto& [key, partition] : partitions_) {
    w.U64(key);
    partition->contexts.Save(&w);
    w.U64(partition->ops_counter);
    w.I64(partition->total_suspended);
    w.I64(partition->total_executed);
    // The deriving queries, then the processing ones, each with a count.
    size_t q = 0;
    for (size_t count : {plan_.deriving.size(), plan_.processing.size()}) {
      w.U32(static_cast<uint32_t>(count));
      for (const size_t end = q + count; q < end; ++q) {
        const QueryState& query = partition->queries[q];
        SaveTransition(&w, query.chain);
        w.U32(static_cast<uint32_t>(query.guards.size()));
        for (const ChainState& guard : query.guards) {
          SaveTransition(&w, guard);
          SaveSlots(&w, guard);
        }
        w.Bool(query.private_contexts != nullptr);
        if (query.private_contexts != nullptr) {
          query.private_contexts->Save(&w);
        }
        SaveSlots(&w, query.chain);
      }
    }
  }
  // The operator counters, once per payload and summed over the shards.
  const size_t stats_rows = transaction_scratch_.front().operators.size();
  w.Bool(stats_rows > 0);
  for (size_t row = 0; row < stats_rows; ++row) {
    OperatorStats sum;
    for (const TransactionScratch& shard : transaction_scratch_) {
      sum.Merge(shard.operators[row]);
    }
    w.U64(sum.invocations);
    w.U64(sum.input_events);
    w.U64(sum.output_events);
    w.U64(sum.work_units);
  }
  return w.Take();
}

Status Engine::RestoreState(std::string_view payload) {
  StateReader r(payload);
  std::string snapshot = r.Str();
  if (!r.ok()) return Status::DataLoss("checkpoint: truncated payload");
  CAESAR_RETURN_IF_ERROR(RestoreIngestSnapshot(snapshot));
  uint32_t n_partitions = r.U32();
  for (uint32_t p = 0; r.ok() && p < n_partitions; ++p) {
    uint64_t key = r.U64();
    if (!r.ok()) break;
    PartitionState* partition = GetOrCreatePartition(key);
    CAESAR_RETURN_IF_ERROR(partition->contexts.Load(&r));
    partition->ops_counter = r.U64();
    partition->total_suspended = r.I64();
    partition->total_executed = r.I64();
    size_t q = 0;
    for (size_t count : {plan_.deriving.size(), plan_.processing.size()}) {
      uint32_t n_queries = r.U32();
      if (r.ok() && n_queries != count) {
        return Status::DataLoss(
            "checkpoint query count does not match the plan");
      }
      for (const size_t end = q + count; q < end; ++q) {
        QueryState& query = partition->queries[q];
        LoadTransition(&r, &query.chain);
        uint32_t n_guards = r.U32();
        if (r.ok() && n_guards != query.guards.size()) {
          return Status::DataLoss(
              "checkpoint guard count does not match the plan");
        }
        for (ChainState& guard : query.guards) {
          LoadTransition(&r, &guard);
          CAESAR_RETURN_IF_ERROR(
              LoadSlots(&r, guard, "checkpoint guard operator"));
        }
        bool has_private = r.Bool();
        if (r.ok() && has_private != (query.private_contexts != nullptr)) {
          return Status::DataLoss(
              "checkpoint guard mode does not match the plan");
        }
        if (query.private_contexts != nullptr) {
          CAESAR_RETURN_IF_ERROR(query.private_contexts->Load(&r));
        }
        CAESAR_RETURN_IF_ERROR(
            LoadSlots(&r, query.chain, "checkpoint operator"));
      }
    }
  }
  // A recovering engine is fresh, so the summed counters load into shard 0.
  std::vector<OperatorStats>& stats_rows =
      transaction_scratch_.front().operators;
  bool has_op_stats = r.Bool();
  if (r.ok() && has_op_stats != !stats_rows.empty()) {
    return Status::DataLoss(
        "checkpoint statistics mode does not match the engine's");
  }
  for (OperatorStats& stats : stats_rows) {
    stats.invocations = r.U64();
    stats.input_events = r.U64();
    stats.output_events = r.U64();
    stats.work_units = r.U64();
  }
  return r.CheckFullyConsumed("checkpoint payload");
}

Status Engine::FinishRecovery(RecoveryScan scan) {
  recovered_ = true;
  recovery_diagnostics_.reserve(scan.diagnostics.size());
  for (const Diagnostic& diag : scan.diagnostics) {
    recovery_diagnostics_.push_back(FormatDiagnostic(diag));
  }
  if (scan.checkpoint_found) {
    CAESAR_RETURN_IF_ERROR(RestoreState(scan.checkpoint.payload));
  }
  // Replay the committed WAL suffix through the normal scheduler path.
  // Events re-enter in admitted (time) order, so every ingest policy admits
  // them unchanged; GC, window transitions, and the deterministic telemetry
  // replicate exactly. The commit snapshot then restores what replay cannot
  // re-derive (quarantine contents, ingest counters). The virtual clock is
  // wall-clock telemetry and is not restored: like the tick metrics, it
  // restarts with the replayed suffix.
  int64_t replayed = 0;
  replaying_ = true;
  for (const WalBatch& batch : scan.batches) {
    EventBatch admitted;
    for (const auto& [tick, events] : batch.ticks) {
      admitted.insert(admitted.end(), events.begin(), events.end());
    }
    replayed += static_cast<int64_t>(admitted.size());
    Result<RunStats> run = Run(admitted, nullptr);
    if (!run.ok()) {
      replaying_ = false;
      return run.status();
    }
    Status snapshot = RestoreIngestSnapshot(batch.snapshot);
    if (!snapshot.ok()) {
      replaying_ = false;
      return snapshot;
    }
  }
  replaying_ = false;
  Timestamp anchor = 0;
  if (scan.checkpoint_found) {
    anchor = scan.checkpoint.last_tick;
  } else if (!scan.batches.empty() && !scan.batches.front().ticks.empty()) {
    anchor = scan.batches.front().ticks.front().first;
  }
  CAESAR_ASSIGN_OR_RETURN(
      durability_, DurabilityManager::OpenAfterRecovery(options_.durability,
                                                        scan, anchor,
                                                        replayed));
  return Status::Ok();
}

Result<std::unique_ptr<Engine>> Engine::Recover(ExecutablePlan plan,
                                                EngineOptions options) {
  CAESAR_RETURN_IF_ERROR(options.Validate());
  if (options.durability.mode == DurabilityMode::kOff) {
    return Status::InvalidArgument(
        "Engine::Recover requires EngineOptions::durability.mode != off");
  }
  CAESAR_ASSIGN_OR_RETURN(RecoveryScan scan,
                          ScanForRecovery(options.durability));
  auto engine = std::make_unique<Engine>(std::move(plan), std::move(options));
  CAESAR_RETURN_IF_ERROR(engine->FinishRecovery(std::move(scan)));
  return engine;
}

Result<std::unique_ptr<Engine>> Engine::Recover(const CaesarModel& model,
                                                const PlanOptions& plan_options,
                                                EngineOptions options) {
  // No analysis pass: the model already ran (and was analyzed, if asked)
  // before the crash; recovery rebuilds the same plan and moves on.
  CAESAR_RETURN_IF_ERROR(options.Validate());
  CAESAR_ASSIGN_OR_RETURN(ExecutablePlan plan,
                          TranslateModel(model, plan_options));
  return Recover(std::move(plan), std::move(options));
}

uint64_t Engine::durable_batch_seq() const {
  return durability_ != nullptr ? durability_->durable_batch_seq() : 0;
}

DurabilityCounters Engine::durability_counters() const {
  return durability_ != nullptr ? durability_->counters()
                                : DurabilityCounters{};
}

}  // namespace caesar
