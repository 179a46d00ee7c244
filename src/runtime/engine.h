// The CAESAR execution infrastructure (Section 6).
//
// The engine runs one executable plan over every stream partition (per
// unidirectional road segment in Linear Road): the plan's operators are
// shared, and each partition owns only its context bit vector and the
// state of its stateful operators. It processes the input stream as *stream
// transactions*: all events with the same application time stamp form one
// transaction per partition. The time-driven scheduler processes time stamps
// strictly in order; within a transaction, context derivation runs before
// context processing, so processing queries always observe the contexts
// derived at (or before) their time stamp — the paper's correctness
// criterion for conflicting reads/writes of shared context data.
//
// Context-aware routing and suspension: each query chain carries its
// context-window operator; with push-down the chain empties immediately for
// inactive contexts and the rest of the chain is skipped. Window
// transitions additionally manage the *context history*: when a query's
// (original) window ends its partial matches are discarded; across grouped
// windows of one original window they are retained, expiring one grouped
// window behind (Section 6.2).
//
// Batch execution is partition-major: Run hands the whole admitted batch
// to the log, distributes it once into per-partition, time-ordered event runs,
// and lets each partition execute all of its transactions of the batch in
// tick order — in one worker-pool dispatch. Partitions share no state, so
// this equals tick-by-tick execution; the derived batches are merged by
// (time stamp, partition key) afterwards, which is exactly the tick-major
// order. With durability on, a log thread writes the batch's WAL records
// and the commit record that seals them while the scheduler distributes,
// dispatches and merges the batch (see Run).
//
// Latency model: the processing cost of a time stamp is the summed measured
// wall time of its stream transactions; arrival times derive from
// application time at a configurable acceleration factor, and a virtual
// clock turns measured cost into queueing latency:
//   completion(t) = max(arrival(t), completion(prev)) + cost(t)
//   latency(t)   = (completion(t) - arrival(t)) * accel     [sim seconds]
// This keeps the experiments deterministic w.r.t. load shape while using
// real measured CPU cost.

#ifndef CAESAR_RUNTIME_ENGINE_H_
#define CAESAR_RUNTIME_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "durability/durability.h"
#include "plan/plan.h"
#include "runtime/context_vector.h"
#include "runtime/executor.h"
#include "runtime/ingest.h"
#include "runtime/statistics.h"

namespace caesar {

class CaesarModel;
struct PlanOptions;
class DurabilityManager;
class WalLogThread;
struct RecoveryScan;
struct WalTick;

// What the model-based Engine::Create overload does with static-analysis
// results (analysis/analyzer.h). Ignored by the plan-based overload, which
// has no model to analyze.
enum class AnalysisMode : int8_t {
  kOff = 0,  // skip analysis
  kStrict,   // error-severity diagnostics reject Create with a Status;
             // warnings surface via CollectStatistics()
};

// Engine configuration.
struct EngineOptions {
  // Threads running per-partition transactions: the engine owns a
  // persistent ShardedExecutor of that many participants, the scheduler
  // thread plus num_threads - 1 workers living for the lifetime of the
  // Engine (1 spawns no thread: the scheduler thread runs every partition).
  // Every width derives byte-identical event sequences (see
  // runtime/executor.h).
  int num_threads = 1;

  // Externally owned worker pool shared between engines (the caesard
  // server runs one Engine per tenant over one pool). When set it
  // overrides num_threads: this engine dispatches each Run batch to the
  // shared pool instead of creating its own. The pool must outlive the
  // engine, and callers must never run two engines that share a pool
  // concurrently — ShardedExecutor::Execute is single-scheduler (the
  // server's session lock serializes tenants). Derived output stays
  // byte-identical to an owned pool of the same width: determinism rests
  // on the ordered merge, not on who owns the workers.
  std::shared_ptr<ShardedExecutor> shared_executor;

  // Stable tenant label stamped into RunStats and StatisticsReport (and
  // from there into the JSON/Prometheus exports). Empty for library use —
  // existing exports and goldens are byte-identical to before the label
  // existed; the caesard server sets it to the tenant name so per-tenant
  // scrapes can tell engines apart.
  std::string tenant;

  // Acceleration of the latency model: how many simulated seconds (one
  // per application tick) arrive per wall second of processing budget.
  // Higher = heavier load.
  double accel = 100.0;

  // Garbage collection cadence and horizon (ticks): every `gc_interval`
  // ticks, operator state older than `gc_horizon` is dropped.
  Timestamp gc_interval = 120;
  Timestamp gc_horizon = 900;

  // Record per-operator statistics (the Fig. 8 statistics gatherer); adds a
  // small per-operator bookkeeping cost. Snapshot via CollectStatistics().
  bool gather_statistics = false;

  // Telemetry granularity (runtime/observability.h): kEngine records tick
  // metrics, the activity timeline, and the per-transaction counters and
  // histograms; kOperator additionally records per-operator histograms
  // (implies the per-operator statistics). kOff costs nothing on the hot
  // path.
  MetricsGranularity metrics = MetricsGranularity::kOff;

  // Record trace spans (scheduler ticks, ingest, GC, per-partition
  // transactions) into a Chrome trace_event-format recorder, exposed via
  // Engine::trace() (the caller writes it with TraceRecorder::WriteJson).
  // Independent of `metrics`.
  bool tracing = false;

  // How Run treats disorder and malformed events (see runtime/ingest.h):
  // kStrict rejects the batch with a Status, kReorder degrades gracefully
  // and quarantines what cannot be processed.
  IngestPolicy ingest_policy = IngestPolicy::kStrict;

  // Maximum admissible lateness in ticks under kReorder (>= 0; must be 0
  // under kStrict). Events later than this are dropped and quarantined, so
  // slack 0 drops every event older than the newest admitted time stamp.
  Timestamp reorder_slack = 0;

  // Static model analysis during the model-based Create (see AnalysisMode).
  AnalysisMode analysis = AnalysisMode::kOff;

  // Durability (durability/durability.h): off by default; kWal logs every
  // admitted tick to a write-ahead log so a crashed engine can be rebuilt
  // with Engine::Recover; kWalCheckpoint additionally writes periodic full
  // state checkpoints that bound replay time and let the log be truncated.
  // The durability contract: a Run call that returned OK is durable — a
  // recovered engine resumes exactly after it; a Run that failed or was
  // interrupted may not be, and the client re-submits its input from
  // durable_batch_seq().
  DurabilityOptions durability;

  // Checks option invariants (num_threads >= 1, reorder_slack >= 0 and 0
  // under kStrict, accel positive, gc_interval >= 1, gc_horizon >= 0,
  // durability options consistent).
  // Returned (not aborted) so callers can surface configuration errors;
  // Engine::Create is the validating construction path.
  Status Validate() const;
};

// Aggregate results of one Run.
struct RunStats {
  // EngineOptions::tenant of the engine that produced this Run (empty for
  // library use).
  std::string tenant;

  int64_t input_events = 0;
  int64_t derived_events = 0;
  // Derived event counts by type name.
  std::map<std::string, int64_t> derived_by_type;

  // Latency (simulated seconds; see header comment).
  double max_latency = 0.0;
  double mean_latency = 0.0;

  // Wall time of the Run's partition dispatch: every stream transaction
  // and GC point of the batch (0 for an empty batch). The pool's clock
  // (ExecutorMetrics::barrier_wait) times it; barrier_wait_seconds is the
  // same sample.
  double cpu_seconds = 0.0;
  // Operator work units (see OpExecContext).
  uint64_t ops_executed = 0;
  // Chain executions skipped entirely because the bottom context window was
  // closed (the benefit of push-down + routing).
  int64_t suspended_chains = 0;
  // Chain executions that did run.
  int64_t executed_chains = 0;
  int64_t transactions = 0;
  int64_t partitions = 0;

  // Worker-pool metrics for this Run. The names predate partition-major
  // execution: `parallel_ticks` counts pool dispatches (1 for a Run with
  // input, 0 for an empty one) and `parallel_tasks` the partition runs
  // dispatched (every partition with events in the batch, plus every other
  // partition when the batch holds a GC point). `shard_imbalance` is the
  // dispatch's executed-load imbalance (max - min *events* any participant
  // processed — event-weighted so a hot partition registers even when task
  // counts are even; it depends on which participant claimed which run),
  // and `barrier_wait_seconds` the dispatch's wall time on the scheduler
  // thread, which runs its own claimed runs and then waits for the other
  // participants (equal to cpu_seconds).
  int64_t parallel_ticks = 0;
  int64_t parallel_tasks = 0;
  int64_t shard_imbalance = 0;
  // Always 0: the pool has no owners to steal from — participants claim
  // whole partition runs from one cursor. Kept because perfbench/ reads
  // it.
  int64_t tasks_stolen = 0;
  double barrier_wait_seconds = 0.0;

  // Degradation counters for this Run (all zero under kStrict, which
  // rejects imperfect input instead of degrading): events admitted out of
  // arrival order and re-sequenced (kReorder), events dropped for
  // lateness, all events diverted to the quarantine sink (late +
  // malformed; dropped_late is a subset), and the largest lateness
  // observed among late arrivals this Run, whatever their fate.
  int64_t events_reordered = 0;
  int64_t events_dropped_late = 0;
  int64_t events_quarantined = 0;
  Timestamp max_observed_lateness = 0;

  // Durability activity of this Run (all zero when durability is off):
  // WAL records and bytes appended, fsync(2) calls issued, and checkpoints
  // published.
  int64_t wal_records = 0;
  int64_t wal_bytes = 0;
  int64_t fsyncs = 0;
  int64_t checkpoints_written = 0;
  // Wall time the Run blocked on the log thread: its one wait, after the
  // merge, for the tick records and the commit that seals them (0 when
  // durability is off).
  double wal_wait_seconds = 0.0;

  std::string ToString() const;
};

// Per-timestamp observer: (time, events derived at this time stamp).
using TickObserver =
    std::function<void(Timestamp, const EventBatch& derived)>;

// The CAESAR engine. Runs one plan over every partition; owns each
// partition's context state and the state of its stateful operators.
class Engine {
 public:
  // Validating construction: returns InvalidArgument (with the offending
  // option) instead of constructing an engine from bad configuration.
  static Result<std::unique_ptr<Engine>> Create(ExecutablePlan plan,
                                                EngineOptions options);

  // Model-based construction: types the model once, optionally lints it
  // (options.analysis), then translates and builds the engine. Under
  // kStrict, analysis errors reject creation with the first formatted
  // diagnostic as FailedPrecondition, the translator's own status;
  // otherwise the formatted warnings are retained and surfaced through
  // CollectStatistics().
  static Result<std::unique_ptr<Engine>> Create(
      const CaesarModel& model, const PlanOptions& plan_options,
      EngineOptions options);

  // Crash recovery: rebuilds an engine from the durability artifacts in
  // options.durability.dir — loads the newest valid checkpoint, replays
  // the committed WAL suffix through the normal scheduler path (outputs
  // suppressed, GC replicated), and resumes logging where the log left
  // off. Requires options.durability.mode != kOff; the plan/model and
  // options must match the crashed engine's. Input batches after the last
  // durable Run are not in the log — the caller re-submits them, resuming
  // at durable_batch_seq(). Corrupt or torn artifacts degrade gracefully:
  // the scan truncates/skips them and reports I41x diagnostics through
  // recovery_diagnostics() and CollectStatistics().
  static Result<std::unique_ptr<Engine>> Recover(ExecutablePlan plan,
                                                 EngineOptions options);
  static Result<std::unique_ptr<Engine>> Recover(
      const CaesarModel& model, const PlanOptions& plan_options,
      EngineOptions options);

  // Direct construction for known-good options; aborts if
  // options.Validate() fails (use Create to handle that as a Status).
  Engine(ExecutablePlan plan, EngineOptions options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Processes an input stream to completion and returns run statistics.
  // The input passes through the configured ingest policy first: under
  // kStrict, disorder or a malformed event rejects the whole batch with a
  // descriptive error before any engine state is mutated; under
  // kReorder the batch is repaired (see runtime/ingest.h) and the
  // degradation is reported in the returned RunStats. Derived events are
  // appended to `outputs` if non-null (in deterministic order). May be
  // called repeatedly; state carries over, and the last processed tick is
  // the floor of every later Run's admission: nothing is admitted before
  // it (kStrict rejects a batch that starts before it instead).
  //
  // With durability on, the WAL I/O runs on a per-engine log thread,
  // started by the first logged Run and joined by the destructor:
  //  1. ingest, then plan the batch's ticks and GC points and advance the
  //     admission floor and the GC clock;
  //  2. serialize the commit snapshot and post one job: the log thread
  //     appends the tick records, stops at the first failure, and
  //     otherwise writes the commit record, fsyncs and rotates, while this
  //     thread distributes, dispatches and merges the batch;
  //  3. wait for the job once, write a due checkpoint, and return.
  // A failed append or commit fails the Run and may leave its batch in
  // memory (and its derived events in `outputs`); the WAL latches, so
  // every later Run is refused until Engine::Recover.
  Result<RunStats> Run(const EventBatch& input,
                       EventBatch* outputs = nullptr);

  // How many leading events of `pending` — a buffer of arrivals not yet
  // run — a Run may take now such that later Runs over the rest, plus
  // whatever arrives after it, equal one Run over everything. That is the
  // largest k whose latest admissible event (judged by the ingest policy's
  // admission rule from the current state) is earlier than every
  // admissible event in pending[k, n) and than the watermark, which every
  // later arrival is at or after. Malformed and inadmissible events never
  // hold anything back. caesard drains a tenant's buffer through this.
  size_t RunnablePrefix(const EventBatch& pending) const;

  // Optional per-timestamp observer (set before Run).
  void SetTickObserver(TickObserver observer) {
    observer_ = std::move(observer);
  }

  // Number of partitions instantiated so far, and their keys (ascending).
  int num_partitions() const;
  std::vector<uint64_t> partition_keys() const;

  // Context state of a partition (for tests); null if the partition does
  // not exist.
  const ContextBitVector* partition_contexts(uint64_t key) const;

  // Snapshot of the engine's statistics: ingest, quarantine, durability and
  // executor state always; tick metrics, timeline and transaction
  // counters/histograms at metrics >= kEngine; per-operator rows, aggregated
  // across partitions and workers, when gather_statistics or metrics >=
  // kOperator. Call between Runs.
  StatisticsReport CollectStatistics() const;

  // The worker pool every Run dispatches to (owned, or the shared one);
  // never null. Exposed for tests and benchmarks (cumulative metrics,
  // worker count).
  const ShardedExecutor* executor() const { return executor_.get(); }

  // The dead-letter sink (late and malformed events with reasons, tagged
  // by partition) and the cumulative ingest counters.
  const QuarantineSink& quarantine() const { return quarantine_; }
  const IngestMetrics& ingest_metrics() const { return ingest_metrics_; }

  // The trace recorder; null unless EngineOptions::tracing. Snapshot or
  // WriteJson between Run calls.
  const TraceRecorder* trace() const { return trace_.get(); }

  // True on an engine built by Recover.
  bool recovered() const { return recovered_; }

  // Sequence number of the last durable (committed) Run batch. One Run =
  // one batch, so a client feeding fixed batches can resume its input at
  // this offset after Recover. 0 when durability is off or nothing has
  // committed yet.
  uint64_t durable_batch_seq() const;

  // Cumulative durability counters (all zero when durability is off).
  DurabilityCounters durability_counters() const;

  // Formatted I41x diagnostics from recovery (empty otherwise).
  const std::vector<std::string>& recovery_diagnostics() const {
    return recovery_diagnostics_;
  }

 private:
  struct QueryProgram;
  struct PartitionState;
  struct QueryState;

  PartitionState* GetOrCreatePartition(uint64_t key);
  uint64_t PartitionKeyOf(const Event& event);

  // Applies the ingest policy to `input`: on success `*effective` points
  // at the stream to schedule (the input itself, or `admitted`) and the
  // per-Run degradation counters in `stats` are filled in. kStrict errors
  // leave the engine untouched.
  Status IngestBatch(const EventBatch& input, EventBatch* admitted,
                     const EventBatch** effective, RunStats* stats);

  // The admission rule (runtime/ingest.h) as it stands between Runs: the
  // floor is the last processed tick; the slack is reorder_slack under
  // kReorder and 0 otherwise.
  AdmissionWatermark Watermark() const;

  // Classifies a malformed event, or returns false if it is well-formed.
  bool ClassifyMalformed(const Event& event, QuarantineReason* reason) const;

  // Quarantines `event` and maintains the cumulative counters.
  void QuarantineEvent(EventPtr event, QuarantineReason reason);

  // Fills partition_attr_cache_[type_id] from the registry schema.
  void ResolvePartitionAttrs(TypeId type_id);

  // --- Partition-major batch execution (see Run) ---
  struct PartitionRun;

  // Slices the admitted batch into ticks (batch_ticks_) and plans the GC
  // points that follow them (gc_points_) from last_gc_, which it leaves
  // alone (Run advances it).
  void PlanBatch(const EventBatch& input);

  // Distributes the batch into per-partition runs, creating partitions on
  // the scheduler thread; fills the task order and the merge order.
  void DistributeBatch(const EventBatch& input);

  // The run slot of `partition` in this batch, claimed on first use.
  // `first_tick` is the batch tick a new partition first appears at.
  PartitionRun& ClaimRun(PartitionState* partition, size_t first_tick);

  // Executes one partition's share of the batch: its transactions and the
  // GC points it takes, in tick order. `worker` is the executing worker.
  void ProcessPartitionRun(size_t run, int worker);

  // After the dispatch: merges the derived events into `outputs`, advances
  // the virtual clock, calls the observer and records the per-tick
  // telemetry, tick by tick; then fills the per-Run counters of `stats`.
  void MergeBatch(EventBatch* outputs, RunStats* stats);

  // Drops operator state older than `horizon` in every chain of
  // `partition`.
  void CollectGarbage(PartitionState* partition, Timestamp horizon);

  // Executes one stream transaction (one partition, one time stamp) over
  // `count` events at `events`, appending its derived events to `derived`.
  // `worker` is the metrics and scratch shard to use — the id of the
  // executing worker, which keeps the non-atomic histogram shards and the
  // transaction scratch single-writer.
  void ProcessTransaction(PartitionState* partition, const EventPtr* events,
                          size_t count, EventBatch* derived, int worker);

  // Runs one query chain (with guards in CI mode) over the pool; returns
  // the chain's output, held in the worker's scratch until its next query.
  const EventBatch& RunQuery(PartitionState* partition,
                             const QueryProgram& program, QueryState* query,
                             const EventBatch& pool, int worker);

  // --- Durability serialization (scheduler thread only) ---
  // The per-batch commit snapshot: the ingest counters, the quarantine
  // sink, the last GC and the last processed tick (the admission floor) —
  // what replay cannot re-derive from the admitted events of a checkpoint's
  // suffix alone. It holds nothing measured (the virtual clock is wall-clock
  // telemetry), so the durable bytes are a function of the input. Run takes
  // it after planning the batch, before the distribution.
  std::string SerializeIngestSnapshot() const;
  Status RestoreIngestSnapshot(std::string_view snapshot);
  // The full checkpoint payload: the commit snapshot plus every
  // partition's context vector, transition bookkeeping, and operator state.
  std::string SerializeState() const;
  Status RestoreState(std::string_view payload);
  // Applies a recovery scan to this freshly constructed engine: restore
  // the checkpoint, replay committed batches, open the log for appending.
  Status FinishRecovery(RecoveryScan scan);

  ExecutablePlan plan_;
  // One program per query of plan_, deriving then processing; built once,
  // shared by every partition.
  std::vector<QueryProgram> programs_;
  EngineOptions options_;
  TickObserver observer_;

  // Formatted error/warning diagnostics from the model-based Create (empty
  // otherwise); copied into StatisticsReport::analysis_diagnostics.
  std::vector<std::string> analysis_diagnostics_;

  // Partition attribute indices per event type (-1 = attribute absent).
  // Resolved eagerly for every type known at construction so event
  // distribution never mutates it; types registered later resolve lazily,
  // which stays safe because distribution runs only on the scheduler
  // thread, before workers are woken for the batch.
  std::vector<std::vector<int>> partition_attr_cache_;

  std::map<uint64_t, std::unique_ptr<PartitionState>> partitions_;

  // Persistent worker pool: created in the constructor with num_threads
  // participants and reused across Run calls, or borrowed from
  // EngineOptions::shared_executor (one pool, many tenant engines).
  std::shared_ptr<ShardedExecutor> executor_;

  // --- Batch scratch. Members so the hot path reuses their capacity
  // across Run calls; the scheduler writes them before the dispatch and
  // reads them after its barrier, workers touch only their own runs. ---
  // One time stamp of the admitted batch.
  struct BatchTick {
    Timestamp time = 0;
    size_t first_event = 0;  // into the admitted batch
    size_t num_events = 0;
    size_t num_transactions = 0;  // partitions with events at this tick
    size_t first_merged = 0;      // into merge_order_
  };
  // A GC point: after batch tick `tick`, state older than `horizon` goes.
  struct GcPoint {
    size_t tick = 0;
    Timestamp horizon = 0;
  };
  // One stream transaction of a partition run: its events are the run's
  // next `num_events`. The scheduler fills the tick and event count; the
  // executing worker fills the rest. 32-bit fields keep a run's records
  // compact (a batch never holds 2^32 events of one partition).
  struct Transaction {
    uint32_t tick = 0;  // into batch_ticks_
    uint32_t num_events = 0;
    uint32_t first_derived = 0;  // into PartitionRun::derived
    uint32_t num_derived = 0;
    double cost_seconds = 0.0;  // wall time, for the virtual clock
    // Per-tick telemetry inputs (metrics >= kEngine only).
    uint32_t context_switches = 0;
    uint32_t executed_chains = 0;
    uint32_t suspended_chains = 0;
  };
  // One partition's share of the batch, executed start to finish by the
  // pool participant that claims it.
  struct PartitionRun {
    PartitionState* partition = nullptr;
    // GC points before this index precede the partition's creation.
    size_t first_gc = 0;
    EventBatch events;   // the partition's events, time-ordered
    EventBatch derived;  // its derived events, in transaction order
    std::vector<Transaction> transactions;  // one per tick with events
    // Partition counters when the run was claimed (RunStats deltas).
    uint64_t ops_before = 0;
    int64_t executed_before = 0;
    int64_t suspended_before = 0;
  };
  // Where a transaction lives: runs_[run].transactions[index].
  struct TransactionRef {
    uint32_t run = 0;
    uint32_t index = 0;
  };
  std::vector<BatchTick> batch_ticks_;
  std::vector<GcPoint> gc_points_;
  std::vector<PartitionRun> runs_;  // the first num_runs_ are in use
  size_t num_runs_ = 0;
  // GC wall time of run r at GC point g: gc_seconds_[r * gc_points + g].
  std::vector<double> gc_seconds_;
  uint64_t batch_seq_ = 0;  // tags partitions claimed by the current batch
  // Task order (partition key ascending) with its weights (event counts)
  // for the pool.
  std::vector<uint32_t> task_runs_;
  std::vector<uint64_t> task_weights_;
  // Every transaction in (tick, partition key) order: the derived order,
  // with a fill cursor per tick.
  std::vector<TransactionRef> merge_order_;
  std::vector<size_t> merge_cursor_;
  // Derived events per TypeId of the current Run (zeroed after use).
  std::vector<int64_t> derived_type_counts_;
  EventBatch observer_scratch_;

  // Per-worker shard (index = executing worker): the transaction scratch
  // batches and every statistic a transaction records.
  // A worker runs one transaction at a time, so each entry is single-writer;
  // CollectStatistics merges the shards between Runs, and the merge is
  // commutative addition, so totals do not depend on the thread count.
  struct alignas(64) TransactionScratch {
    EventBatch pool;
    EventBatch ping;
    EventBatch pong;
    EventBatch guard_in;
    EventBatch guard_out;
    // Input and derived events per transaction (metrics >= kEngine); the
    // exported transaction counters are their count and sums.
    Pow2Histogram transaction_events;
    Pow2Histogram transaction_derived;
    // One row per (query, op) in plan order (QueryState::stats_row_base)
    // when gather_statistics or metrics >= kOperator; the histograms are
    // filled at kOperator only.
    std::vector<OperatorStats> operators;
  };
  std::vector<TransactionScratch> transaction_scratch_;

  // Ingest state (scheduler thread only). The admission rule keeps none:
  // it starts every Run from last_processed_tick_ (see Watermark()).
  QuarantineSink quarantine_;
  IngestMetrics ingest_metrics_;

  // Virtual clock state (persists across Run calls).
  double vclock_completion_ = 0.0;
  Timestamp last_gc_ = 0;

  // Durability (scheduler thread only). The manager is opened lazily by
  // the first Run (so I/O failures surface as a Status, not an abort) or
  // installed by Recover; null when the mode is kOff.
  std::unique_ptr<DurabilityManager> durability_;
  // The log thread doing durability_'s WAL writes inside Run; started by
  // the first logged Run, so it exists only when durability is on.
  // Declared after durability_ so it is joined before the manager goes.
  std::unique_ptr<WalLogThread> log_thread_;
  std::vector<WalTick> wal_ticks_;  // the batch's tick spans
  bool replaying_ = false;  // WAL replay re-enters Run; nothing re-logged
  bool recovered_ = false;
  std::vector<std::string> recovery_diagnostics_;
  // Last tick of the last processed batch: the admission floor and
  // high-water mark of the next Run, the checkpoint cadence and header.
  Timestamp last_processed_tick_ = 0;
  bool any_tick_processed_ = false;

  // Observability (all null/empty when metrics == kOff and !tracing).
  TickMetrics tick_metrics_;
  std::unique_ptr<Timeline> timeline_;
  std::unique_ptr<TraceRecorder> trace_;
};

}  // namespace caesar

#endif  // CAESAR_RUNTIME_ENGINE_H_
