// Engine observability: the power-of-2 histograms, the per-tick telemetry,
// the trace-span facility, and the snapshot exporters (JSON + Prometheus
// text exposition).
//
// The paper's Fig. 8 closes a loop between a statistics gatherer and the
// optimizer; plan adaptation (and any production deployment) lives or dies
// on the quality of the observed statistics. This layer therefore records
// at three levels:
//
//  - per-operator: input/output events and work units per invocation as
//    fixed-bucket power-of-2 histograms, carried inside OperatorStats
//    (runtime/statistics.h) so they aggregate across partitions exactly
//    like the existing counters;
//  - per-tick: transaction cost, ingest admission, GC time, barrier wait
//    (wall clock) plus events/partitions/derived/context switches per tick
//    (deterministic counts) — see TickMetrics;
//  - per-engine: quarantine/reorder rates (derived from IngestMetrics at
//    export time) and context activity over time as a bounded ring-buffer
//    timeline — see Timeline.
//
// Determinism contract: every *count* recorded here (histogram buckets,
// counter totals, timeline points) is a pure function of the input stream
// and the plan — identical for 1/2/4/8 worker threads. Wall-clock values
// are not; the exporters therefore take ExportOptions::deterministic,
// which drops all timing and thread-layout-dependent fields and yields
// byte-identical output across thread counts (covered by the parallel
// determinism suite).
//
// Threading: the per-transaction and per-operator statistics live in the
// engine's per-worker shards (Engine::TransactionScratch): each worker
// writes only its own shard, and the pool dispatch that ends every Run
// orders the snapshot after all writes, so no atomics are needed.
// Everything else is written from the scheduler thread only.

#ifndef CAESAR_RUNTIME_OBSERVABILITY_H_
#define CAESAR_RUNTIME_OBSERVABILITY_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "event/event.h"

namespace caesar {

struct StatisticsReport;

// How much runtime telemetry the engine records.
enum class MetricsGranularity : int8_t {
  kOff = 0,   // no telemetry beyond the plain RunStats counters
  kEngine,    // tick metrics, timeline, transaction counters/histograms
  kOperator,  // kEngine plus per-operator histograms in OperatorStats
};

// Human-readable granularity name ("off", "engine", "operator").
const char* MetricsGranularityName(MetricsGranularity granularity);

// Parses a granularity name; returns false on an unknown name.
bool ParseMetricsGranularity(const std::string& name,
                             MetricsGranularity* granularity);

// Fixed-bucket power-of-2 histogram over non-negative integer values.
// Bucket i counts values v with bit_width(v) == i: bucket 0 holds v = 0,
// bucket i >= 1 holds [2^(i-1), 2^i). The bucket layout is fixed at compile
// time, so merging is index-wise addition and recording is a bit_width plus
// two increments — cheap enough for per-operator hot paths.
class Pow2Histogram {
 public:
  // bit_width of a uint64_t is 0..64.
  static constexpr int kNumBuckets = 65;

  static int BucketOf(uint64_t value) {
    return static_cast<int>(std::bit_width(value));
  }
  // Smallest value counted by bucket i (0, 1, 2, 4, 8, ...).
  static uint64_t BucketLowerBound(int i) {
    return i == 0 ? 0 : uint64_t{1} << (i - 1);
  }
  // Largest value counted by bucket i (inclusive; 0, 1, 3, 7, 15, ...).
  static uint64_t BucketUpperBound(int i) {
    return i >= 64 ? std::numeric_limits<uint64_t>::max()
                   : (uint64_t{1} << i) - 1;
  }

  void Add(uint64_t value) {
    ++buckets_[BucketOf(value)];
    ++count_;
    sum_ += value;
    if (value > max_) max_ = value;
  }

  void Merge(const Pow2Histogram& other) {
    for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  int64_t bucket(int i) const { return buckets_[i]; }
  int64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  // Approximate quantile (q in [0, 1]): the upper bound of the bucket
  // containing the q-th value. Exact for values that are bucket singletons
  // (0 and 1); otherwise within a factor of 2.
  uint64_t Quantile(double q) const;

  // Sparse one-liner: "count=N mean=M max=X [0]=c0 [1,2)=c1 ..." with empty
  // buckets omitted.
  std::string ToString() const;

 private:
  // Header fields before the bucket array: small values (the common case —
  // batch sizes and per-invocation work are tiny) land in low buckets, so
  // Add touches a single cache line instead of two half a KiB apart.
  int64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
  int64_t buckets_[kNumBuckets] = {};
};

// Snapshot of one engine counter: the total plus the per-shard (per
// worker) breakdown. The total is deterministic; the breakdown depends on
// the worker count and is excluded from deterministic exports.
struct CounterSnapshot {
  std::string name;
  std::string help;
  int64_t total = 0;
  std::vector<int64_t> per_shard;
};

// Snapshot of one engine histogram, merged across shards.
struct HistogramSnapshot {
  std::string name;
  std::string help;
  Pow2Histogram merged;
};

// Scheduler-side per-tick telemetry. Histograms and counters are
// deterministic; the RunningStats fields are wall clock and are excluded
// from deterministic exports.
struct TickMetrics {
  int64_t ticks = 0;
  int64_t gc_runs = 0;
  // Smallest horizon ever passed to ExpireBefore by the periodic GC;
  // meaningful once gc_runs > 0. The GC-horizon regression test asserts
  // this never goes below 0 (the pre-clamp bug made it negative when the
  // stream started inside the first gc_horizon ticks).
  Timestamp gc_horizon_min = std::numeric_limits<Timestamp>::max();

  Pow2Histogram events_per_tick;
  Pow2Histogram partitions_per_tick;
  Pow2Histogram derived_per_tick;
  Pow2Histogram context_switches_per_tick;

  // Wall clock (nondeterministic): summed transaction cost per tick (the
  // virtual clock's charge), ingest admission time per Run, summed GC time
  // of every partition per GC point, barrier wait per pool dispatch, and
  // the time each logged Run blocked on the WAL log thread (durability on
  // only; RunStats::wal_wait_seconds).
  RunningStats scheduler_seconds;
  RunningStats ingest_seconds;
  RunningStats gc_pause_seconds;
  RunningStats barrier_wait_seconds;
  RunningStats wal_wait_seconds;

  void Merge(const TickMetrics& other);
};

// One point of the engine's activity timeline: the deterministic summary
// of one tick, answering "what was the engine doing over time" (context
// activity, load shape) without a full trace.
struct TimelinePoint {
  Timestamp time = 0;
  int64_t input_events = 0;
  int64_t derived_events = 0;
  int64_t partitions = 0;        // partitions touched this tick
  int64_t executed_chains = 0;   // chain executions that ran this tick
  int64_t suspended_chains = 0;  // chain executions skipped (context closed)
  int64_t context_switches = 0;  // context vector transitions this tick

  // Fraction of chain executions that ran this tick (1.0 when idle).
  double activity() const {
    int64_t total = executed_chains + suspended_chains;
    return total == 0 ? 1.0
                      : static_cast<double>(executed_chains) /
                            static_cast<double>(total);
  }
};

// Bounded ring buffer of the most recent timeline points. Scheduler thread
// only. Dropped (overwritten) points stay counted in total_pushed().
class Timeline {
 public:
  explicit Timeline(size_t capacity);

  void Push(const TimelinePoint& point);

  size_t capacity() const { return capacity_; }
  size_t size() const;
  int64_t total_pushed() const { return total_pushed_; }
  int64_t dropped() const {
    return total_pushed_ - static_cast<int64_t>(size());
  }

  // The retained points, oldest first.
  std::vector<TimelinePoint> Snapshot() const;

 private:
  const size_t capacity_;
  int64_t total_pushed_ = 0;
  std::vector<TimelinePoint> points_;  // ring; next_ is the write index
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Trace spans (Chrome trace_event format)
// ---------------------------------------------------------------------------

// Collects completed trace spans and renders them as a Chrome
// trace_event-format JSON file (load via chrome://tracing or Perfetto).
// Record is thread-safe (short critical section per span); spans carry a
// process-unique small thread id so worker lanes render separately.
class TraceRecorder {
 public:
  struct Span {
    const char* name;  // must outlive the recorder (use string literals)
    int64_t start_us;  // relative to the recorder's creation
    int64_t duration_us;
    uint32_t tid;
  };

  TraceRecorder();

  // Current wall position in recorder-relative microseconds.
  int64_t NowMicros() const;

  void Record(const char* name, int64_t start_us, int64_t duration_us);

  size_t size() const;
  std::vector<Span> Snapshot() const;

  // {"traceEvents":[...]} with one complete ("ph":"X") event per span.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

  // The recorder spans of the calling thread report into; null disables
  // CAESAR_TRACE_SPAN on this thread (the default).
  static TraceRecorder* Current();

 private:
  friend class TraceScope;
  static void SetCurrent(TraceRecorder* recorder);

  int64_t epoch_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII: installs `recorder` as the calling thread's current trace sink and
// restores the previous one on destruction. Installing null is a cheap
// no-op scope (two thread-local writes), so callers need no branching.
class TraceScope {
 public:
  explicit TraceScope(TraceRecorder* recorder);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRecorder* previous_;
};

// RAII span: measures from construction to destruction and reports into the
// thread's current recorder. With no recorder installed the cost is one
// thread-local load; compile out entirely with -DCAESAR_DISABLE_TRACING.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : recorder_(TraceRecorder::Current()), name_(name) {
    if (recorder_ != nullptr) start_us_ = recorder_->NowMicros();
  }
  ~TraceSpan() {
    if (recorder_ != nullptr) {
      recorder_->Record(name_, start_us_, recorder_->NowMicros() - start_us_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  const char* name_;
  int64_t start_us_ = 0;
};

#define CAESAR_TRACE_CONCAT_INNER(a, b) a##b
#define CAESAR_TRACE_CONCAT(a, b) CAESAR_TRACE_CONCAT_INNER(a, b)
#ifdef CAESAR_DISABLE_TRACING
#define CAESAR_TRACE_SPAN(name) \
  do {                          \
  } while (false)
#else
// Opens a span named `name` (a string literal) lasting until the end of the
// enclosing scope.
#define CAESAR_TRACE_SPAN(name) \
  ::caesar::TraceSpan CAESAR_TRACE_CONCAT(caesar_trace_span_, __LINE__)(name)
#endif

// ---------------------------------------------------------------------------
// Snapshot exporters
// ---------------------------------------------------------------------------

struct ExportOptions {
  // When true, drop every wall-clock timing and thread-layout-dependent
  // field (executor snapshot, per-shard counter breakdowns, *_seconds).
  // The remaining content is a pure function of the input stream and plan:
  // byte-identical across 1/2/4/8 worker threads.
  bool deterministic = false;
};

// Renders a StatisticsReport as a single JSON object (stable key order,
// schema_version tagged; see DESIGN.md section 8).
std::string StatisticsToJson(const StatisticsReport& report,
                             const ExportOptions& options = {});

// Renders a StatisticsReport in the Prometheus text exposition format
// (counters as `caesar_*_total`, histograms with cumulative `le` buckets).
std::string StatisticsToPrometheus(const StatisticsReport& report,
                                   const ExportOptions& options = {});

}  // namespace caesar

#endif  // CAESAR_RUNTIME_OBSERVABILITY_H_
