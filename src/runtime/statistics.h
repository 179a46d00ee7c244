// Statistics gatherer (the optimization-layer component of Fig. 8).
//
// When enabled, the engine records per-operator runtime statistics —
// invocations, input/output event counts, work units, and (at
// MetricsGranularity::kOperator) per-invocation power-of-2 histograms —
// aggregated across all partitions. The observed selectivities and the
// observed context activity calibrate the cost model
// (optimizer/cost_model.h), closing the paper's loop between the
// statistics gatherer and the optimizer.

#ifndef CAESAR_RUNTIME_STATISTICS_H_
#define CAESAR_RUNTIME_STATISTICS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "algebra/operator.h"
#include "durability/durability.h"
#include "runtime/executor.h"
#include "runtime/ingest.h"
#include "runtime/observability.h"

namespace caesar {

// Aggregated runtime statistics of one operator instance position.
struct OperatorStats {
  uint64_t invocations = 0;
  uint64_t input_events = 0;
  uint64_t output_events = 0;
  uint64_t work_units = 0;

  // Per-invocation distributions (recorded at MetricsGranularity::kOperator;
  // empty otherwise). Work units are the deterministic execution-time
  // measure of the cost model — wall clock is recorded at tick level.
  Pow2Histogram input_batch;
  Pow2Histogram output_batch;
  Pow2Histogram work_per_invocation;

  // True once this operator has observed any input. An operator that never
  // ran (e.g. its context never activated) has no observable selectivity or
  // unit cost; callers must not treat it like a measured pass-through.
  bool has_data() const { return input_events > 0; }

  // Observed output/input ratio; nullopt without data (a never-invoked
  // operator is *not* a measured selectivity-1.0 operator).
  std::optional<double> ObservedSelectivity() const {
    if (!has_data()) return std::nullopt;
    return static_cast<double>(output_events) /
           static_cast<double>(input_events);
  }

  // Observed work units per input event; nullopt without data.
  std::optional<double> ObservedUnitCost() const {
    if (!has_data()) return std::nullopt;
    return static_cast<double>(work_units) /
           static_cast<double>(input_events);
  }

  void Merge(const OperatorStats& other) {
    invocations += other.invocations;
    input_events += other.input_events;
    output_events += other.output_events;
    work_units += other.work_units;
    input_batch.Merge(other.input_batch);
    output_batch.Merge(other.output_batch);
    work_per_invocation.Merge(other.work_per_invocation);
  }
};

// One row of the engine's statistics report: a (query, operator) position.
struct QueryOperatorStats {
  std::string query;
  int op_index = 0;
  Operator::Kind kind = Operator::Kind::kFilter;
  std::string description;
  OperatorStats stats;
};

// Full statistics snapshot.
struct StatisticsReport {
  // EngineOptions::tenant of the reporting engine; empty for library use.
  // The JSON exporter emits a "tenant" field and the Prometheus exporter a
  // tenant="..." label on every series only when non-empty, so reports
  // without a tenant stay byte-identical to before the label existed.
  std::string tenant;

  // Granularity the engine recorded at; tick metrics, timeline, and
  // transaction counters/histograms below are meaningful only when != kOff.
  MetricsGranularity granularity = MetricsGranularity::kOff;

  std::vector<QueryOperatorStats> operators;
  // Fraction of chain executions that actually ran (vs suspended); the
  // observed counterpart of CostModelParams::context_activity.
  double observed_context_activity = 1.0;

  // Worker-pool snapshot (cumulative over the engine's lifetime): the
  // pool's participant count (>= 1; a shared pool may be wider than the
  // engine's num_threads) and its counters.
  int executor_workers = 0;
  ExecutorMetrics executor;

  // Formatted static-analysis warnings from the model-based Engine::Create
  // under AnalysisMode::kStrict (empty otherwise; an error rejects Create).
  // Deliberately absent from the JSON/Prometheus exports, which carry
  // runtime telemetry only.
  std::vector<std::string> analysis_diagnostics;

  // Ingest/degradation snapshot (cumulative over the engine's lifetime):
  // the graceful-degradation counters plus the quarantine breakdown by
  // rejection reason and by stream partition.
  IngestMetrics ingest;
  int64_t quarantine_by_reason[kNumQuarantineReasons] = {};
  std::map<uint64_t, int64_t> quarantine_by_partition;

  // Quarantine/reorder rates relative to the events offered to ingest
  // (admitted + quarantined); 0 when nothing was offered.
  double quarantine_rate() const;
  double reorder_rate() const;

  // Durability snapshot: the configured mode, the cumulative WAL/checkpoint
  // counters, and — on an engine built by Engine::Recover — the recovery
  // provenance. ToString and the JSON/Prometheus exporters emit the block
  // only when the mode != off, so durability-off reports stay byte-for-byte
  // what they were before durability existed.
  DurabilityMode durability_mode = DurabilityMode::kOff;
  DurabilityCounters durability;
  bool recovered = false;
  // Formatted I41x recovery diagnostics (torn WAL tail, corrupt artifacts);
  // a lossy restart is reported here, never silent.
  std::vector<std::string> recovery_diagnostics;

  // Scheduler telemetry (MetricsGranularity >= kEngine).
  TickMetrics ticks;

  // Activity-over-time ring buffer snapshot (oldest first) and how many
  // older points the bounded buffer already dropped.
  std::vector<TimelinePoint> timeline;
  int64_t timeline_dropped = 0;

  // Per-transaction counters and histograms (MetricsGranularity >= kEngine),
  // name-sorted: the counters are the count and sums of the histograms,
  // with the per-worker breakdown of each counter in per_shard.
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;

  std::string ToString() const;
};

}  // namespace caesar

#endif  // CAESAR_RUNTIME_STATISTICS_H_
