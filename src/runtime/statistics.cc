#include "runtime/statistics.h"

#include <sstream>

namespace caesar {

double StatisticsReport::quarantine_rate() const {
  int64_t offered = ingest.admitted + ingest.quarantined;
  return offered == 0 ? 0.0
                      : static_cast<double>(ingest.quarantined) /
                            static_cast<double>(offered);
}

double StatisticsReport::reorder_rate() const {
  int64_t offered = ingest.admitted + ingest.quarantined;
  return offered == 0 ? 0.0
                      : static_cast<double>(ingest.reordered) /
                            static_cast<double>(offered);
}

std::string StatisticsReport::ToString() const {
  std::ostringstream os;
  if (!tenant.empty()) os << "tenant: " << tenant << "\n";
  os << "observed context activity: " << observed_context_activity << "\n";
  if (!analysis_diagnostics.empty()) {
    os << "analysis diagnostics:\n";
    for (const std::string& diag : analysis_diagnostics) {
      os << "  " << diag << "\n";
    }
  }
  if (executor_workers > 0) {
    os << "executor: workers=" << executor_workers
       << " dispatches=" << executor.dispatches << " tasks=" << executor.tasks
       << " imbalance=" << executor.imbalance << " imbalance_per_dispatch[mean="
       << executor.imbalance_per_dispatch.mean()
       << " max=" << executor.imbalance_per_dispatch.max()
       << "] barrier_wait["
       << executor.barrier_wait.ToString() << "]\n";
  }
  if (ingest.reordered > 0 || ingest.quarantined > 0 ||
      ingest.max_observed_lateness > 0) {
    os << "ingest: admitted=" << ingest.admitted
       << " reordered=" << ingest.reordered
       << " dropped_late=" << ingest.dropped_late
       << " quarantined=" << ingest.quarantined
       << " max_lateness=" << ingest.max_observed_lateness
       << " quarantine_rate=" << quarantine_rate()
       << " reorder_rate=" << reorder_rate() << "\n";
    if (ingest.quarantined > 0) {
      os << "quarantine:";
      for (int r = 0; r < kNumQuarantineReasons; ++r) {
        if (quarantine_by_reason[r] == 0) continue;
        os << " " << QuarantineReasonName(static_cast<QuarantineReason>(r))
           << "=" << quarantine_by_reason[r];
      }
      os << " partitions=" << quarantine_by_partition.size() << "\n";
    }
  }
  if (durability_mode != DurabilityMode::kOff) {
    os << "durability: mode=" << DurabilityModeName(durability_mode)
       << " wal_records=" << durability.wal_records
       << " wal_bytes=" << durability.wal_bytes
       << " fsyncs=" << durability.fsyncs
       << " checkpoints=" << durability.checkpoints_written;
    if (recovered) {
      os << " recovered=1 replayed_events="
         << durability.recovery_replayed_events
         << " torn_tail_truncations=" << durability.torn_tail_truncations;
    }
    os << "\n";
    for (const std::string& diag : recovery_diagnostics) {
      os << "  " << diag << "\n";
    }
  }
  if (granularity >= MetricsGranularity::kEngine) {
    os << "ticks: n=" << ticks.ticks << " gc_runs=" << ticks.gc_runs;
    if (ticks.gc_runs > 0) os << " gc_horizon_min=" << ticks.gc_horizon_min;
    os << "\n";
    os << "  events/tick [" << ticks.events_per_tick.ToString() << "]\n";
    os << "  partitions/tick [" << ticks.partitions_per_tick.ToString()
       << "]\n";
    os << "  derived/tick [" << ticks.derived_per_tick.ToString() << "]\n";
    os << "  context_switches/tick ["
       << ticks.context_switches_per_tick.ToString() << "]\n";
    os << "  scheduler_s [" << ticks.scheduler_seconds.ToString()
       << "] ingest_s [" << ticks.ingest_seconds.ToString() << "] gc_pause_s ["
       << ticks.gc_pause_seconds.ToString() << "]\n";
    os << "timeline: points=" << timeline.size()
       << " dropped=" << timeline_dropped << "\n";
    for (const CounterSnapshot& counter : counters) {
      os << "counter " << counter.name << ": " << counter.total << "\n";
    }
    for (const HistogramSnapshot& histogram : histograms) {
      os << "histogram " << histogram.name << ": ["
         << histogram.merged.ToString() << "]\n";
    }
  }
  for (const QueryOperatorStats& row : operators) {
    os << "  " << row.query << " #" << row.op_index << " "
       << OperatorKindName(row.kind) << " [" << row.description
       << "]: in=" << row.stats.input_events
       << " out=" << row.stats.output_events;
    if (row.stats.has_data()) {
      os << " sel=" << *row.stats.ObservedSelectivity()
         << " cost/event=" << *row.stats.ObservedUnitCost();
    } else {
      os << " sel=n/a cost/event=n/a";
    }
    os << "\n";
    if (row.stats.work_per_invocation.count() > 0) {
      os << "    work/invocation [" << row.stats.work_per_invocation.ToString()
         << "]\n";
    }
  }
  return os.str();
}

}  // namespace caesar
