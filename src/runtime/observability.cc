#include "runtime/observability.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"
#include "runtime/statistics.h"

namespace caesar {

const char* MetricsGranularityName(MetricsGranularity granularity) {
  switch (granularity) {
    case MetricsGranularity::kOff:
      return "off";
    case MetricsGranularity::kEngine:
      return "engine";
    case MetricsGranularity::kOperator:
      return "operator";
  }
  return "?";
}

bool ParseMetricsGranularity(const std::string& name,
                             MetricsGranularity* granularity) {
  if (name == "off") {
    *granularity = MetricsGranularity::kOff;
  } else if (name == "engine") {
    *granularity = MetricsGranularity::kEngine;
  } else if (name == "operator") {
    *granularity = MetricsGranularity::kOperator;
  } else {
    return false;
  }
  return true;
}

uint64_t Pow2Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(count_ - 1));
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) {
      // Clamp to the observed maximum: the top bucket's upper bound can be
      // far above anything actually recorded.
      uint64_t bound = BucketUpperBound(i);
      return bound < max_ ? bound : max_;
    }
  }
  return max_;
}

std::string Pow2Histogram::ToString() const {
  std::ostringstream os;
  os << "count=" << count_ << " mean=" << mean() << " max=" << max_;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (i <= 1) {
      os << " " << BucketLowerBound(i) << "=" << buckets_[i];
    } else {
      os << " [" << BucketLowerBound(i) << "," << (BucketUpperBound(i) + 1)
         << ")=" << buckets_[i];
    }
  }
  return os.str();
}

void TickMetrics::Merge(const TickMetrics& other) {
  ticks += other.ticks;
  gc_runs += other.gc_runs;
  if (other.gc_horizon_min < gc_horizon_min) {
    gc_horizon_min = other.gc_horizon_min;
  }
  events_per_tick.Merge(other.events_per_tick);
  partitions_per_tick.Merge(other.partitions_per_tick);
  derived_per_tick.Merge(other.derived_per_tick);
  context_switches_per_tick.Merge(other.context_switches_per_tick);
  scheduler_seconds.Merge(other.scheduler_seconds);
  ingest_seconds.Merge(other.ingest_seconds);
  gc_pause_seconds.Merge(other.gc_pause_seconds);
  barrier_wait_seconds.Merge(other.barrier_wait_seconds);
  wal_wait_seconds.Merge(other.wal_wait_seconds);
}

Timeline::Timeline(size_t capacity) : capacity_(capacity) {
  CAESAR_CHECK_GE(capacity, 1u);
}

void Timeline::Push(const TimelinePoint& point) {
  if (points_.size() < capacity_) {
    points_.push_back(point);
  } else {
    points_[next_] = point;
  }
  next_ = (next_ + 1) % capacity_;
  ++total_pushed_;
}

size_t Timeline::size() const { return points_.size(); }

std::vector<TimelinePoint> Timeline::Snapshot() const {
  std::vector<TimelinePoint> snapshot;
  snapshot.reserve(points_.size());
  // Once the ring wrapped, next_ is the oldest retained point.
  size_t start = points_.size() < capacity_ ? 0 : next_;
  for (size_t i = 0; i < points_.size(); ++i) {
    snapshot.push_back(points_[(start + i) % points_.size()]);
  }
  return snapshot;
}

// --------------------------------------------------------------------------
// Trace spans
// --------------------------------------------------------------------------

namespace {

thread_local TraceRecorder* g_current_trace = nullptr;

// Small process-unique thread ids so trace viewers render one lane per
// thread instead of raw pthread handles.
uint32_t CurrentTraceTid() {
  static std::atomic<uint32_t> next_tid{0};
  thread_local uint32_t tid = next_tid.fetch_add(1) + 1;
  return tid;
}

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceRecorder::TraceRecorder() : epoch_ns_(SteadyNowNanos()) {}

int64_t TraceRecorder::NowMicros() const {
  return (SteadyNowNanos() - epoch_ns_) / 1000;
}

void TraceRecorder::Record(const char* name, int64_t start_us,
                           int64_t duration_us) {
  uint32_t tid = CurrentTraceTid();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_us, duration_us, tid});
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<TraceRecorder::Span> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string TraceRecorder::ToJson() const {
  std::vector<Span> spans = Snapshot();
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":" << JsonQuote(span.name)
       << ",\"cat\":\"caesar\",\"ph\":\"X\",\"ts\":" << span.start_us
       << ",\"dur\":" << span.duration_us << ",\"pid\":0,\"tid\":" << span.tid
       << "}";
  }
  os << "]}";
  return os.str();
}

Status TraceRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open trace file: " + path);
  }
  out << ToJson();
  out.close();
  if (!out) {
    return Status::Internal("failed writing trace file: " + path);
  }
  return Status::Ok();
}

TraceRecorder* TraceRecorder::Current() { return g_current_trace; }

void TraceRecorder::SetCurrent(TraceRecorder* recorder) {
  g_current_trace = recorder;
}

TraceScope::TraceScope(TraceRecorder* recorder)
    : previous_(TraceRecorder::Current()) {
  TraceRecorder::SetCurrent(recorder);
}

TraceScope::~TraceScope() { TraceRecorder::SetCurrent(previous_); }

// --------------------------------------------------------------------------
// Exporters
// --------------------------------------------------------------------------

namespace {

// Minimal JSON writer. Key order is fixed by call order, numbers use "%.9g"
// for doubles (same double -> same text, so deterministic inputs stay
// byte-identical), and strings are escaped per RFC 8259.
class JsonWriter {
 public:
  std::string Take() { return std::move(os_).str(); }

  void BeginObject() { Punctuate("{"); }
  void EndObject() {
    os_ << "}";
    pending_comma_ = true;
  }
  void BeginArray() { Punctuate("["); }
  void EndArray() {
    os_ << "]";
    pending_comma_ = true;
  }

  void Key(const char* name) {
    Punctuate("");
    AppendString(name);
    os_ << ":";
  }

  void Value(int64_t v) {
    Punctuate("");
    os_ << v;
    pending_comma_ = true;
  }
  void Value(uint64_t v) {
    Punctuate("");
    os_ << v;
    pending_comma_ = true;
  }
  void Value(int v) { Value(static_cast<int64_t>(v)); }
  void Value(double v) {
    Punctuate("");
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", v);
    os_ << buffer;
    pending_comma_ = true;
  }
  void Value(const std::string& v) {
    Punctuate("");
    AppendString(v.c_str());
    pending_comma_ = true;
  }
  void Value(const char* v) {
    Punctuate("");
    AppendString(v);
    pending_comma_ = true;
  }
  void Null() {
    Punctuate("");
    os_ << "null";
    pending_comma_ = true;
  }

  template <typename T>
  void Field(const char* name, T v) {
    Key(name);
    Value(v);
  }

 private:
  void Punctuate(const char* open) {
    if (pending_comma_) os_ << ",";
    os_ << open;
    pending_comma_ = false;
  }

  void AppendString(const char* s) { os_ << JsonQuote(s); }

  std::ostringstream os_;
  bool pending_comma_ = false;
};

void WriteHistogramJson(JsonWriter* json, const char* name,
                        const Pow2Histogram& histogram) {
  json->Key(name);
  json->BeginObject();
  json->Field("count", histogram.count());
  json->Field("sum", histogram.sum());
  json->Field("max", histogram.max());
  json->Key("buckets");
  json->BeginArray();
  for (int i = 0; i < Pow2Histogram::kNumBuckets; ++i) {
    if (histogram.bucket(i) == 0) continue;
    json->BeginArray();
    json->Value(Pow2Histogram::BucketLowerBound(i));
    json->Value(histogram.bucket(i));
    json->EndArray();
  }
  json->EndArray();
  json->EndObject();
}

void WriteRunningStatsJson(JsonWriter* json, const char* name,
                           const RunningStats& stats) {
  json->Key(name);
  json->BeginObject();
  json->Field("count", stats.count());
  json->Field("sum", stats.sum());
  json->Field("mean", stats.mean());
  json->Field("min", stats.min());
  json->Field("max", stats.max());
  json->EndObject();
}

// Prometheus label-value escaping (backslash, quote, newline).
std::string PromEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Emits a Prometheus histogram: cumulative `le` buckets (upper bounds
// inclusive, only non-empty buckets plus +Inf), _sum, and _count.
void WritePromHistogram(std::ostringstream& os, const std::string& metric,
                        const std::string& labels,
                        const Pow2Histogram& histogram) {
  std::string label_prefix = labels.empty() ? "" : labels + ",";
  os << "# TYPE " << metric << " histogram\n";
  int64_t cumulative = 0;
  for (int i = 0; i < Pow2Histogram::kNumBuckets; ++i) {
    if (histogram.bucket(i) == 0) continue;
    cumulative += histogram.bucket(i);
    os << metric << "_bucket{" << label_prefix << "le=\""
       << Pow2Histogram::BucketUpperBound(i) << "\"} " << cumulative << "\n";
  }
  os << metric << "_bucket{" << label_prefix << "le=\"+Inf\"} "
     << histogram.count() << "\n";
  os << metric << "_sum" << (labels.empty() ? "" : "{" + labels + "}") << " "
     << histogram.sum() << "\n";
  os << metric << "_count" << (labels.empty() ? "" : "{" + labels + "}") << " "
     << histogram.count() << "\n";
}

std::string FmtDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

}  // namespace

std::string StatisticsToJson(const StatisticsReport& report,
                             const ExportOptions& options) {
  JsonWriter json;
  json.BeginObject();
  json.Field("schema_version", int64_t{1});
  // Only a named tenant emits the field: tenant-less reports must stay
  // byte-identical to before the tenant dimension existed (goldens).
  if (!report.tenant.empty()) json.Field("tenant", report.tenant);
  json.Field("granularity", MetricsGranularityName(report.granularity));
  json.Field("deterministic", options.deterministic ? "true" : "false");
  json.Field("observed_context_activity", report.observed_context_activity);

  json.Key("ingest");
  json.BeginObject();
  json.Field("admitted", report.ingest.admitted);
  json.Field("reordered", report.ingest.reordered);
  json.Field("dropped_late", report.ingest.dropped_late);
  json.Field("quarantined", report.ingest.quarantined);
  json.Field("max_observed_lateness", report.ingest.max_observed_lateness);
  json.Field("quarantine_rate", report.quarantine_rate());
  json.Field("reorder_rate", report.reorder_rate());
  json.Key("quarantine_by_reason");
  json.BeginObject();
  for (int r = 0; r < kNumQuarantineReasons; ++r) {
    json.Field(QuarantineReasonName(static_cast<QuarantineReason>(r)),
               report.quarantine_by_reason[r]);
  }
  json.EndObject();
  json.Key("quarantine_by_partition");
  json.BeginArray();
  for (const auto& [key, count] : report.quarantine_by_partition) {
    json.BeginArray();
    json.Value(key);
    json.Value(count);
    json.EndArray();
  }
  json.EndArray();
  json.EndObject();

  // Emitted only when durability is configured, so durability-off exports
  // stay byte-identical to what they were before durability existed.
  if (report.durability_mode != DurabilityMode::kOff) {
    json.Key("durability");
    json.BeginObject();
    json.Field("mode", DurabilityModeName(report.durability_mode));
    json.Field("wal_records", report.durability.wal_records);
    json.Field("wal_bytes", report.durability.wal_bytes);
    json.Field("fsyncs", report.durability.fsyncs);
    json.Field("checkpoints_written", report.durability.checkpoints_written);
    json.Field("recovered", report.recovered ? "true" : "false");
    json.Field("recovery_replayed_events",
               report.durability.recovery_replayed_events);
    json.Field("torn_tail_truncations",
               report.durability.torn_tail_truncations);
    json.Key("recovery_diagnostics");
    json.BeginArray();
    for (const std::string& diag : report.recovery_diagnostics) {
      json.Value(diag);
    }
    json.EndArray();
    json.EndObject();
  }

  if (report.granularity >= MetricsGranularity::kEngine) {
    json.Key("ticks");
    json.BeginObject();
    json.Field("ticks", report.ticks.ticks);
    json.Field("gc_runs", report.ticks.gc_runs);
    json.Key("gc_horizon_min");
    if (report.ticks.gc_runs > 0) {
      json.Value(report.ticks.gc_horizon_min);
    } else {
      json.Null();
    }
    WriteHistogramJson(&json, "events_per_tick", report.ticks.events_per_tick);
    WriteHistogramJson(&json, "partitions_per_tick",
                       report.ticks.partitions_per_tick);
    WriteHistogramJson(&json, "derived_per_tick",
                       report.ticks.derived_per_tick);
    WriteHistogramJson(&json, "context_switches_per_tick",
                       report.ticks.context_switches_per_tick);
    if (!options.deterministic) {
      WriteRunningStatsJson(&json, "scheduler_seconds",
                            report.ticks.scheduler_seconds);
      WriteRunningStatsJson(&json, "ingest_seconds",
                            report.ticks.ingest_seconds);
      WriteRunningStatsJson(&json, "gc_pause_seconds",
                            report.ticks.gc_pause_seconds);
      WriteRunningStatsJson(&json, "barrier_wait_seconds",
                            report.ticks.barrier_wait_seconds);
      WriteRunningStatsJson(&json, "wal_wait_seconds",
                            report.ticks.wal_wait_seconds);
    }
    json.EndObject();

    json.Key("timeline");
    json.BeginObject();
    json.Field("dropped", report.timeline_dropped);
    json.Key("points");
    json.BeginArray();
    for (const TimelinePoint& point : report.timeline) {
      json.BeginObject();
      json.Field("t", point.time);
      json.Field("events", point.input_events);
      json.Field("derived", point.derived_events);
      json.Field("partitions", point.partitions);
      json.Field("executed_chains", point.executed_chains);
      json.Field("suspended_chains", point.suspended_chains);
      json.Field("context_switches", point.context_switches);
      json.Field("activity", point.activity());
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();

    json.Key("counters");
    json.BeginArray();
    for (const CounterSnapshot& counter : report.counters) {
      json.BeginObject();
      json.Field("name", counter.name);
      json.Field("help", counter.help);
      json.Field("total", counter.total);
      if (!options.deterministic) {
        json.Key("per_shard");
        json.BeginArray();
        for (int64_t v : counter.per_shard) json.Value(v);
        json.EndArray();
      }
      json.EndObject();
    }
    json.EndArray();

    json.Key("histograms");
    json.BeginArray();
    for (const HistogramSnapshot& histogram : report.histograms) {
      json.BeginObject();
      json.Field("name", histogram.name);
      json.Field("help", histogram.help);
      WriteHistogramJson(&json, "histogram", histogram.merged);
      json.EndObject();
    }
    json.EndArray();
  }

  json.Key("operators");
  json.BeginArray();
  for (const QueryOperatorStats& row : report.operators) {
    json.BeginObject();
    json.Field("query", row.query);
    json.Field("op", row.op_index);
    json.Field("kind", OperatorKindName(row.kind));
    json.Field("description", row.description);
    json.Field("invocations", row.stats.invocations);
    json.Field("input_events", row.stats.input_events);
    json.Field("output_events", row.stats.output_events);
    json.Field("work_units", row.stats.work_units);
    json.Key("selectivity");
    if (auto selectivity = row.stats.ObservedSelectivity()) {
      json.Value(*selectivity);
    } else {
      json.Null();
    }
    json.Key("unit_cost");
    if (auto unit_cost = row.stats.ObservedUnitCost()) {
      json.Value(*unit_cost);
    } else {
      json.Null();
    }
    if (row.stats.work_per_invocation.count() > 0) {
      WriteHistogramJson(&json, "input_batch", row.stats.input_batch);
      WriteHistogramJson(&json, "output_batch", row.stats.output_batch);
      WriteHistogramJson(&json, "work_per_invocation",
                         row.stats.work_per_invocation);
    }
    json.EndObject();
  }
  json.EndArray();

  if (!options.deterministic && report.executor_workers > 0) {
    json.Key("executor");
    json.BeginObject();
    json.Field("workers", report.executor_workers);
    json.Field("dispatches",
               static_cast<int64_t>(report.executor.dispatches));
    json.Field("tasks", static_cast<int64_t>(report.executor.tasks));
    json.Field("imbalance", static_cast<int64_t>(report.executor.imbalance));
    WriteRunningStatsJson(&json, "barrier_wait", report.executor.barrier_wait);
    WriteHistogramJson(&json, "tasks_per_dispatch",
                       report.executor.tasks_per_dispatch);
    WriteHistogramJson(&json, "imbalance_per_dispatch",
                       report.executor.imbalance_per_dispatch);
    json.EndObject();
  }

  json.EndObject();
  return json.Take();
}

std::string StatisticsToPrometheus(const StatisticsReport& report,
                                   const ExportOptions& options) {
  std::ostringstream os;
  // Stable tenant dimension: a named tenant labels every series
  // (tenant="..."); the empty library default emits exactly the
  // pre-tenant byte stream.
  const std::string tenant_label =
      report.tenant.empty()
          ? std::string()
          : "tenant=\"" + PromEscape(report.tenant) + "\"";
  // `bare(name)` renders an unlabeled series, `with(labels)` prepends the
  // tenant to an existing label list.
  auto bare = [&](const char* name) {
    return tenant_label.empty() ? std::string(name)
                                : std::string(name) + "{" + tenant_label + "}";
  };
  auto with = [&](const std::string& labels) {
    return tenant_label.empty() ? labels : tenant_label + "," + labels;
  };

  os << "# TYPE caesar_context_activity gauge\n";
  os << bare("caesar_context_activity") << " "
     << FmtDouble(report.observed_context_activity) << "\n";

  os << "# TYPE caesar_ingest_events_total counter\n";
  os << "caesar_ingest_events_total{" << with("state=\"admitted\"") << "} "
     << report.ingest.admitted << "\n";
  os << "caesar_ingest_events_total{" << with("state=\"reordered\"") << "} "
     << report.ingest.reordered << "\n";
  os << "caesar_ingest_events_total{" << with("state=\"dropped_late\"")
     << "} " << report.ingest.dropped_late << "\n";
  os << "caesar_ingest_events_total{" << with("state=\"quarantined\"")
     << "} " << report.ingest.quarantined << "\n";
  os << "# TYPE caesar_ingest_max_lateness_ticks gauge\n";
  os << bare("caesar_ingest_max_lateness_ticks") << " "
     << report.ingest.max_observed_lateness << "\n";
  os << "# TYPE caesar_quarantine_rate gauge\n";
  os << bare("caesar_quarantine_rate") << " "
     << FmtDouble(report.quarantine_rate()) << "\n";
  os << "# TYPE caesar_reorder_rate gauge\n";
  os << bare("caesar_reorder_rate") << " " << FmtDouble(report.reorder_rate())
     << "\n";
  os << "# TYPE caesar_quarantine_total counter\n";
  for (int r = 0; r < kNumQuarantineReasons; ++r) {
    os << "caesar_quarantine_total{"
       << with("reason=\"" +
               std::string(QuarantineReasonName(
                   static_cast<QuarantineReason>(r))) +
               "\"")
       << "} " << report.quarantine_by_reason[r] << "\n";
  }

  // Emitted only when durability is configured (see the JSON exporter).
  if (report.durability_mode != DurabilityMode::kOff) {
    os << "# TYPE caesar_wal_records_total counter\n";
    os << bare("caesar_wal_records_total") << " "
       << report.durability.wal_records << "\n";
    os << "# TYPE caesar_wal_bytes_total counter\n";
    os << bare("caesar_wal_bytes_total") << " " << report.durability.wal_bytes
       << "\n";
    os << "# TYPE caesar_wal_fsyncs_total counter\n";
    os << bare("caesar_wal_fsyncs_total") << " " << report.durability.fsyncs
       << "\n";
    os << "# TYPE caesar_checkpoints_total counter\n";
    os << bare("caesar_checkpoints_total") << " "
       << report.durability.checkpoints_written << "\n";
    os << "# TYPE caesar_recovered gauge\n";
    os << bare("caesar_recovered") << " " << (report.recovered ? 1 : 0)
       << "\n";
    os << "# TYPE caesar_recovery_replayed_events_total counter\n";
    os << bare("caesar_recovery_replayed_events_total") << " "
       << report.durability.recovery_replayed_events << "\n";
    os << "# TYPE caesar_wal_torn_tail_truncations_total counter\n";
    os << bare("caesar_wal_torn_tail_truncations_total") << " "
       << report.durability.torn_tail_truncations << "\n";
  }

  if (report.granularity >= MetricsGranularity::kEngine) {
    os << "# TYPE caesar_ticks_total counter\n";
    os << bare("caesar_ticks_total") << " " << report.ticks.ticks << "\n";
    os << "# TYPE caesar_gc_runs_total counter\n";
    os << bare("caesar_gc_runs_total") << " " << report.ticks.gc_runs << "\n";
    WritePromHistogram(os, "caesar_tick_events", tenant_label,
                       report.ticks.events_per_tick);
    WritePromHistogram(os, "caesar_tick_partitions", tenant_label,
                       report.ticks.partitions_per_tick);
    WritePromHistogram(os, "caesar_tick_derived", tenant_label,
                       report.ticks.derived_per_tick);
    WritePromHistogram(os, "caesar_tick_context_switches", tenant_label,
                       report.ticks.context_switches_per_tick);
    if (!options.deterministic) {
      os << "# TYPE caesar_scheduler_seconds_sum counter\n";
      os << bare("caesar_scheduler_seconds_sum") << " "
         << FmtDouble(report.ticks.scheduler_seconds.sum()) << "\n";
      os << "# TYPE caesar_ingest_seconds_sum counter\n";
      os << bare("caesar_ingest_seconds_sum") << " "
         << FmtDouble(report.ticks.ingest_seconds.sum()) << "\n";
      os << "# TYPE caesar_gc_pause_seconds_sum counter\n";
      os << bare("caesar_gc_pause_seconds_sum") << " "
         << FmtDouble(report.ticks.gc_pause_seconds.sum()) << "\n";
      os << "# TYPE caesar_wal_wait_seconds_sum counter\n";
      os << bare("caesar_wal_wait_seconds_sum") << " "
         << FmtDouble(report.ticks.wal_wait_seconds.sum()) << "\n";
    }
    for (const CounterSnapshot& counter : report.counters) {
      os << "# HELP caesar_" << counter.name << "_total "
         << PromEscape(counter.help) << "\n";
      os << "# TYPE caesar_" << counter.name << "_total counter\n";
      os << bare(("caesar_" + counter.name + "_total").c_str()) << " "
         << counter.total << "\n";
      if (!options.deterministic) {
        for (size_t shard = 0; shard < counter.per_shard.size(); ++shard) {
          os << "caesar_" << counter.name << "_per_worker_total{"
             << with("worker=\"" + std::to_string(shard) + "\"") << "} "
             << counter.per_shard[shard] << "\n";
        }
      }
    }
    for (const HistogramSnapshot& histogram : report.histograms) {
      os << "# HELP caesar_" << histogram.name << " "
         << PromEscape(histogram.help) << "\n";
      WritePromHistogram(os, "caesar_" + histogram.name, tenant_label,
                         histogram.merged);
    }
  }

  bool first_op_row = true;
  for (const QueryOperatorStats& row : report.operators) {
    if (first_op_row) {
      os << "# TYPE caesar_op_input_events_total counter\n"
         << "# TYPE caesar_op_output_events_total counter\n"
         << "# TYPE caesar_op_work_units_total counter\n"
         << "# TYPE caesar_op_invocations_total counter\n";
      first_op_row = false;
    }
    std::string labels = with("query=\"" + PromEscape(row.query) +
                              "\",op=\"" + std::to_string(row.op_index) +
                              "\",kind=\"" + OperatorKindName(row.kind) +
                              "\"");
    os << "caesar_op_invocations_total{" << labels << "} "
       << row.stats.invocations << "\n";
    os << "caesar_op_input_events_total{" << labels << "} "
       << row.stats.input_events << "\n";
    os << "caesar_op_output_events_total{" << labels << "} "
       << row.stats.output_events << "\n";
    os << "caesar_op_work_units_total{" << labels << "} "
       << row.stats.work_units << "\n";
    if (auto selectivity = row.stats.ObservedSelectivity()) {
      os << "caesar_op_selectivity{" << labels << "} "
         << FmtDouble(*selectivity) << "\n";
    }
    if (row.stats.work_per_invocation.count() > 0) {
      WritePromHistogram(os, "caesar_op_work_per_invocation", labels,
                         row.stats.work_per_invocation);
      WritePromHistogram(os, "caesar_op_input_batch", labels,
                         row.stats.input_batch);
      WritePromHistogram(os, "caesar_op_output_batch", labels,
                         row.stats.output_batch);
    }
  }

  if (!options.deterministic && report.executor_workers > 0) {
    os << "# TYPE caesar_executor_workers gauge\n";
    os << bare("caesar_executor_workers") << " " << report.executor_workers
       << "\n";
    os << "# TYPE caesar_executor_dispatches_total counter\n";
    os << bare("caesar_executor_dispatches_total") << " "
       << report.executor.dispatches << "\n";
    os << "# TYPE caesar_executor_tasks_total counter\n";
    os << bare("caesar_executor_tasks_total") << " " << report.executor.tasks
       << "\n";
    os << "# TYPE caesar_executor_imbalance_total counter\n";
    os << bare("caesar_executor_imbalance_total") << " "
       << report.executor.imbalance << "\n";
    WritePromHistogram(os, "caesar_executor_imbalance_per_dispatch",
                       tenant_label, report.executor.imbalance_per_dispatch);
    os << "# TYPE caesar_executor_barrier_wait_seconds_sum counter\n";
    os << bare("caesar_executor_barrier_wait_seconds_sum") << " "
       << FmtDouble(report.executor.barrier_wait.sum()) << "\n";
  }

  return os.str();
}

}  // namespace caesar
