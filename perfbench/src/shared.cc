#include <sstream>

#include "oracle/differential.h"
#include "oracle/oracle.h"
#include "workloads.h"

namespace caesar {
namespace perfbench {

std::vector<Unit> SliceUnits(const EventBatch& stream, Timestamp ticks_per_unit,
                             Timestamp offset) {
  std::vector<Unit> units;
  for (const EventPtr& event : stream) {
    const Timestamp first =
        event->time() / ticks_per_unit * ticks_per_unit + offset;
    if (units.empty() || units.back().first_tick != first) {
      units.push_back({first, {}});
    }
    if (offset == 0) {
      units.back().events.push_back(event);
    } else {
      units.back().events.push_back(
          MakeEvent(event->type_id(), event->time() + offset, event->values()));
    }
  }
  return units;
}

EventBatch PrefixOf(const EventBatch& stream, Timestamp end_tick) {
  EventBatch prefix;
  for (const EventPtr& event : stream) {
    if (event->time() >= end_tick) break;
    prefix.push_back(event);
  }
  return prefix;
}

bool MatchesOracle(const CaesarModel& model, const EventBatch& input,
                   const EventBatch& derived, std::string* detail) {
  Result<EventBatch> expected = RunReferenceModel(model, input);
  if (!expected.ok()) {
    *detail = "oracle failed: " + expected.status().ToString();
    return false;
  }
  const TickCanon want = CanonicalByTick(expected.value(), *model.registry());
  const TickCanon got = CanonicalByTick(derived, *model.registry());
  if (want == got) return true;
  std::ostringstream os;
  os << "oracle " << expected.value().size() << " derived events, engine "
     << derived.size();
  for (const auto& [tick, events] : want) {
    auto it = got.find(tick);
    if (it == got.end() || it->second != events) {
      os << "; first difference at tick " << tick;
      break;
    }
  }
  *detail = os.str();
  return false;
}

void AccumulateRunStats(const RunStats& stats, RunStats* totals) {
  totals->derived_events += stats.derived_events;
  totals->cpu_seconds += stats.cpu_seconds;
  totals->ops_executed += stats.ops_executed;
  totals->suspended_chains += stats.suspended_chains;
  totals->executed_chains += stats.executed_chains;
  totals->transactions += stats.transactions;
  totals->partitions = stats.partitions;
  totals->parallel_ticks += stats.parallel_ticks;
  totals->parallel_tasks += stats.parallel_tasks;
  totals->shard_imbalance += stats.shard_imbalance;
  totals->tasks_stolen += stats.tasks_stolen;
  totals->barrier_wait_seconds += stats.barrier_wait_seconds;
  totals->wal_bytes += stats.wal_bytes;
  totals->fsyncs += stats.fsyncs;
}

double PerEvent(double value, int64_t events) {
  return events > 0 ? value / static_cast<double>(events) : 0.0;
}

void ReportOperatorMetrics(const StatisticsReport& stats, int64_t events,
                           Report* report) {
  static const std::pair<Operator::Kind, const char*> kKinds[] = {
      {Operator::Kind::kPattern, "pattern"},
      {Operator::Kind::kCompiledPattern, "compiled_pattern"},
      {Operator::Kind::kAggregate, "aggregate"},
      {Operator::Kind::kFilter, "filter"},
      {Operator::Kind::kProjection, "projection"},
      {Operator::Kind::kContextWindow, "context_window"},
      {Operator::Kind::kContextInit, "context_init"},
      {Operator::Kind::kContextTerm, "context_term"},
  };
  for (const auto& [kind, name] : kKinds) {
    OperatorStats sum;
    for (const QueryOperatorStats& row : stats.operators) {
      if (row.kind == kind) sum.Merge(row.stats);
    }
    const std::string prefix = std::string("algebra.") + name;
    report->Layer(prefix + ".invocations",
                  static_cast<double>(sum.invocations), "count");
    report->Layer(prefix + ".work_units_per_event",
                  PerEvent(static_cast<double>(sum.work_units), events),
                  "units/event");
    report->Layer(prefix + ".selectivity",
                  sum.ObservedSelectivity().value_or(0.0), "ratio");
  }
}

void ReportRuntimeMetrics(int64_t events, double run_s, const RunStats& t,
                          const StatisticsReport& stats, Report* report) {
  report->Layer("runtime.run_s", run_s, "s");
  report->Layer("runtime.process_s", t.cpu_seconds, "s");
  report->Layer("runtime.outside_process_s", run_s - t.cpu_seconds, "s");
  report->Layer("runtime.us_per_transaction",
                t.transactions > 0 ? t.cpu_seconds * 1e6 /
                                         static_cast<double>(t.transactions)
                                   : 0.0,
                "us");
  report->Layer("runtime.transactions_per_event",
                PerEvent(static_cast<double>(t.transactions), events),
                "count/event");
  report->Layer("runtime.chains_per_event",
                PerEvent(static_cast<double>(t.executed_chains), events),
                "count/event");
  const int64_t chains = t.executed_chains + t.suspended_chains;
  report->Layer("runtime.suspended_share",
                chains > 0 ? static_cast<double>(t.suspended_chains) /
                                 static_cast<double>(chains)
                           : 0.0,
                "ratio");
  report->Layer("runtime.work_units_per_event",
                PerEvent(static_cast<double>(t.ops_executed), events),
                "units/event");
  report->Layer("runtime.derived_per_event",
                PerEvent(static_cast<double>(t.derived_events), events),
                "count/event");
  report->Layer("runtime.partitions", static_cast<double>(t.partitions),
                "count");
  report->Layer("runtime.ingest_s", stats.ticks.ingest_seconds.sum(), "s");
  report->Layer("runtime.gc_pause_s", stats.ticks.gc_pause_seconds.sum(), "s");
  report->Layer("runtime.gc_runs", static_cast<double>(stats.ticks.gc_runs),
                "count");

  const double dispatches = static_cast<double>(t.parallel_ticks);
  report->Layer("executor.dispatches", dispatches, "count");
  report->Layer("executor.tasks_per_dispatch",
                dispatches > 0 ? static_cast<double>(t.parallel_tasks) /
                                     dispatches
                               : 0.0,
                "count");
  report->Layer("executor.barrier_wait_s", t.barrier_wait_seconds, "s");
  report->Layer("executor.barrier_share",
                run_s > 0 ? t.barrier_wait_seconds / run_s : 0.0, "ratio");
  report->Layer("executor.imbalance_per_dispatch",
                dispatches > 0 ? static_cast<double>(t.shard_imbalance) /
                                     dispatches
                               : 0.0,
                "events");
  report->Layer("executor.steals", static_cast<double>(t.tasks_stolen),
                "count");
  report->Layer("durability.wal_bytes_per_event",
                PerEvent(static_cast<double>(t.wal_bytes), events),
                "bytes/event");
  report->Layer("durability.fsyncs", static_cast<double>(t.fsyncs), "count");
}

}  // namespace perfbench
}  // namespace caesar
