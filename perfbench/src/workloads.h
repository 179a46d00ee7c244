// The perfbench workloads and the helpers they share: cutting a stream into
// the units one closed-loop call hands over, replaying a base stream
// shifted in time, and the oracle gate on a prefix of the derived stream.

#ifndef CAESAR_PERFBENCH_WORKLOADS_H_
#define CAESAR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "event/event.h"
#include "measure.h"
#include "query/model.h"
#include "runtime/engine.h"
#include "runtime/statistics.h"

namespace caesar {
namespace perfbench {

// End-to-end figures come from work that repeats in every pass of a run:
// each call position is timed once per pass, and the figures use this
// quantile of the repeats. On a shared host the CPU alternates between
// fast phases and phases ~1.4x slower that last seconds; the lower
// quartile follows the fast phase as long as a quarter of the passes saw
// it, where a mean would follow how much of the run happened to be slow.
inline constexpr double kRepeatQuantile = 0.25;

// One unit of closed-loop input: the events of ticks
// [first_tick, first_tick + ticks_per_unit).
struct Unit {
  Timestamp first_tick = 0;
  EventBatch events;
};

// Cuts the time-ordered `stream` into units of `ticks_per_unit` ticks,
// aligned to multiples of it, with every time stamp moved by `offset`.
// With offset 0 the units share the stream's events; otherwise they hold
// shifted copies. Ticks without events produce no unit.
std::vector<Unit> SliceUnits(const EventBatch& stream, Timestamp ticks_per_unit,
                             Timestamp offset);

// The events of `stream` with time < `end_tick`.
EventBatch PrefixOf(const EventBatch& stream, Timestamp end_tick);

// Runs the reference interpreter over `input` and compares its output
// with `derived` tick by tick (per-tick multisets of rendered events).
// Returns true on a match; otherwise `detail` names the first difference.
bool MatchesOracle(const CaesarModel& model, const EventBatch& input,
                   const EventBatch& derived, std::string* detail);

// `value` per event; 0 when there were none.
double PerEvent(double value, int64_t events);

// Adds the per-Run counters of `stats` into `totals` (partitions: latest).
void AccumulateRunStats(const RunStats& stats, RunStats* totals);

// The runtime, executor and durability per-module metrics of a timed
// section: `events` handed over in Run calls that took `run_s` seconds
// in total, with `totals` summed over those calls and `stats` the engine's
// CollectStatistics() afterwards.
void ReportRuntimeMetrics(int64_t events, double run_s, const RunStats& totals,
                          const StatisticsReport& stats, Report* report);

// algebra.<kind>.{invocations,work_units_per_event,selectivity} summed over
// the operator rows of `stats`.
void ReportOperatorMetrics(const StatisticsReport& stats, int64_t events,
                           Report* report);

// lr-serial, lr-parallel-wal, pam-seq: Engine::Run in this process.
bool IsLibraryWorkload(const std::string& name);
int RunLibraryWorkload(const BenchConfig& config, Report* report);

// caesard-2tenant: the daemon in its own process, fed over loopback.
int RunDaemonWorkload(const BenchConfig& config, Report* report);

}  // namespace perfbench
}  // namespace caesar

#endif  // CAESAR_PERFBENCH_WORKLOADS_H_
