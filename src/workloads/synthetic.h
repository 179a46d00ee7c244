// Synthetic context-window workload used by the evaluation experiments that
// require direct control over context-window placement (Section 7:
// "context window related parameters can be varied only through input data
// manipulation" — this module is that manipulation, made explicit).
//
// The stream carries Tick(seg, pos, load, sec) events where `pos` is a
// monotone signal (== sec). Context windows are intervals in `pos`:
// window i is initiated by "pos > start_i" and terminated by "pos > end_i",
// which makes the windows' bounds compile-time orderable (the requirement
// of the grouping algorithm) and their length/count/overlap freely
// configurable:
//   - Fig. 12(c): vary window length           (non-overlapping windows)
//   - Fig. 12(d): vary window count
//   - Fig. 13:    vary window placement (uniform / positive / negative skew)
//   - Fig. 14:    overlapping windows, shared vs non-shared execution
//
// Each window carries `queries_per_window` SEQ queries; with
// `shared_queries` the same query text is attached to every window
// (dedupable by the grouping transform), otherwise each window gets
// distinct queries.

#ifndef CAESAR_WORKLOADS_SYNTHETIC_H_
#define CAESAR_WORKLOADS_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "event/event.h"
#include "event/schema.h"
#include "query/model.h"

namespace caesar {

struct SyntheticConfig {
  // Stream shape.
  Timestamp duration = 3600;
  int num_partitions = 1;
  int events_per_tick = 2;   // per partition, at full rate
  // Input rate ramp (Fig. 13 needs the stream rate to grow over the run):
  // the effective per-tick event count scales linearly from
  // ramp_start_fraction to 1.0. 1.0 = constant rate.
  double ramp_start_fraction = 1.0;
  int load_cardinality = 8;  // distinct `load` values (join selectivity)
  uint64_t seed = 1;

  // Context windows: explicit [start, end) intervals in ticks. Windows may
  // overlap. Use the helpers below to lay them out.
  struct Window {
    Timestamp start;
    Timestamp end;
  };
  std::vector<Window> windows;

  // Workload assignment:
  //  - kAllWindows: one workload of `queries_per_window` queries, each
  //    associated with *every* window (the Fig. 12(c)/(d)/13 setup — the
  //    workload runs during any window and is suspended outside);
  //  - kPerWindowCopies: every window carries its own copies of the same
  //    query texts (the Fig. 14 setup — structurally identical queries the
  //    grouping transform can share across overlapping windows);
  //  - kPerWindowDistinct: every window carries distinct queries (no
  //    sharing opportunity; control setup).
  enum class QueryAssignment {
    kAllWindows,
    kPerWindowCopies,
    kPerWindowDistinct,
  };
  QueryAssignment assignment = QueryAssignment::kPerWindowCopies;
  int queries_per_window = 4;
  Timestamp query_within = 60;
};

// Lays out `count` windows of `length` ticks each with `overlap` ticks of
// overlap between neighbours (overlap 0 = adjacent-but-disjoint; negative
// overlap = gaps), starting at `first_start`.
std::vector<SyntheticConfig::Window> LayOutWindows(int count,
                                                   Timestamp length,
                                                   Timestamp overlap,
                                                   Timestamp first_start);

// Lays out `count` non-overlapping windows of `length` ticks spread over
// [0, duration): placement 0 = uniform, +1 = clustered at the end
// (positive skew in the paper's Fig. 13 reading: the high-rate tail),
// -1 = clustered at the start.
std::vector<SyntheticConfig::Window> PlaceWindows(int count, Timestamp length,
                                                  Timestamp duration,
                                                  int placement);

// Registers the Tick input type (idempotent).
TypeId RegisterSyntheticTypes(TypeRegistry* registry);

// Generates the Tick stream (time-ordered).
EventBatch GenerateSyntheticStream(const SyntheticConfig& config,
                                   TypeRegistry* registry);

// Builds the normalized model: a default `idle` context plus one context
// per window with threshold deriving queries and the per-window workload.
Result<CaesarModel> MakeSyntheticModel(const SyntheticConfig& config,
                                       TypeRegistry* registry);

// Fraction of the stream duration covered by at least one window (the
// percentage annotated above the bars of Fig. 12(c)/(d)).
double WindowCoverage(const SyntheticConfig& config);

}  // namespace caesar

#endif  // CAESAR_WORKLOADS_SYNTHETIC_H_
