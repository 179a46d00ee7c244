// Graceful-degradation ingestion: the layer between an imperfect event feed
// and the engine's strictly time-ordered scheduler.
//
// The paper's runtime assumes a perfect feed (time-ordered, well-formed
// events); production traffic is late, duplicated, and malformed. The
// engine therefore admits input through an *ingest policy*:
//
//  - kStrict  — the paper's contract: any disorder or malformed event makes
//    Run return a descriptive error Status before any state is mutated.
//    Disorder includes a batch that starts before the last tick an earlier
//    Run processed; a batch may start at that tick, continuing it.
//  - kDrop    — events older than the newest admitted time stamp are
//    deterministically dropped and quarantined (reason kOutOfOrder).
//  - kReorder — a bounded, watermark-driven reorder buffer re-sequences
//    events late by at most `reorder_slack` ticks; events later than that
//    are dropped and quarantined (reason kLateBeyondSlack).
//
// Watermark semantics (kReorder): after admitting an event at time t the
// buffer's high-water mark is max_seen = max over admitted times, and the
// watermark is max_seen - slack. Buffered events with time() <= watermark
// can never be preceded by a future admissible event (every future event
// has time() >= its own watermark >= the current one), so they are released
// in (time, arrival) order. The released stream is therefore non-decreasing
// in time, and an input whose lateness never exceeds the slack is restored
// to its exact pre-disorder sequence (equal-time events keep arrival
// order). Run drains the buffer at end of batch; the high-water mark and
// the last released time persist across Run calls, so an event older than
// anything already emitted is late no matter when it arrives.
//
// Malformed events (unknown type id, negative occurrence time, inverted
// occurrence interval) never reach the scheduler under kDrop/kReorder;
// they are diverted to a bounded per-partition *quarantine* (dead-letter)
// sink together with their rejection reason. Counters are exact even when
// the sink's event storage is full; see QuarantineSink.

#ifndef CAESAR_RUNTIME_INGEST_H_
#define CAESAR_RUNTIME_INGEST_H_

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "analysis/diagnostics.h"
#include "common/status.h"
#include "event/event.h"

namespace caesar {

class StateWriter;
class StateReader;

// How Engine::Run treats disorder and malformed events in its input.
enum class IngestPolicy : int8_t {
  kStrict = 0,  // reject the batch with a Status (no state mutated)
  kDrop,        // drop events older than the newest admitted time stamp
  kReorder,     // re-sequence within `reorder_slack`, drop the rest
};

// Human-readable policy name ("strict", "drop", "reorder").
const char* IngestPolicyName(IngestPolicy policy);

// Why an event was quarantined instead of processed.
enum class QuarantineReason : int8_t {
  kOutOfOrder = 0,    // kDrop: older than the newest admitted time stamp
  kLateBeyondSlack,   // kReorder: late by more than the slack
  kUnknownType,       // type id not present in the registry
  kNegativeTime,      // occurrence time before the epoch (time() < 0)
  kInvertedInterval,  // complex event with end_time() < start_time()
};

inline constexpr int kNumQuarantineReasons = 5;

// Human-readable reason name ("out_of_order", "late_beyond_slack", ...).
// The names are part of the metrics-export schema; diagnostics instead
// carry the stable I4xx code below, so the two vocabularies can evolve
// independently of the golden files.
const char* QuarantineReasonName(QuarantineReason reason);

// The diagnostic code (analysis/diagnostics.h, I4xx family) for a
// quarantine reason — the shared vocabulary between ingest telemetry,
// reader errors, and caesar_lint.
DiagCode QuarantineDiagCode(QuarantineReason reason);

// One dead-lettered event with its rejection reason and the partition it
// would have been routed to (0 when the partition cannot be determined,
// e.g. for an unknown type).
struct QuarantineEntry {
  EventPtr event;
  QuarantineReason reason = QuarantineReason::kOutOfOrder;
  uint64_t partition_key = 0;
};

// Bounded dead-letter sink. Stores up to `capacity` full entries (the
// head of the quarantine stream, for inspection and replay); counters per
// reason and per partition stay exact past the capacity.
class QuarantineSink {
 public:
  explicit QuarantineSink(size_t capacity) : capacity_(capacity) {}

  void Add(EventPtr event, QuarantineReason reason, uint64_t partition_key);

  // Total events quarantined (retained or not).
  int64_t total() const { return total_; }
  int64_t count(QuarantineReason reason) const {
    return counts_[static_cast<int>(reason)];
  }
  // Events counted but not retained because the sink was full.
  int64_t overflow() const {
    return total_ - static_cast<int64_t>(entries_.size());
  }

  // The retained entries, in quarantine order (at most `capacity`).
  const std::vector<QuarantineEntry>& entries() const { return entries_; }
  // Exact per-partition quarantine counts (deterministic iteration order).
  const std::map<uint64_t, int64_t>& by_partition() const {
    return by_partition_;
  }

  // Checkpoint serialization (durability/serde.h); capacity is
  // configuration and not persisted.
  void Save(StateWriter* w) const;
  Status Load(StateReader* r);

 private:
  size_t capacity_;
  int64_t total_ = 0;
  int64_t counts_[kNumQuarantineReasons] = {};
  std::vector<QuarantineEntry> entries_;
  std::map<uint64_t, int64_t> by_partition_;
};

// Bounded, watermark-driven reorder buffer (see file comment for the
// semantics). Single-threaded: the engine calls it from the scheduler
// thread only, before any worker dispatch.
class ReorderBuffer {
 public:
  // `slack` is the maximum admissible lateness in ticks (>= 0).
  explicit ReorderBuffer(Timestamp slack) : slack_(slack) {}

  // Admits `event` unless it is late beyond the slack or older than an
  // already released event (returns false; nothing is released). On
  // admission, appends every event that became releasable to `released`
  // in (time, arrival) order.
  bool Push(EventPtr event, EventBatch* released);

  // Releases everything still buffered, in order (end of batch/stream).
  void Flush(EventBatch* released);

  // Highest admitted time stamp; meaningful once any_seen().
  Timestamp max_seen() const { return max_seen_; }
  bool any_seen() const { return any_seen_; }

  // watermark() before any admission: no cut-off exists yet, so nothing is
  // late. The sentinel compares below every valid time stamp (including 0)
  // instead of the garbage `0 - slack_` the naive formula would yield.
  static constexpr Timestamp kNoWatermark =
      std::numeric_limits<Timestamp>::min();

  // Admission cut-off: events with time() < watermark are late beyond the
  // slack; kNoWatermark until the first admission.
  Timestamp watermark() const {
    return any_seen_ ? max_seen_ - slack_ : kNoWatermark;
  }
  Timestamp slack() const { return slack_; }

  size_t buffered() const { return heap_.size(); }

  // Checkpoint serialization (durability/serde.h). Only meaningful between
  // Run calls, when the heap is drained; the watermark scalars are what
  // must survive so a recovered engine rejects the same late events.
  void Save(StateWriter* w) const;
  Status Load(StateReader* r);

 private:
  struct Pending {
    Timestamp time = 0;
    uint64_t seq = 0;  // arrival order, for a stable release among ties
    EventPtr event;
  };
  // Min-heap on (time, seq).
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void PopInto(EventBatch* released);

  const Timestamp slack_;
  bool any_seen_ = false;
  Timestamp max_seen_ = 0;
  // Highest released time: after a Flush it can exceed the watermark, and
  // admission must also respect it (nothing may be emitted out of order).
  Timestamp last_released_ = 0;
  bool any_released_ = false;
  uint64_t next_seq_ = 0;
  std::vector<Pending> heap_;
};

// Cumulative ingest/degradation counters over an engine's lifetime.
struct IngestMetrics {
  int64_t admitted = 0;        // events handed to the scheduler
  int64_t reordered = 0;       // admitted out of arrival order (kReorder)
  int64_t dropped_late = 0;    // quarantined as kOutOfOrder/kLateBeyondSlack
  int64_t quarantined = 0;     // all quarantined events (late + malformed)
  Timestamp max_observed_lateness = 0;  // over all late arrivals, any fate
};

}  // namespace caesar

#endif  // CAESAR_RUNTIME_INGEST_H_
