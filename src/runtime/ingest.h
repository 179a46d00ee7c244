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
//  - kReorder — events late by at most `reorder_slack` ticks are admitted
//    and re-sequenced; events later than that are dropped and quarantined
//    (reason kLateBeyondSlack). Slack 0 admits no late event at all: it
//    drops everything older than the newest admitted time stamp.
//
// Watermark semantics (see AdmissionWatermark): the high-water mark is the
// newest admitted time stamp, starting from the last tick an earlier Run
// processed, and the watermark is high-water - reorder_slack. An event at
// time t is admitted iff t >= watermark and, once any tick has run, t >=
// the last processed tick: nothing is ever admitted underneath what was
// already processed. Run processes its batch to completion, so kReorder
// stable-sorts the admitted events by time (equal-time events keep arrival
// order); an input whose lateness never exceeds the slack is restored to
// its exact pre-disorder sequence. Between Runs the floor and the
// high-water mark both equal the engine's last processed tick, so the rule
// keeps no state of its own and a recovered engine rejects the same late
// events.
//
// The watermark also bounds what may still arrive: every future admissible
// event is at or after the current watermark. caesard runs a pending
// buffer's prefix only when nothing admissible can still sort before its
// newest event (Engine::RunnablePrefix), which makes a socket-fed tenant's
// Runs concatenate to exactly one Run over the same arrivals.
//
// Malformed events (unknown type id, negative occurrence time, inverted
// occurrence interval) never reach the scheduler under kReorder; they are
// diverted to a bounded per-partition *quarantine* (dead-letter) sink
// together with their rejection reason. Counters are exact even when the
// sink's event storage is full; see QuarantineSink.

#ifndef CAESAR_RUNTIME_INGEST_H_
#define CAESAR_RUNTIME_INGEST_H_

#include <cstdint>
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
  kReorder,     // re-sequence within `reorder_slack`, drop the rest
};

// Human-readable policy name ("strict", "reorder"); caesard's
// register request spells the policy the same way.
const char* IngestPolicyName(IngestPolicy policy);

// Why an event was quarantined instead of processed.
enum class QuarantineReason : int8_t {
  kLateBeyondSlack = 0,  // kReorder: late by more than the slack
  kUnknownType,          // type id not present in the registry
  kNegativeTime,         // occurrence time before the epoch (time() < 0)
  kInvertedInterval,     // complex event with end_time() < start_time()
};

inline constexpr int kNumQuarantineReasons = 4;

// Human-readable reason name ("late_beyond_slack", "unknown_type", ...).
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
  QuarantineReason reason = QuarantineReason::kLateBeyondSlack;
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

// The admission rule of kReorder (see the file comment), walked
// over one batch. A value type, built per batch from the engine's state:
// Engine::RunnablePrefix judges a pending buffer with one and leaves the
// engine untouched.
class AdmissionWatermark {
 public:
  // Starts from the engine's floor: `last_tick` when `any_tick` (a tick has
  // been processed), no floor otherwise. `slack` is the admissible
  // lateness in ticks (>= 0).
  AdmissionWatermark(bool any_tick, Timestamp last_tick, Timestamp slack)
      : has_floor_(any_tick),
        floor_(last_tick),
        any_(any_tick),
        high_water_(last_tick),
        slack_(slack) {}

  // True when `t` arrives behind the high-water mark, whatever its fate.
  bool late(Timestamp t) const { return any_ && t < high_water_; }
  Timestamp high_water() const { return high_water_; }

  // Every future admissible event is at or after this; meaningful once a
  // tick was processed or an event admitted.
  Timestamp watermark() const { return high_water_ - slack_; }

  // Judges an event at `t`; on admission raises the high-water mark. The
  // very first event is never late, wherever the stream starts.
  bool Admit(Timestamp t) {
    if (any_ && (t < watermark() || (has_floor_ && t < floor_))) {
      return false;
    }
    if (!any_ || t > high_water_) {
      any_ = true;
      high_water_ = t;
    }
    return true;
  }

 private:
  bool has_floor_;
  Timestamp floor_;
  bool any_;
  Timestamp high_water_;
  Timestamp slack_;
};

// Cumulative ingest/degradation counters over an engine's lifetime.
struct IngestMetrics {
  int64_t admitted = 0;        // events handed to the scheduler
  int64_t reordered = 0;       // admitted out of arrival order (kReorder)
  int64_t dropped_late = 0;    // quarantined as kLateBeyondSlack
  int64_t quarantined = 0;     // all quarantined events (late + malformed)
  Timestamp max_observed_lateness = 0;  // over all late arrivals, any fate
};

}  // namespace caesar

#endif  // CAESAR_RUNTIME_INGEST_H_
