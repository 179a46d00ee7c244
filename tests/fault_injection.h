// Fault injection for ingest testing: seeded, deterministic perturbations of
// a well-formed event stream (bounded delay, shuffle, duplication, drops,
// field corruption). Every method is a pure function of (input, seed state),
// so a test that fixes the constructor seed reproduces bit-identically.
//
// The key perturbation is DelayTicks: it delays whole ticks by a bounded
// random amount, modeling network-style reordering where events of one
// source stay in order but interleave late. Its guarantee — no event
// observes lateness greater than max_delay, and events of one tick stay
// contiguous in original order — is exactly what IngestPolicy::kReorder
// with reorder_slack >= max_delay needs to restore the original sequence,
// making byte-identical-output assertions possible.

#ifndef CAESAR_TESTS_FAULT_INJECTION_H_
#define CAESAR_TESTS_FAULT_INJECTION_H_

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "durability/durability.h"
#include "event/event.h"

namespace caesar {
namespace testing {

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : rng_(seed) {}

  // Bounded per-tick delay: every distinct time stamp draws one delay in
  // [0, max_delay] and events are stably re-sorted by (time + delay).
  // Events of one tick stay contiguous and in original order; an event can
  // only be overtaken by an earlier-delayed later tick, so its lateness
  // (high-water time at arrival minus its own time) never exceeds
  // max_delay. A kReorder ingest with slack >= max_delay therefore restores
  // the exact original sequence.
  EventBatch DelayTicks(const EventBatch& stream, Timestamp max_delay) {
    std::map<Timestamp, Timestamp> delay;
    for (const EventPtr& event : stream) {
      if (delay.find(event->time()) == delay.end()) {
        delay[event->time()] = rng_.Uniform(0, max_delay);
      }
    }
    std::vector<std::pair<Timestamp, EventPtr>> keyed;
    keyed.reserve(stream.size());
    for (const EventPtr& event : stream) {
      keyed.emplace_back(event->time() + delay[event->time()], event);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    EventBatch out;
    out.reserve(keyed.size());
    for (auto& [key, event] : keyed) out.push_back(std::move(event));
    return out;
  }

  // Unbounded local disorder: Fisher-Yates shuffle within consecutive
  // windows of `window` events. Unlike DelayTicks this can split ticks and
  // swap equal-time events, so it is the right input for drop-policy tests
  // (where only a deterministic running-max survival rule must hold), not
  // for byte-identity tests.
  EventBatch ShuffleEvents(const EventBatch& stream, size_t window) {
    EventBatch out = stream;
    for (size_t begin = 0; begin < out.size(); begin += window) {
      size_t end = std::min(begin + window, out.size());
      for (size_t i = end - 1; i > begin; --i) {
        size_t j = begin + static_cast<size_t>(
                               rng_.Uniform(0, static_cast<int64_t>(i - begin)));
        std::swap(out[i], out[j]);
      }
    }
    return out;
  }

  // Duplicates each event with probability p; the copy follows the
  // original immediately (same shared immutable instance).
  EventBatch Duplicate(const EventBatch& stream, double p) {
    EventBatch out;
    out.reserve(stream.size() * 2);
    for (const EventPtr& event : stream) {
      out.push_back(event);
      if (rng_.Bernoulli(p)) out.push_back(event);
    }
    return out;
  }

  // Drops each event with probability p.
  EventBatch DropEvents(const EventBatch& stream, double p) {
    EventBatch out;
    out.reserve(stream.size());
    for (const EventPtr& event : stream) {
      if (!rng_.Bernoulli(p)) out.push_back(event);
    }
    return out;
  }

  // Replaces the type id with `bad_type` with probability p (the engine
  // quarantines these as kUnknownType when bad_type is unregistered).
  EventBatch CorruptTypes(const EventBatch& stream, double p,
                          TypeId bad_type) {
    return Map(stream, p, [&](const Event& event) {
      return MakeComplexEvent(bad_type, event.start_time(), event.end_time(),
                              event.values());
    });
  }

  // Sends the occurrence time before the epoch with probability p
  // (time -> -1 - time; quarantined as kNegativeTime).
  EventBatch CorruptTimes(const EventBatch& stream, double p) {
    return Map(stream, p, [&](const Event& event) {
      return MakeEvent(event.type_id(), -1 - event.time(), event.values());
    });
  }

  // Inverts the occurrence interval with probability p while keeping the
  // ordering time() unchanged (start = time + 1 > end = time; quarantined
  // as kInvertedInterval).
  EventBatch CorruptIntervals(const EventBatch& stream, double p) {
    return Map(stream, p, [&](const Event& event) {
      return MakeComplexEvent(event.type_id(), event.time() + 1,
                              event.time(), event.values());
    });
  }

  // Nulls one uniformly chosen attribute value with probability p (events
  // without attributes pass through). Null values are legal — expressions
  // over them evaluate to null — so this probes robustness, not
  // quarantine.
  EventBatch CorruptFields(const EventBatch& stream, double p) {
    return Map(stream, p, [&](const Event& event) -> EventPtr {
      if (event.num_values() == 0) {
        return MakeComplexEvent(event.type_id(), event.start_time(),
                                event.end_time(), event.values());
      }
      // Built in place: GCC 12 flags a Value move-assign from a null
      // temporary with a false -Wmaybe-uninitialized.
      const int64_t nulled = rng_.Uniform(0, event.num_values() - 1);
      std::vector<Value> values;
      values.reserve(event.num_values());
      for (int i = 0; i < event.num_values(); ++i) {
        if (i == nulled) {
          values.emplace_back();
        } else {
          values.push_back(event.value(i));
        }
      }
      return MakeComplexEvent(event.type_id(), event.start_time(),
                              event.end_time(), std::move(values));
    });
  }

 private:
  // Applies `mutate` to each event with probability p.
  template <typename Fn>
  EventBatch Map(const EventBatch& stream, double p, Fn mutate) {
    EventBatch out;
    out.reserve(stream.size());
    for (const EventPtr& event : stream) {
      out.push_back(rng_.Bernoulli(p) ? mutate(*event) : event);
    }
    return out;
  }

  Rng rng_;
};

// Crash-point injector for the durability write path: arms a CrashHook that
// fires at the nth occurrence of a named protocol point ("wal_append",
// "wal_commit", "checkpoint_write", "checkpoint_publish"). The durability
// layer then leaves deliberately partial on-disk state and fails the Run
// with DataLoss — an in-process SIGKILL the harness can aim at any byte of
// the protocol. Count occurrences first (armed = false) to pick a target.
class CrashPointInjector {
 public:
  // Fire at the `nth` (0-based) occurrence of `point`; never when nth < 0.
  CrashPointInjector(std::string point, int64_t nth)
      : point_(std::move(point)), nth_(nth) {}

  CrashHook Hook() {
    return [this](std::string_view point) {
      if (point != point_) return false;
      return occurrences_++ == nth_;
    };
  }

  // Occurrences of the target point observed so far (including the fatal
  // one); with nth < 0 this counts a full run without crashing.
  int64_t occurrences() const { return occurrences_; }
  bool fired() const { return nth_ >= 0 && occurrences_ > nth_; }

 private:
  std::string point_;
  int64_t nth_;
  int64_t occurrences_ = 0;
};

// --- On-disk file faults (bit rot, torn writes, misbehaving storage) ------
// All return false if the file could not be read/rewritten or is too small
// for the requested fault.

// Truncates the last `bytes` bytes (a torn tail: the tail record's frame or
// payload is cut mid-write).
inline bool TruncateFileTail(const std::string& path, uint64_t bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  if (data.size() < bytes) return false;
  data.resize(data.size() - bytes);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

// XORs one byte at `offset` (offset < 0 counts from the end): checksum-
// detectable single-byte rot.
inline bool FlipByte(const std::string& path, int64_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!file) return false;
  file.seekg(0, std::ios::end);
  int64_t size = static_cast<int64_t>(file.tellg());
  int64_t pos = offset >= 0 ? offset : size + offset;
  if (pos < 0 || pos >= size) return false;
  file.seekg(pos);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(pos);
  file.write(&byte, 1);
  return static_cast<bool>(file);
}

// Re-appends the last [len][crc][payload] frame of a WAL segment (a storage
// layer replaying its own write queue after a reconnect). The duplicate is
// internally valid, so recovery must reject it by sequence, not checksum.
inline bool DuplicateTailRecord(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  // Segment header: u64 magic + u32 version + u64 seq.
  constexpr size_t kHeader = 8 + 4 + 8;
  size_t pos = kHeader;
  size_t last_frame_begin = 0;
  size_t last_frame_size = 0;
  while (pos + 8 <= data.size()) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(
                 static_cast<unsigned char>(data[pos + static_cast<size_t>(i)]))
             << (8 * i);
    }
    size_t frame = 8 + static_cast<size_t>(len);
    if (pos + frame > data.size()) break;  // torn tail: stop at last whole one
    last_frame_begin = pos;
    last_frame_size = frame;
    pos += frame;
  }
  if (last_frame_size == 0) return false;
  data.append(data, last_frame_begin, last_frame_size);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

}  // namespace testing
}  // namespace caesar

#endif  // CAESAR_TESTS_FAULT_INJECTION_H_
