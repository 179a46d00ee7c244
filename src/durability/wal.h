// Segmented, CRC-checksummed write-ahead log for admitted events.
//
// On-disk layout (all integers little-endian, see durability/serde.h):
//
//   wal-<seq, 10 digits>.log
//     [u64 magic "CAESWAL1"][u32 version][u64 segment_seq]   file header
//     [u32 len][u32 crc32(payload)][payload]                 record, repeated
//
// Record payloads start with a one-byte type tag:
//   kWalRecordTick   [u64 batch_seq][i64 tick][u32 n][n x event]
//       The admitted (post-ReorderBuffer) events of one scheduler tick,
//       written before the tick is processed (write-*ahead*).
//   kWalRecordCommit [u64 batch_seq][engine-defined snapshot bytes]
//       Seals one Run batch (group commit). Only ticks covered by a commit
//       record are replayed on recovery; an unsealed suffix belongs to a Run
//       that never returned OK and is discarded.
//
// A batch may span segment rotations. Recovery scans segments in sequence
// order, truncates a torn or corrupt tail at the last valid record boundary
// (I410 / I412), and skips records at or below the recovery horizon (I413,
// e.g. a duplicated tail record).

#ifndef CAESAR_DURABILITY_WAL_H_
#define CAESAR_DURABILITY_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/diagnostics.h"
#include "common/status.h"
#include "durability/durability.h"
#include "event/event.h"

namespace caesar {

inline constexpr uint8_t kWalRecordTick = 1;
inline constexpr uint8_t kWalRecordCommit = 2;

// Record payload encoders (framing and checksums are WalWriter's job).
std::string EncodeTickRecord(uint64_t batch_seq, Timestamp tick,
                             const EventPtr* events, size_t n);
// The same bytes, encoded into `*out` (cleared first, capacity reused).
void EncodeTickRecord(uint64_t batch_seq, Timestamp tick,
                      const EventPtr* events, size_t n, std::string* out);
std::string EncodeCommitRecord(uint64_t batch_seq, std::string_view snapshot);

// "wal-0000000001.log" — also the Diagnostic::source recovery reports use.
std::string WalSegmentFileName(uint64_t seq);

// Appends framed records to segment files, rotating at size thresholds and
// checkpoint boundaries. Counters are bumped on the caller's
// DurabilityCounters (by the one thread using the writer at a time).
class WalWriter {
 public:
  // Opens (creates) segment `segment_seq` in options.dir for appending.
  static Result<std::unique_ptr<WalWriter>> Open(
      const DurabilityOptions& options, uint64_t segment_seq,
      DurabilityCounters* counters);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Writes one framed record; fsyncs under FsyncPolicy::kAlways. The crash
  // hook is consulted with `crash_point` first — when it fires, a torn
  // prefix of the record is left on disk and DataLoss is returned.
  Status Append(std::string_view payload, std::string_view crash_point);

  // fsync of the current segment (group commit under kBatch).
  Status Sync();

  // Rotates to segment `new_seq` (> segment_seq()). Used at checkpoints so
  // the log can be truncated at the checkpoint horizon, and after the size
  // threshold.
  Status Rotate(uint64_t new_seq);
  // Rotate to the next sequence iff the current segment exceeds
  // options.segment_bytes.
  Status MaybeRotate();

  uint64_t segment_seq() const { return seq_; }

 private:
  WalWriter(DurabilityOptions options, DurabilityCounters* counters)
      : options_(std::move(options)), counters_(counters) {}

  Status OpenSegment(uint64_t seq);
  Status CloseSegment();

  DurabilityOptions options_;
  DurabilityCounters* counters_;
  std::string framed_;  // the framed record, reused across appends
  int fd_ = -1;
  uint64_t seq_ = 0;
  uint64_t segment_offset_ = 0;
};

// One committed Run batch reassembled from the log.
struct WalBatch {
  uint64_t batch_seq = 0;
  // (tick, admitted events) in append order.
  std::vector<std::pair<Timestamp, EventBatch>> ticks;
  // The commit record's engine-defined snapshot bytes.
  std::string snapshot;
};

struct WalScanResult {
  std::vector<WalBatch> batches;  // committed, batch_seq > min_batch_seq
  uint64_t max_batch_seq = 0;     // highest committed seq seen anywhere
  uint64_t next_segment_seq = 1;  // 1 + highest segment file present
  int64_t torn_tail_truncations = 0;  // I410 tail truncations performed
  std::vector<Diagnostic> diagnostics;  // I410/I412/I413, deterministic
};

// Scans segments with seq >= from_segment_seq (0 = all) in ascending order,
// reassembling committed batches above `min_batch_seq` (the checkpoint
// horizon). Torn or corrupt tails are physically truncated at the last
// valid record boundary; scanning stops at the first corruption — sealed
// batches before it are still returned. A missing directory yields an empty
// result (fresh start).
Result<WalScanResult> ScanWal(const std::string& dir,
                              uint64_t from_segment_seq,
                              uint64_t min_batch_seq);

// Highest wal segment sequence present in `dir` (0 when none or the
// directory does not exist).
uint64_t MaxWalSegmentSeq(const std::string& dir);

}  // namespace caesar

#endif  // CAESAR_DURABILITY_WAL_H_
