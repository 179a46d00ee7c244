// Checkpoint files: point-in-time serializations of the full resumable
// engine state, published atomically so a crash mid-write can never corrupt
// an existing checkpoint.
//
// On-disk layout:
//
//   ckpt-<batch_seq, 10 digits>.ckpt
//     [u64 magic "CAESCKP1"][u32 version]
//     [u64 batch_seq]   the last committed Run batch the state covers
//     [u64 wal_seq]     first WAL segment with batches beyond this state
//     [i64 last_tick]   last applied tick (checkpoint cadence after recovery)
//     [u32 len][u32 crc32(payload)][payload]   engine-defined state bytes
//
// Publication protocol: write ckpt-<seq>.tmp, fsync it, rename(2) onto the
// final name, fsync the directory. Recovery picks the newest checkpoint
// whose checksum validates; corrupt candidates are skipped with I411 and
// the scan falls back to the next older one (recovery then replays a longer
// WAL suffix — degraded, never wrong). File names, the payload frame and
// the file I/O are durability/artifact.h's.

#ifndef CAESAR_DURABILITY_CHECKPOINT_H_
#define CAESAR_DURABILITY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "common/status.h"
#include "durability/artifact.h"
#include "durability/durability.h"
#include "event/event.h"

namespace caesar {

struct CheckpointInfo {
  uint64_t batch_seq = 0;
  uint64_t wal_seq = 1;
  Timestamp last_tick = 0;
  std::string payload;
};

// Writes and atomically publishes `info` in `dir`. The crash hook is
// consulted at "checkpoint_write" (tmp half-written, then death) and
// "checkpoint_publish" (tmp complete, death before the rename). Bumps
// *fsyncs for each sync performed.
Status WriteCheckpointFile(const std::string& dir, const CheckpointInfo& info,
                           const CrashHook& crash_hook, int64_t* fsyncs);

struct CheckpointScanResult {
  bool found = false;
  CheckpointInfo latest;       // valid only when found
  int64_t skipped_corrupt = 0; // candidates rejected by checksum/framing
  std::vector<Diagnostic> diagnostics;  // one I411 per rejected candidate
};

// Newest checkpoint in `dir` that passes validation. Stale .tmp files from
// an interrupted publication are ignored (and removed). A missing directory
// scans as "none found".
Result<CheckpointScanResult> FindLatestCheckpoint(const std::string& dir);

// Retention after a successful checkpoint: keeps the newest
// `keep_checkpoints` checkpoint files, deletes older ones, and truncates
// the log at the horizon — every WAL segment below the oldest retained
// checkpoint's wal_seq is removed.
Status RetireOldArtifacts(const std::string& dir, int keep_checkpoints);

}  // namespace caesar

#endif  // CAESAR_DURABILITY_CHECKPOINT_H_
