// Durability configuration and counters, shared by EngineOptions, the
// statistics report, and the WAL/checkpoint machinery. Kept lightweight so
// runtime/engine.h and runtime/statistics.h can include it without pulling
// in the file-format code (wal.h / checkpoint.h).
//
// Contract (DESIGN.md section 12): with durability on, a Run call that
// returns OK is durable — its admitted events are in the WAL under a sealed
// commit record (group commit, fsynced per FsyncPolicy), and recovery
// restores the engine to the state after the last committed Run. A Run that
// failed or never returned may or may not be durable (its commit record is
// written while its batch is processed); the client re-submits its input
// from durable_batch_seq() after Engine::Recover. Replay is deterministic, so the recovered engine's
// downstream output is byte-identical to an uninterrupted run.

#ifndef CAESAR_DURABILITY_DURABILITY_H_
#define CAESAR_DURABILITY_DURABILITY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace caesar {

// What the engine persists. kOff is bit-for-bit the pre-durability engine:
// no files are touched and no counters move.
enum class DurabilityMode : int8_t {
  kOff = 0,        // no durability (the deterministic test default)
  kWal,            // WAL only: recovery replays the whole log
  kWalCheckpoint,  // WAL + periodic checkpoints bounding replay time
};

const char* DurabilityModeName(DurabilityMode mode);
// Parses "off" / "wal" / "wal+checkpoint"; false on anything else.
bool ParseDurabilityMode(const std::string& name, DurabilityMode* out);

// When the WAL is flushed to stable storage. Group commit is the default:
// one fsync per Run batch bounds the loss window to one uncommitted batch
// without paying a sync per record.
enum class FsyncPolicy : int8_t {
  kNone = 0,  // rely on the page cache (process-crash durable only)
  kBatch,     // fsync once per committed Run batch
  kAlways,    // fsync after every record
};

const char* FsyncPolicyName(FsyncPolicy policy);
bool ParseFsyncPolicy(const std::string& name, FsyncPolicy* out);

// Test-only crash injection: invoked at named points of the write path
// ("wal_append", "wal_commit", "checkpoint_write", "checkpoint_publish").
// Returning true makes the durability layer leave deliberately partial
// on-disk state (a half-written record, an unpublished tmp checkpoint) and
// fail the operation with DataLoss — an in-process SIGKILL equivalent the
// crash-recovery harness can aim at any byte of the protocol. Inside
// Engine::Run the WAL points fire on the engine's log thread and the
// checkpoint points on the thread calling Run, never both at once.
using CrashHook = std::function<bool(std::string_view point)>;

struct DurabilityOptions {
  DurabilityMode mode = DurabilityMode::kOff;

  // Directory for WAL segments and checkpoints. Created if absent. A fresh
  // engine appends after whatever is already there (never clobbers);
  // Engine::Recover is the path that reads it.
  std::string dir;

  FsyncPolicy fsync = FsyncPolicy::kBatch;

  // Under kWalCheckpoint: checkpoint when at least this many ticks elapsed
  // since the last one (checked at Run batch boundaries, where the reorder
  // buffer is drained and per-Run counters are folded).
  int64_t checkpoint_interval_ticks = 256;

  // Segment rotation threshold; rotation also happens at every checkpoint
  // so the log can be truncated at the checkpoint horizon.
  uint64_t segment_bytes = 4u << 20;

  CrashHook crash_hook;  // test-only, see CrashHook

  // mode != kOff requires a dir; interval and segment bound must be >= 1.
  Status Validate() const;
};

// The six durability counters threaded through RunStats, StatisticsReport,
// and the JSON/Prometheus exporters. They are maintained by whichever
// thread holds the manager — the scheduler thread or its WAL log thread,
// never both at once — and never by pool workers, so deterministic exports
// stay byte-identical across worker counts.
struct DurabilityCounters {
  int64_t wal_records = 0;
  int64_t wal_bytes = 0;
  int64_t fsyncs = 0;
  int64_t checkpoints_written = 0;
  // Set during Engine::Recover, constant afterwards.
  int64_t recovery_replayed_events = 0;
  int64_t torn_tail_truncations = 0;
};

}  // namespace caesar

#endif  // CAESAR_DURABILITY_DURABILITY_H_
