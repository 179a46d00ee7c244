// DurabilityManager: the engine-facing facade over the WAL and checkpoint
// machinery. The engine serializes its own state (it owns the internals);
// the manager owns sequencing, framing, group commit, rotation, retention,
// and the recovery scan. A manager is used by one thread at a time: the
// engine's scheduler thread, or the WalLogThread it hands the WAL writes
// to while it works (see WalLogThread).

#ifndef CAESAR_DURABILITY_MANAGER_H_
#define CAESAR_DURABILITY_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/diagnostics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "durability/checkpoint.h"
#include "durability/durability.h"
#include "durability/wal.h"

namespace caesar {

// Everything Engine::Recover needs from disk, in one deterministic scan:
// the newest valid checkpoint (if any), the committed WAL batches beyond
// it, the recovery diagnostics, and where to continue writing.
struct RecoveryScan {
  bool checkpoint_found = false;
  CheckpointInfo checkpoint;
  std::vector<WalBatch> batches;  // batch_seq ascending
  std::vector<Diagnostic> diagnostics;  // I410/I411/I412/I413
  int64_t torn_tail_truncations = 0;
  int64_t checkpoints_skipped = 0;
  uint64_t next_batch_seq = 1;
  uint64_t next_segment_seq = 1;
};

Result<RecoveryScan> ScanForRecovery(const DurabilityOptions& options);

class DurabilityManager {
 public:
  // Fresh engine: starts a new segment after anything already in the
  // directory (never appends to, or clobbers, prior artifacts — recovery
  // reads them, a fresh start writes beside them).
  static Result<std::unique_ptr<DurabilityManager>> Open(
      const DurabilityOptions& options);

  // Recovered engine: continues at the sequence numbers the scan produced,
  // carrying the recovery counters forward.
  static Result<std::unique_ptr<DurabilityManager>> OpenAfterRecovery(
      const DurabilityOptions& options, const RecoveryScan& scan,
      Timestamp last_checkpoint_tick, int64_t replayed_events);

  // The first write, sync or rotate failure latches: the log may now end
  // in a torn or unsealed record, and anything appended after it would be
  // unreachable by recovery. Every later AppendTick, CommitBatch and
  // WriteCheckpoint therefore returns FailedPrecondition, and
  // durable_batch_seq() stays where the failure left it; reopen the
  // directory with Engine::Recover to continue.

  // WAL-append of one tick's admitted events (write-ahead: called before
  // the tick is processed). Fails under kAlways fsync errors or an armed
  // crash hook.
  Status AppendTick(Timestamp t, const EventPtr* events, size_t n);

  // Seals the current Run batch with the engine's ingest snapshot and
  // group-commits per the fsync policy. Also size-rotates the segment.
  Status CommitBatch(std::string_view snapshot);

  // True when the checkpoint cadence is due at tick `t` (kWalCheckpoint
  // only; evaluated at Run batch boundaries).
  bool ShouldCheckpoint(Timestamp t) const;

  // Rotates the WAL, publishes a checkpoint of `engine_state` covering
  // everything committed so far, and applies retention.
  Status WriteCheckpoint(Timestamp t, std::string engine_state);

  // Sequence number the batch currently being appended will commit as.
  uint64_t pending_batch_seq() const { return last_committed_seq_ + 1; }

  // Highest batch sequence sealed by a commit record (durable under the
  // fsync policy). After recovery this is where the client resumes input.
  uint64_t durable_batch_seq() const { return last_committed_seq_; }

  const DurabilityCounters& counters() const { return counters_; }
  const DurabilityOptions& options() const { return options_; }

 private:
  DurabilityManager(DurabilityOptions options) : options_(std::move(options)) {}

  // FailedPrecondition once a failure has latched, Ok before.
  Status CheckNotFailed() const;
  // Latches `status` if it is the first failure; returns it unchanged.
  Status Latch(Status status);

  DurabilityOptions options_;
  std::unique_ptr<WalWriter> writer_;
  DurabilityCounters counters_;
  uint64_t last_committed_seq_ = 0;
  Timestamp last_checkpoint_tick_ = 0;
  bool cadence_anchored_ = false;
  Status failure_;  // the latched first failure (Ok = none)
  std::string encode_buffer_;  // tick record payloads, reused
};

// One tick of a Run batch as the log thread appends it. The events stay
// owned by the engine's admitted batch, which outlives the append.
struct WalTick {
  Timestamp time = 0;
  const EventPtr* events = nullptr;
  size_t num_events = 0;
};

// One persistent thread doing a DurabilityManager's WAL writes while the
// engine works: the engine posts a job, does its own work, then Waits for
// the job's status. One job is in flight at a time, and between a Post and
// its Wait only the log thread touches the manager; the slot's mutex
// orders every manager access across the hand-off, so the manager itself
// needs no lock. The crash hook (DurabilityOptions::crash_hook) fires on
// this thread for the points the jobs pass.
class WalLogThread {
 public:
  // Starts the thread. `manager` must outlive this object.
  explicit WalLogThread(DurabilityManager* manager);
  // Finishes a posted job, then joins the thread.
  ~WalLogThread();

  WalLogThread(const WalLogThread&) = delete;
  WalLogThread& operator=(const WalLogThread&) = delete;

  // Starts AppendTick for every tick in order, stopping at the first
  // failure. The slot keeps its own copy of the spans.
  void PostAppend(const std::vector<WalTick>& ticks);
  // Starts CommitBatch(snapshot): the commit record, the fsync under
  // FsyncPolicy::kBatch, and the size rotation.
  void PostCommit(std::string snapshot);
  // Blocks until the posted job has finished and returns its status.
  Status Wait();

 private:
  enum class Job : int8_t { kNone = 0, kAppend, kCommit };

  void Loop();

  DurabilityManager* const manager_;

  std::mutex mu_;
  std::condition_variable cv_;  // one waiter at a time: the other side
  Job job_ CAESAR_GUARDED_BY(mu_) = Job::kNone;  // posted, not yet taken
  bool busy_ CAESAR_GUARDED_BY(mu_) = false;     // posted or running
  bool shutdown_ CAESAR_GUARDED_BY(mu_) = false;
  std::vector<WalTick> ticks_ CAESAR_GUARDED_BY(mu_);
  std::string snapshot_ CAESAR_GUARDED_BY(mu_);
  Status result_ CAESAR_GUARDED_BY(mu_);

  std::thread thread_;  // last: starts after every member it uses
};

}  // namespace caesar

#endif  // CAESAR_DURABILITY_MANAGER_H_
