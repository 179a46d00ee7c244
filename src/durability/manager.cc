#include "durability/manager.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace caesar {

Result<RecoveryScan> ScanForRecovery(const DurabilityOptions& options) {
  CAESAR_RETURN_IF_ERROR(options.Validate());
  RecoveryScan scan;
  CAESAR_ASSIGN_OR_RETURN(CheckpointScanResult ckpt,
                          FindLatestCheckpoint(options.dir));
  scan.checkpoint_found = ckpt.found;
  scan.checkpoints_skipped = ckpt.skipped_corrupt;
  scan.diagnostics = std::move(ckpt.diagnostics);
  uint64_t from_segment = 0;
  uint64_t horizon = 0;
  if (ckpt.found) {
    scan.checkpoint = std::move(ckpt.latest);
    from_segment = scan.checkpoint.wal_seq;
    horizon = scan.checkpoint.batch_seq;
  }
  CAESAR_ASSIGN_OR_RETURN(WalScanResult wal,
                          ScanWal(options.dir, from_segment, horizon));
  scan.batches = std::move(wal.batches);
  scan.torn_tail_truncations = wal.torn_tail_truncations;
  for (auto& diag : wal.diagnostics) {
    scan.diagnostics.push_back(std::move(diag));
  }
  scan.next_batch_seq = std::max(horizon, wal.max_batch_seq) + 1;
  scan.next_segment_seq = std::max(wal.next_segment_seq, from_segment + 1);
  return scan;
}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const DurabilityOptions& options) {
  // A fresh engine pointed at a directory with prior artifacts must keep
  // batch sequences monotone past whatever is already committed there, or
  // a later recovery would misread the new records as stale (I413). The
  // recovery scan yields exactly those continuation points; the replay
  // payload is simply discarded.
  CAESAR_ASSIGN_OR_RETURN(RecoveryScan scan, ScanForRecovery(options));
  auto manager =
      std::unique_ptr<DurabilityManager>(new DurabilityManager(options));
  manager->last_committed_seq_ = scan.next_batch_seq - 1;
  if (scan.checkpoint_found) {
    manager->last_checkpoint_tick_ = scan.checkpoint.last_tick;
    manager->cadence_anchored_ = true;
  }
  CAESAR_ASSIGN_OR_RETURN(
      manager->writer_,
      WalWriter::Open(options, scan.next_segment_seq, &manager->counters_));
  return manager;
}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::OpenAfterRecovery(
    const DurabilityOptions& options, const RecoveryScan& scan,
    Timestamp last_checkpoint_tick, int64_t replayed_events) {
  auto manager =
      std::unique_ptr<DurabilityManager>(new DurabilityManager(options));
  manager->last_committed_seq_ = scan.next_batch_seq - 1;
  manager->counters_.recovery_replayed_events = replayed_events;
  manager->counters_.torn_tail_truncations = scan.torn_tail_truncations;
  if (scan.checkpoint_found || !scan.batches.empty()) {
    manager->last_checkpoint_tick_ = last_checkpoint_tick;
    manager->cadence_anchored_ = true;
  }
  CAESAR_ASSIGN_OR_RETURN(
      manager->writer_,
      WalWriter::Open(options, scan.next_segment_seq, &manager->counters_));
  return manager;
}

Status DurabilityManager::CheckNotFailed() const {
  if (failure_.ok()) return Status::Ok();
  return Status::FailedPrecondition(
      "durability: an earlier WAL write failed (" + failure_.ToString() +
      "); later batches cannot be made durable — reopen the directory with "
      "Engine::Recover");
}

Status DurabilityManager::Latch(Status status) {
  if (!status.ok() && failure_.ok()) failure_ = status;
  return status;
}

Status DurabilityManager::AppendTick(Timestamp t, const EventPtr* events,
                                     size_t n) {
  CAESAR_RETURN_IF_ERROR(CheckNotFailed());
  if (!cadence_anchored_) {
    // First tick ever logged anchors the checkpoint cadence so the first
    // checkpoint lands one interval into the stream, wherever it starts.
    last_checkpoint_tick_ = t;
    cadence_anchored_ = true;
  }
  EncodeTickRecord(pending_batch_seq(), t, events, n, &encode_buffer_);
  return Latch(writer_->Append(encode_buffer_, "wal_append"));
}

Status DurabilityManager::CommitBatch(std::string_view snapshot) {
  CAESAR_RETURN_IF_ERROR(CheckNotFailed());
  CAESAR_RETURN_IF_ERROR(Latch(writer_->Append(
      EncodeCommitRecord(pending_batch_seq(), snapshot), "wal_commit")));
  if (options_.fsync == FsyncPolicy::kBatch) {
    CAESAR_RETURN_IF_ERROR(Latch(writer_->Sync()));
  }
  ++last_committed_seq_;
  return Latch(writer_->MaybeRotate());
}

bool DurabilityManager::ShouldCheckpoint(Timestamp t) const {
  return options_.mode == DurabilityMode::kWalCheckpoint &&
         cadence_anchored_ &&
         t - last_checkpoint_tick_ >= options_.checkpoint_interval_ticks;
}

Status DurabilityManager::WriteCheckpoint(Timestamp t,
                                          std::string engine_state) {
  CAESAR_RETURN_IF_ERROR(CheckNotFailed());
  // Rotate first so the checkpoint can truthfully say "batches beyond me
  // start at wal_seq": the fresh segment holds nothing committed yet.
  uint64_t new_seg = writer_->segment_seq() + 1;
  CAESAR_RETURN_IF_ERROR(Latch(writer_->Rotate(new_seg)));
  CheckpointInfo info;
  info.batch_seq = last_committed_seq_;
  info.wal_seq = new_seg;
  info.last_tick = t;
  info.payload = std::move(engine_state);
  CAESAR_RETURN_IF_ERROR(Latch(WriteCheckpointFile(
      options_.dir, info, options_.crash_hook, &counters_.fsyncs)));
  ++counters_.checkpoints_written;
  last_checkpoint_tick_ = t;
  // Retention only deletes superseded artifacts; failing it leaves the
  // log intact, so it does not latch.
  return RetireOldArtifacts(options_.dir, 2);
}

WalLogThread::WalLogThread(DurabilityManager* manager)
    : manager_(manager), thread_([this] { Loop(); }) {}

WalLogThread::~WalLogThread() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_one();
  thread_.join();
}

void WalLogThread::Post(const std::vector<WalTick>& ticks,
                        std::string snapshot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CAESAR_CHECK(!busy_) << "WalLogThread: a job is already in flight";
    ticks_.assign(ticks.begin(), ticks.end());
    snapshot_ = std::move(snapshot);
    posted_ = true;
    busy_ = true;
  }
  cv_.notify_one();
}

Status WalLogThread::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  // Explicit wait loops here and in Loop: the thread-safety analysis
  // cannot see that a predicate lambda runs with mu_ held.
  while (busy_) cv_.wait(lock);
  return result_;
}

void WalLogThread::Loop() {
  // The thread's own copies of the slot, swapped out under mu_; both keep
  // their capacity from job to job.
  std::vector<WalTick> ticks;
  std::string snapshot;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (!posted_ && !shutdown_) cv_.wait(lock);
      if (!posted_) return;  // shut down with nothing posted
      posted_ = false;
      ticks.swap(ticks_);
      snapshot.swap(snapshot_);
    }
    Status status;
    for (const WalTick& tick : ticks) {
      status = manager_->AppendTick(tick.time, tick.events, tick.num_events);
      if (!status.ok()) break;
    }
    if (status.ok()) status = manager_->CommitBatch(snapshot);
    {
      std::lock_guard<std::mutex> lock(mu_);
      result_ = std::move(status);
      busy_ = false;
    }
    cv_.notify_one();
  }
}

}  // namespace caesar
