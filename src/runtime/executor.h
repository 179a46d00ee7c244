// Persistent partition-run worker pool (the scheduler of the paper's Fig. 8
// runtime).
//
// The engine executes each Run batch partition-major: every partition with
// work in the batch becomes one task that runs all of that partition's
// stream transactions (and its GC points) in tick order. Every engine hands
// the batch's tasks to a pool in one dispatch; a one-participant pool
// spawns no thread and runs them all on the caller. Three properties make
// the pool safe and deterministic:
//
//  - *Claiming, heaviest first*: Execute orders the dispatch's tasks by
//    weight, heaviest first (ties in index order), publishes that order
//    with the epoch, and every participant pulls the next position from one
//    atomic cursor until the list is exhausted. The heaviest partition
//    runs start first, and a participant that finishes early takes the
//    next run rather than idling at the barrier.
//  - *The caller participates*: the scheduler thread that calls Execute is
//    participant 0 and claims tasks like any worker, so a dispatch starts
//    without waiting for a sleeping thread to wake. The pool spawns
//    num_workers - 1 threads. A worker that wakes after the caller has
//    drained the cursor and closed the dispatch sits it out.
//  - *Partition-exclusive tasks, one barrier per dispatch*: a task is one
//    whole partition's share of the batch and is claimed exactly once, so
//    per-partition state has a single writer within a dispatch. Execute
//    returns only after every participant that joined has finished; the
//    epoch mutex orders the scheduler's pre-dispatch writes (partition
//    creation, the distributed batch) before every worker read, and each
//    dispatch's worker writes before the next dispatch, whichever thread
//    runs a partition then.
//
// Workers are created once (constructor) and live until destruction; no
// thread is spawned or joined per dispatch. Which participant runs which
// task depends on timing, so the load metrics (`imbalance`,
// `imbalance_per_dispatch`) and `barrier_wait` do too; they stay out of
// deterministic exports. Determinism of the *output* is the engine's job:
// it merges the tasks' derived events by (tick, partition key) after the
// barrier, so neither the claim order nor thread interleaving reaches the
// derived stream.

#ifndef CAESAR_RUNTIME_EXECUTOR_H_
#define CAESAR_RUNTIME_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/thread_annotations.h"
#include "runtime/observability.h"

namespace caesar {

// Cumulative pool counters, readable between dispatches (never during one).
struct ExecutorMetrics {
  // Dispatches through the pool (including empty ones).
  uint64_t dispatches = 0;
  // Tasks (partition runs) over all dispatches.
  uint64_t tasks = 0;
  // Distribution of tasks per dispatch (count == dispatches);
  // deterministic, unlike the load and barrier metrics below.
  Pow2Histogram tasks_per_dispatch;
  // Load imbalance: sum over dispatches of (max - min) load executed by
  // any participant, in the caller's weight units (the engine passes each
  // partition run's event count; without weights every task counts 1).
  // 0 = perfectly even. Timing-dependent: it reflects which participant
  // claimed which task, so it is excluded from deterministic exports.
  uint64_t imbalance = 0;
  // The same per-dispatch (max - min) as a distribution (count ==
  // dispatches), so skew is readable independently of the run length — the
  // cumulative counter conflates "long balanced run" with "short
  // pathological run".
  Pow2Histogram imbalance_per_dispatch;
  // Wall time of each dispatch on the scheduler thread (count =
  // dispatches, max = slowest dispatch): the claim-order sort, its own
  // claimed tasks, and the wait for the other participants to finish
  // theirs.
  RunningStats barrier_wait;
};

// Fixed-size pool of long-lived workers plus the calling thread, claiming
// the tasks of one dispatch at a time.
class ShardedExecutor {
 public:
  // Runs task `index`; `worker` is the id (0..num_workers-1) of the
  // participant executing it — 0 is the thread that called Execute.
  // Callers recording into per-worker metric shards key them by `worker`,
  // so every shard stays single-writer within a dispatch.
  using Task = std::function<void(size_t index, int worker)>;

  // A pool of `num_workers` (>= 1) participants: the Execute caller plus
  // num_workers - 1 threads, spawned immediately.
  explicit ShardedExecutor(int num_workers);

  // Wakes and joins all workers. Must not race with Execute.
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  int num_workers() const { return num_workers_; }

  // Runs tasks 0..count-1; task i is executed exactly once, by whichever
  // participant claims it. Blocks until every participant has finished.
  // Call from one scheduler thread at a time (the caller becomes
  // participant 0); the task callable must be safe to invoke concurrently
  // for different i.
  //
  // `weights` (optional, length count) is task i's load in arbitrary
  // units: tasks are claimed heaviest first (ties in index order), and the
  // weights feed the imbalance metrics. Null weighs every task 1, so tasks
  // are claimed in index order.
  void Execute(size_t count, const Task& task) {
    Execute(count, nullptr, task);
  }
  void Execute(size_t count, const uint64_t* weights, const Task& task);

  // Snapshot of the cumulative counters (call between dispatches).
  const ExecutorMetrics& metrics() const { return metrics_; }

 private:
  // Load one participant executed in the current dispatch (weighted).
  // Written only by that participant during the dispatch, read by the
  // scheduler after the barrier (ordered via mu_). Padded so neighbouring
  // participants' counters never share a cache line.
  struct alignas(64) ParticipantLoad {
    uint64_t executed = 0;
  };

  void WorkerLoop(int worker_id);
  // Claims and runs tasks until the cursor passes the end of the order;
  // records the executed load in loads_[worker].
  void ClaimTasks(int worker, const Task& task, const uint64_t* weights);

  const int num_workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: "a new epoch is posted"
  std::condition_variable done_cv_;  // scheduler: "all joiners finished"
  uint64_t epoch_ CAESAR_GUARDED_BY(mu_) = 0;  // bumped once per dispatch
  // True from posting an epoch until the scheduler has drained the cursor;
  // only a worker that wakes while it is open joins the dispatch.
  bool open_ CAESAR_GUARDED_BY(mu_) = false;
  int active_ CAESAR_GUARDED_BY(mu_) = 0;  // workers inside the dispatch
  bool shutdown_ CAESAR_GUARDED_BY(mu_) = false;

  // The posted dispatch, published under mu_ and stable until the barrier.
  // Workers copy the pointers while holding mu_ when they join and use the
  // copies for the rest of the dispatch (the scheduler blocks at the
  // barrier, so the pointees outlive every copy).
  const Task* task_fn_ CAESAR_GUARDED_BY(mu_) = nullptr;
  // Null = every task weighs 1.
  const uint64_t* task_weights_ CAESAR_GUARDED_BY(mu_) = nullptr;

  // Claim order (task indices, heaviest first) and the cursor into it.
  // The order is rebuilt (buffer reused) by the scheduler before the epoch
  // is posted and only read during the dispatch; the cursor is the one
  // word participants contend on. Deliberately NOT guarded_by(mu_): the
  // epoch-barrier protocol is outside what the static analysis can model,
  // and taking mu_ per claim would serialize the pool.
  std::vector<uint32_t> order_;
  std::atomic<size_t> cursor_{0};
  std::vector<ParticipantLoad> loads_;

  ExecutorMetrics metrics_;
  std::vector<std::thread> workers_;
};

}  // namespace caesar

#endif  // CAESAR_RUNTIME_EXECUTOR_H_
