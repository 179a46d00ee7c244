// Persistent partition-sharded worker pool (the parallel half of the
// paper's Fig. 8 runtime).
//
// The engine executes each Run batch partition-major: every partition with
// work in the batch becomes one task that runs all of that partition's
// stream transactions (and its GC points) in tick order. In parallel mode
// the engine hands the batch's tasks to this pool in one dispatch. Three
// properties make the pool safe and deterministic:
//
//  - *Per-worker task lists*: the scheduler lays the dispatch's tasks out
//    into one list per worker (task i goes to worker `shards[i] %
//    num_workers`) once, before waking anyone. Workers walk their own list
//    instead of rescanning the whole shards array, so a dispatch costs
//    O(count) total rather than O(count x workers).
//  - *Pinned, partition-exclusive execution*: a task is one whole
//    partition's share of the batch, and its list owner executes it. A
//    partition therefore sees the same worker thread in every dispatch, and
//    per-partition state needs no locking.
//  - *One barrier per dispatch*: Execute blocks the scheduler until every
//    worker has finished. Workers never see two dispatches at once, and the
//    scheduler's pre-dispatch writes (task lists, partition creation, the
//    distributed batch) happen-before all worker reads via the epoch mutex.
//
// Workers are created once (constructor) and live until destruction —
// per-dispatch thread spawn/join cost is gone. Determinism of the *merge*
// is the engine's job: it merges the tasks' derived events by (tick,
// partition key) after the barrier, so thread interleaving never reaches
// the derived stream.

#ifndef CAESAR_RUNTIME_EXECUTOR_H_
#define CAESAR_RUNTIME_EXECUTOR_H_

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
  // deterministic, unlike barrier_wait.
  Pow2Histogram tasks_per_dispatch;
  // Load imbalance: sum over dispatches of (max - min) load executed by
  // any worker, in the caller's weight units (the engine passes each
  // partition run's event count; without weights every task counts 1).
  // 0 = perfectly even. Deterministic for a given worker count: it is the
  // imbalance of the partition-key distribution over the workers.
  uint64_t imbalance = 0;
  // The same per-dispatch (max - min) as a distribution (count ==
  // dispatches), so skew is readable independently of the run length — the
  // cumulative counter conflates "long balanced run" with "short
  // pathological run".
  Pow2Histogram imbalance_per_dispatch;
  // Scheduler time blocked on the dispatch barrier (count = dispatches,
  // max = slowest dispatch). Includes the workers' useful work; the
  // interesting signal is its distribution relative to the batch cost.
  RunningStats barrier_wait;
};

// Fixed-size pool of long-lived workers executing sharded dispatches.
class ShardedExecutor {
 public:
  // Runs task `index`; `worker` is the id (0..num_workers-1) of the worker
  // executing it, i.e. the owner `shards[index] % num_workers`. Callers
  // recording into per-worker metric shards key them by `worker`, so every
  // shard stays single-writer within a dispatch.
  using Task = std::function<void(size_t index, int worker)>;

  // Spawns `num_workers` (>= 1) threads immediately.
  explicit ShardedExecutor(int num_workers);

  // Wakes and joins all workers. Must not race with Execute.
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  int num_workers() const { return num_workers_; }

  // Runs tasks 0..count-1; task i is executed exactly once, by worker
  // `shards[i] % num_workers()` (shards may be null iff count == 0).
  // Blocks until every worker has finished its list. Call from one
  // scheduler thread only; the task callable must be safe to invoke
  // concurrently for different i.
  //
  // `weights` (optional, same length as shards) is task i's load in
  // arbitrary units, feeding the imbalance metrics; null weighs every task
  // 1. Task-count imbalance is blind to work skew at the engine level —
  // one partition is one task, so a hot partition's extra events never
  // show up — hence the engine passes per-partition event counts.
  void Execute(size_t count, const uint64_t* shards, const Task& task) {
    Execute(count, shards, nullptr, task);
  }
  void Execute(size_t count, const uint64_t* shards, const uint64_t* weights,
               const Task& task);

  // Snapshot of the cumulative counters (call between dispatches).
  const ExecutorMetrics& metrics() const { return metrics_; }

 private:
  // Per-worker dispatch state. The task list is written by the scheduler
  // before the epoch is published; `executed` is written only by the
  // owning worker during the dispatch and read by the scheduler after the
  // barrier (both orderings via mu_). Padded so neighbouring workers'
  // counters never share a cache line.
  struct alignas(64) WorkerQueue {
    std::vector<uint32_t> tasks;  // task indices, in scheduler order
    uint64_t executed = 0;        // load this worker ran (weighted)
  };

  void WorkerLoop(int worker_id);

  const int num_workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: "a new epoch is posted"
  std::condition_variable done_cv_;  // scheduler: "all workers finished"
  uint64_t epoch_ CAESAR_GUARDED_BY(mu_) = 0;  // bumped once per dispatch
  int pending_ CAESAR_GUARDED_BY(mu_) = 0;  // workers still inside the epoch
  bool shutdown_ CAESAR_GUARDED_BY(mu_) = false;

  // The posted dispatch, published under mu_ and stable until the barrier.
  // Workers copy the pointers while holding mu_ in their epoch wait and
  // use the copies for the rest of the dispatch (the scheduler blocks at
  // the barrier, so the pointees outlive every copy).
  const Task* task_fn_ CAESAR_GUARDED_BY(mu_) = nullptr;
  // Null = every task weighs 1.
  const uint64_t* task_weights_ CAESAR_GUARDED_BY(mu_) = nullptr;

  // Per-worker task lists, rebuilt (buffers reused) every dispatch by the
  // scheduler — no per-dispatch allocation on the hot path. Deliberately
  // NOT guarded_by(mu_): the epoch-barrier protocol (scheduler writes
  // before publishing the epoch, workers write disjoint entries during it,
  // scheduler reads after the barrier) is outside what the static
  // analysis can model, and taking mu_ per task would serialize the pool.
  std::vector<WorkerQueue> queues_;

  ExecutorMetrics metrics_;
  std::vector<std::thread> workers_;
};

}  // namespace caesar

#endif  // CAESAR_RUNTIME_EXECUTOR_H_
