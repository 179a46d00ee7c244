// Persistent partition-sharded worker pool (the parallel half of the
// paper's Fig. 8 runtime).
//
// The engine's scheduler processes one *tick* (all stream transactions of
// one application time stamp) at a time. In parallel mode it dispatches the
// tick's per-partition transactions to this pool instead of running them
// inline. Three properties make the pool safe and deterministic:
//
//  - *Per-worker task lists*: the scheduler lays the tick's tasks out into
//    one list per worker (task i goes to worker `shards[i] % num_workers`)
//    once, before waking anyone. Workers walk their own list instead of
//    rescanning the whole shards array, so a tick costs O(count) total
//    rather than O(count x workers).
//  - *Pinned, partition-exclusive execution*: a task is one whole
//    partition's transaction, and its list owner executes it. A partition
//    therefore sees the same worker thread on every tick, and per-partition
//    state needs no locking.
//  - *Barrier per tick*: ExecuteTick blocks the scheduler until every
//    worker has finished the tick. Workers never see two ticks at once,
//    and the scheduler's pre-tick writes (task lists, partition creation)
//    happen-before all worker reads via the epoch mutex.
//
// Workers are created once (constructor) and live until destruction —
// per-tick thread spawn/join cost is gone. Determinism of the *merge* is
// the engine's job: it lays tasks out in partition-key order and
// concatenates their output batches in that same order, so thread
// interleaving never reaches the derived stream.

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

// Cumulative pool counters, readable between ticks (never during one).
struct ExecutorMetrics {
  // Ticks dispatched through the pool (including empty ones).
  uint64_t ticks = 0;
  // Tasks (partition transactions) dispatched over all ticks.
  uint64_t tasks = 0;
  // Distribution of tasks per tick (count == ticks); deterministic, unlike
  // barrier_wait.
  Pow2Histogram tasks_per_tick;
  // Load imbalance: sum over ticks of (max - min) load executed by any
  // worker, in the caller's weight units (the engine passes each
  // transaction's event count; without weights every task counts 1). 0 =
  // perfectly even. Deterministic for a given worker count: it is the
  // imbalance of the partition-key distribution over the workers.
  uint64_t imbalance = 0;
  // The same per-tick (max - min) as a distribution (count == ticks), so
  // skew is readable independently of the run length — the cumulative
  // counter conflates "long balanced run" with "short pathological run".
  Pow2Histogram imbalance_per_tick;
  // Scheduler time blocked on the per-tick barrier (count = ticks, max =
  // slowest tick). Includes the workers' useful work; the interesting
  // signal is its distribution relative to per-tick cost.
  RunningStats barrier_wait;
};

// Fixed-size pool of long-lived workers executing sharded ticks.
class ShardedExecutor {
 public:
  // Runs task `index`; `worker` is the id (0..num_workers-1) of the worker
  // executing it, i.e. the owner `shards[index] % num_workers`. Callers
  // recording into per-worker metric shards key them by `worker`, so every
  // shard stays single-writer within a tick.
  using TickTask = std::function<void(size_t index, int worker)>;

  // Spawns `num_workers` (>= 1) threads immediately.
  explicit ShardedExecutor(int num_workers);

  // Wakes and joins all workers. Must not race with ExecuteTick.
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  int num_workers() const { return num_workers_; }

  // Runs tasks 0..count-1; task i is executed exactly once, by worker
  // `shards[i] % num_workers()` (shards may be null iff count == 0).
  // Blocks until every worker has finished the tick. Call from one
  // scheduler thread only; the task callable must be safe to invoke
  // concurrently for different i.
  //
  // `weights` (optional, same length as shards) is task i's load in
  // arbitrary units, feeding the imbalance metrics; null weighs every task
  // 1. Task-count imbalance is blind to work skew at the engine level —
  // one partition is one task, so a hot partition's extra events never
  // show up — hence the engine passes per-transaction event counts.
  void ExecuteTick(size_t count, const uint64_t* shards,
                   const TickTask& task) {
    ExecuteTick(count, shards, nullptr, task);
  }
  void ExecuteTick(size_t count, const uint64_t* shards,
                   const uint64_t* weights, const TickTask& task);

  // Snapshot of the cumulative counters (call between ticks).
  const ExecutorMetrics& metrics() const { return metrics_; }

 private:
  // Per-worker tick state. The task list is written by the scheduler
  // before the epoch is published; `executed` is written only by the
  // owning worker during the tick and read by the scheduler after the
  // barrier (both orderings via mu_). Padded so neighbouring workers'
  // counters never share a cache line.
  struct alignas(64) WorkerQueue {
    std::vector<uint32_t> tasks;  // task indices, in scheduler order
    uint64_t executed = 0;        // load this worker ran this tick (weighted)
  };

  void WorkerLoop(int worker_id);

  const int num_workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: "a new epoch is posted"
  std::condition_variable done_cv_;  // scheduler: "all workers finished"
  uint64_t epoch_ CAESAR_GUARDED_BY(mu_) = 0;  // bumped once per tick
  int pending_ CAESAR_GUARDED_BY(mu_) = 0;  // workers still inside the epoch
  bool shutdown_ CAESAR_GUARDED_BY(mu_) = false;

  // The posted tick, published under mu_ and stable until the barrier.
  // Workers copy the pointers while holding mu_ in their epoch wait and
  // use the copies for the rest of the tick (the scheduler blocks at the
  // barrier, so the pointees outlive every copy).
  const TickTask* task_fn_ CAESAR_GUARDED_BY(mu_) = nullptr;
  // Null = every task weighs 1.
  const uint64_t* task_weights_ CAESAR_GUARDED_BY(mu_) = nullptr;

  // Per-worker task lists, rebuilt (buffers reused) every tick by the
  // scheduler — no per-tick allocation on the hot path. Deliberately NOT
  // guarded_by(mu_): the epoch-barrier protocol (scheduler writes before
  // publishing the epoch, workers write disjoint entries during the tick,
  // scheduler reads after the barrier) is outside what the static
  // analysis can model, and taking mu_ per task would serialize the pool.
  std::vector<WorkerQueue> queues_;

  ExecutorMetrics metrics_;
  std::vector<std::thread> workers_;
};

}  // namespace caesar

#endif  // CAESAR_RUNTIME_EXECUTOR_H_
