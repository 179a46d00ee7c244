#include "runtime/executor.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace caesar {

ShardedExecutor::ShardedExecutor(int num_workers)
    : num_workers_(num_workers), queues_(num_workers) {
  CAESAR_CHECK_GE(num_workers, 1);
  workers_.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w]() { WorkerLoop(w); });
  }
}

ShardedExecutor::~ShardedExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ShardedExecutor::ExecuteTick(size_t count, const uint64_t* shards,
                                  const uint64_t* weights,
                                  const TickTask& task) {
  // Lay the tick out into per-worker task lists once, on the scheduler
  // thread (workers are idle between epochs). The list buffers are members
  // and keep their capacity, so the hot path allocates nothing per tick.
  CAESAR_CHECK_LE(count, size_t{UINT32_MAX});
  for (WorkerQueue& queue : queues_) {
    queue.tasks.clear();
    queue.executed = 0;
  }
  const uint64_t workers = static_cast<uint64_t>(num_workers_);
  for (size_t i = 0; i < count; ++i) {
    queues_[shards[i] % workers].tasks.push_back(static_cast<uint32_t>(i));
  }

  Stopwatch wait;
  {
    std::unique_lock<std::mutex> lock(mu_);
    task_fn_ = &task;
    task_weights_ = weights;
    pending_ = num_workers_;
    ++epoch_;
    work_cv_.notify_all();
    // Explicit wait loop (not the predicate overload): the thread-safety
    // analysis cannot see that a predicate lambda runs with mu_ held.
    while (pending_ != 0) done_cv_.wait(lock);
    task_fn_ = nullptr;
    task_weights_ = nullptr;
  }

  // Executed-load tally from the per-worker counters the barrier just
  // ordered before us. Computed for every worker count — a 1-worker pool
  // records the same metric structure (imbalance 0) as a wide one, so
  // exports stay structurally identical across thread counts.
  uint64_t min_load = queues_[0].executed;
  uint64_t max_load = queues_[0].executed;
  for (const WorkerQueue& queue : queues_) {
    min_load = std::min(min_load, queue.executed);
    max_load = std::max(max_load, queue.executed);
  }

  ++metrics_.ticks;
  metrics_.tasks += count;
  metrics_.tasks_per_tick.Add(count);
  metrics_.imbalance += max_load - min_load;
  metrics_.imbalance_per_tick.Add(max_load - min_load);
  metrics_.barrier_wait.Add(wait.ElapsedSeconds());
}

void ShardedExecutor::WorkerLoop(int worker_id) {
  uint64_t seen_epoch = 0;
  while (true) {
    const TickTask* fn;
    const uint64_t* weights;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Explicit wait loop — see the barrier wait in ExecuteTick.
      while (!shutdown_ && epoch_ == seen_epoch) work_cv_.wait(lock);
      if (shutdown_) return;
      seen_epoch = epoch_;
      fn = task_fn_;
      weights = task_weights_;
    }
    // Run this worker's list. The scheduler blocks until the barrier
    // below, so the queues, `fn` and the weights stay valid throughout.
    WorkerQueue& own = queues_[worker_id];
    uint64_t load = 0;
    for (uint32_t i : own.tasks) {
      (*fn)(i, worker_id);
      load += weights == nullptr ? 1 : weights[i];
    }
    own.executed = load;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

}  // namespace caesar
