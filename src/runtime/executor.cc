#include "runtime/executor.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace caesar {

ShardedExecutor::ShardedExecutor(int num_workers)
    : num_workers_(num_workers), loads_(num_workers) {
  CAESAR_CHECK_GE(num_workers, 1);
  // Participant 0 is whichever thread calls Execute.
  workers_.reserve(num_workers - 1);
  for (int w = 1; w < num_workers; ++w) {
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

void ShardedExecutor::Execute(size_t count, const uint64_t* weights,
                              const Task& task) {
  // The dispatch's wall time on the scheduler thread, claim order included.
  Stopwatch wait;
  // Claim order, built once on the scheduler thread (workers are idle
  // between epochs): heaviest first, ties in index order. The buffer is a
  // member and keeps its capacity, so the hot path allocates nothing per
  // dispatch.
  CAESAR_CHECK_LE(count, size_t{UINT32_MAX});
  order_.resize(count);
  for (size_t i = 0; i < count; ++i) order_[i] = static_cast<uint32_t>(i);
  if (weights != nullptr) {
    std::sort(order_.begin(), order_.end(), [weights](uint32_t a, uint32_t b) {
      return weights[a] != weights[b] ? weights[a] > weights[b] : a < b;
    });
  }
  for (ParticipantLoad& load : loads_) load.executed = 0;
  cursor_.store(0, std::memory_order_relaxed);

  // A single task (or none) is the caller's alone: waking workers would
  // only add latency.
  const bool wake = !workers_.empty() && count > 1;
  if (wake) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      task_fn_ = &task;
      task_weights_ = weights;
      open_ = true;
      ++epoch_;
    }
    work_cv_.notify_all();
  }
  ClaimTasks(0, task, weights);
  if (wake) {
    std::unique_lock<std::mutex> lock(mu_);
    // The cursor is drained: close the dispatch so late wakers sit it out,
    // then wait for the workers that joined to finish their last claims.
    open_ = false;
    // Explicit wait loop (not the predicate overload): the thread-safety
    // analysis cannot see that a predicate lambda runs with mu_ held.
    while (active_ != 0) done_cv_.wait(lock);
    task_fn_ = nullptr;
    task_weights_ = nullptr;
  }

  // Executed-load tally from the per-participant counters the barrier just
  // ordered before us. Computed for every worker count — a 1-worker pool
  // records the same metric structure (imbalance 0) as a wide one, so
  // exports stay structurally identical across thread counts.
  uint64_t min_load = loads_[0].executed;
  uint64_t max_load = loads_[0].executed;
  for (const ParticipantLoad& load : loads_) {
    min_load = std::min(min_load, load.executed);
    max_load = std::max(max_load, load.executed);
  }

  ++metrics_.dispatches;
  metrics_.tasks += count;
  metrics_.tasks_per_dispatch.Add(count);
  metrics_.imbalance += max_load - min_load;
  metrics_.imbalance_per_dispatch.Add(max_load - min_load);
  metrics_.barrier_wait.Add(wait.ElapsedSeconds());
}

void ShardedExecutor::ClaimTasks(int worker, const Task& task,
                                 const uint64_t* weights) {
  // Every claim is one relaxed fetch_add: the order, the task and the
  // weights were published under mu_ before any participant got here.
  const size_t count = order_.size();
  uint64_t load = 0;
  for (size_t next = cursor_.fetch_add(1, std::memory_order_relaxed);
       next < count; next = cursor_.fetch_add(1, std::memory_order_relaxed)) {
    const uint32_t i = order_[next];
    task(i, worker);
    load += weights == nullptr ? 1 : weights[i];
  }
  loads_[worker].executed = load;
}

void ShardedExecutor::WorkerLoop(int worker_id) {
  uint64_t seen_epoch = 0;
  while (true) {
    const Task* fn;
    const uint64_t* weights;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Explicit wait loop — see the barrier wait in Execute. A closed
      // dispatch is skipped: its tasks are all claimed.
      while (!shutdown_ && (epoch_ == seen_epoch || !open_)) {
        work_cv_.wait(lock);
      }
      if (shutdown_) return;
      seen_epoch = epoch_;
      ++active_;
      fn = task_fn_;
      weights = task_weights_;
    }
    // The scheduler blocks at the barrier until active_ drops to zero, so
    // the order, `fn` and the weights stay valid throughout.
    ClaimTasks(worker_id, *fn, weights);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) done_cv_.notify_one();
    }
  }
}

}  // namespace caesar
