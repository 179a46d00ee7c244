// Unit tests for the persistent sharded worker pool: shard assignment
// stability, exactly-once owner execution (also under skew), barrier
// correctness (including empty ticks), metric accounting, reuse across
// ticks and Run calls, clean shutdown, and identical metric structure
// across worker counts.

#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "plan/translator.h"
#include "query/parser.h"
#include "runtime/engine.h"

namespace caesar {
namespace {

TEST(ShardedExecutorTest, ExecutesEveryTaskExactlyOnce) {
  ShardedExecutor executor(4);
  constexpr size_t kTasks = 64;
  std::vector<uint64_t> shards(kTasks);
  for (size_t i = 0; i < kTasks; ++i) shards[i] = i * 1315423911ULL;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& hit : hits) hit = 0;
  for (int tick = 0; tick < 10; ++tick) {
    executor.ExecuteTick(kTasks, shards.data(), [&](size_t i, int worker) {
      // The executing worker is the shard's static owner.
      EXPECT_EQ(worker, static_cast<int>(shards[i] % 4));
      ++hits[i];
    });
  }
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 10) << i;
  EXPECT_EQ(executor.metrics().ticks, 10u);
  EXPECT_EQ(executor.metrics().tasks, 10u * kTasks);
}

TEST(ShardedExecutorTest, ShardAssignmentIsStableAcrossTicks) {
  ShardedExecutor executor(3);
  constexpr size_t kTasks = 24;
  std::vector<uint64_t> shards(kTasks);
  // Multiplier coprime to the worker count, so all residues mod 3 occur.
  for (size_t i = 0; i < kTasks; ++i) shards[i] = 0x9e3779b1ULL * (i + 1);

  // Record which thread handled each shard key on every tick; the same key
  // must always land on the same worker thread.
  std::map<uint64_t, std::thread::id> owner;
  std::mutex mu;
  for (int tick = 0; tick < 20; ++tick) {
    executor.ExecuteTick(kTasks, shards.data(), [&](size_t i, int) {
      std::lock_guard<std::mutex> lock(mu);
      auto [it, inserted] =
          owner.emplace(shards[i], std::this_thread::get_id());
      if (!inserted) {
        EXPECT_EQ(it->second, std::this_thread::get_id())
            << "shard " << shards[i] << " migrated between workers";
      }
    });
  }
  // Keys congruent mod num_workers share a worker; distinct residues use
  // distinct workers (3 residues present among the keys).
  std::map<std::thread::id, int> distinct;
  for (const auto& [key, id] : owner) ++distinct[id];
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(ShardedExecutorTest, EmptyTickStillReachesTheBarrier) {
  ShardedExecutor executor(4);
  for (int tick = 0; tick < 100; ++tick) {
    executor.ExecuteTick(0, nullptr, [](size_t, int) { FAIL(); });
  }
  EXPECT_EQ(executor.metrics().ticks, 100u);
  EXPECT_EQ(executor.metrics().tasks, 0u);
  EXPECT_EQ(executor.metrics().imbalance, 0u);
  // The pool must still be usable after empty ticks.
  std::atomic<int> ran{0};
  uint64_t shard = 7;
  executor.ExecuteTick(1, &shard, [&](size_t, int) { ++ran; });
  EXPECT_EQ(ran.load(), 1);
}

TEST(ShardedExecutorTest, ImbalanceCountsSkewedShards) {
  ShardedExecutor executor(2);
  // All four tasks on the same shard: one worker gets 4, the other 0.
  std::vector<uint64_t> skewed(4, 2);
  executor.ExecuteTick(skewed.size(), skewed.data(), [](size_t, int) {});
  EXPECT_EQ(executor.metrics().imbalance, 4u);
  // Perfectly alternating shards: no imbalance added.
  std::vector<uint64_t> even = {0, 1, 2, 3};
  executor.ExecuteTick(even.size(), even.data(), [](size_t, int) {});
  EXPECT_EQ(executor.metrics().imbalance, 4u);
  EXPECT_EQ(executor.metrics().barrier_wait.count(), 2);
  // The per-tick histogram records every tick: one with imbalance 4, one
  // with 0.
  EXPECT_EQ(executor.metrics().imbalance_per_tick.count(), 2);
  EXPECT_EQ(executor.metrics().imbalance_per_tick.sum(), 4u);
  EXPECT_EQ(executor.metrics().imbalance_per_tick.max(), 4u);
}

TEST(ShardedExecutorTest, WeightedImbalanceSeesWorkSkew) {
  ShardedExecutor executor(2);
  // One task per worker — task counts are perfectly even — but task 0
  // carries weight 9 vs 1. The load tally is weight-based (the engine
  // passes per-transaction event counts), so the hot task registers.
  std::vector<uint64_t> shards = {0, 1};
  std::vector<uint64_t> weights = {9, 1};
  executor.ExecuteTick(2, shards.data(), weights.data(), [](size_t, int) {});
  EXPECT_EQ(executor.metrics().imbalance, 8u);
  EXPECT_EQ(executor.metrics().imbalance_per_tick.max(), 8u);
  EXPECT_EQ(executor.metrics().tasks, 2u);
}

TEST(ShardedExecutorTest, SingleWorkerRunsEverything) {
  ShardedExecutor executor(1);
  std::vector<uint64_t> shards = {0, 1, 2, 3, 4, 5, 6, 7};
  std::atomic<int> ran{0};
  executor.ExecuteTick(shards.size(), shards.data(),
                       [&](size_t, int) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
  // Metric structure is identical across worker counts: the load tally is
  // taken even with one worker (max == min, so imbalance stays zero, but
  // the histogram still records the tick).
  EXPECT_EQ(executor.metrics().imbalance, 0u);
  EXPECT_EQ(executor.metrics().imbalance_per_tick.count(), 1);
}

TEST(ShardedExecutorTest, CleanShutdownWithoutAnyTick) {
  for (int i = 0; i < 20; ++i) {
    ShardedExecutor executor(4);
  }
}

TEST(ShardedExecutorTest, ManyTicksReuseTheSameWorkers) {
  ShardedExecutor executor(2);
  std::vector<uint64_t> shards = {0, 1};
  std::atomic<uint64_t> total{0};
  for (int tick = 0; tick < 2000; ++tick) {
    executor.ExecuteTick(2, shards.data(), [&](size_t, int) { ++total; });
  }
  EXPECT_EQ(total.load(), 4000u);
  EXPECT_EQ(executor.metrics().ticks, 2000u);
}

TEST(ShardedExecutorTest, ExecutesEveryTaskExactlyOnceUnderSkew) {
  // Forced skew: >90% of the tasks share one hot shard. Its owner runs all
  // of them, exactly once per tick, at every worker count; the imbalance
  // metric then equals the assignment skew, tick for tick.
  constexpr size_t kTasks = 64;
  constexpr int kTicks = 200;
  std::vector<uint64_t> shards(kTasks);
  for (size_t i = 0; i < kTasks; ++i) {
    shards[i] = i < 60 ? 0 : i * 1315423911ULL;  // 60/64 tasks on shard 0
  }
  for (int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ShardedExecutor executor(workers);
    std::vector<uint64_t> load(workers, 0);
    for (uint64_t shard : shards) ++load[shard % workers];
    const uint64_t skew = *std::max_element(load.begin(), load.end()) -
                          *std::min_element(load.begin(), load.end());
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto& hit : hits) hit = 0;
    for (int tick = 0; tick < kTicks; ++tick) {
      executor.ExecuteTick(kTasks, shards.data(), [&](size_t i, int worker) {
        EXPECT_EQ(worker, static_cast<int>(shards[i] % workers));
        ++hits[i];
      });
    }
    for (size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), kTicks) << "task " << i;
    }
    EXPECT_EQ(executor.metrics().ticks, static_cast<uint64_t>(kTicks));
    EXPECT_EQ(executor.metrics().tasks,
              static_cast<uint64_t>(kTicks) * kTasks);
    EXPECT_EQ(executor.metrics().imbalance_per_tick.count(), kTicks);
    EXPECT_EQ(executor.metrics().imbalance, skew * kTicks);
  }
}

// --- Engine-level pool lifetime -------------------------------------------

constexpr char kModel[] = R"(
CONTEXTS normal, high DEFAULT normal;
PARTITION BY seg;

QUERY go_high
SWITCH CONTEXT high
PATTERN Reading r WHERE r.value > 10
CONTEXT normal;

QUERY go_normal
SWITCH CONTEXT normal
PATTERN Reading r WHERE r.value <= 10
CONTEXT high;

QUERY alert
DERIVE Alert(r.seg AS seg, r.value AS value)
PATTERN Reading r WHERE r.value > 15
CONTEXT high;
)";

class ExecutorEngineTest : public ::testing::Test {
 protected:
  ExecutorEngineTest() {
    reading_ = registry_.RegisterOrGet("Reading", {{"seg", ValueType::kInt},
                                                   {"value", ValueType::kInt},
                                                   {"sec", ValueType::kInt}});
  }

  ExecutablePlan Plan() {
    auto model = ParseModel(kModel, &registry_);
    CAESAR_CHECK_OK(model.status());
    auto plan = TranslateModel(model.value(), PlanOptions());
    CAESAR_CHECK_OK(plan.status());
    return std::move(plan).value();
  }

  EventBatch Stream(Timestamp from, Timestamp to) {
    EventBatch batch;
    for (Timestamp t = from; t < to; ++t) {
      for (int64_t seg = 0; seg < 6; ++seg) {
        int64_t value = (t * 7 + seg * 13) % 30;
        batch.push_back(
            MakeEvent(reading_, t, {Value(seg), Value(value), Value(t)}));
      }
    }
    return batch;
  }

  TypeRegistry registry_;
  TypeId reading_;
};

TEST_F(ExecutorEngineTest, SerialEngineHasNoPool) {
  Engine engine(Plan(), EngineOptions());
  EXPECT_EQ(engine.executor(), nullptr);
  RunStats stats = engine.Run(Stream(0, 10)).value();
  EXPECT_EQ(stats.parallel_ticks, 0);
  EXPECT_EQ(stats.barrier_wait_seconds, 0.0);
}

TEST_F(ExecutorEngineTest, WorkersCreatedOncePerEngineAndReusedAcrossRuns) {
  EngineOptions options;
  options.num_threads = 4;
  Engine engine(Plan(), options);
  ASSERT_NE(engine.executor(), nullptr);
  EXPECT_EQ(engine.executor()->num_workers(), 4);
  const ShardedExecutor* pool = engine.executor();

  RunStats first = engine.Run(Stream(0, 50)).value();
  EXPECT_EQ(first.parallel_ticks, 50);
  EXPECT_EQ(first.parallel_tasks, first.transactions);
  // Six partitions cannot spread evenly over four workers, and the engine
  // weighs each task by its event count, so the imbalance shows up.
  EXPECT_GT(first.shard_imbalance, 0);

  // Second Run reuses the same pool object and its workers; cumulative
  // metrics keep growing.
  RunStats second = engine.Run(Stream(50, 100)).value();
  EXPECT_EQ(engine.executor(), pool);
  EXPECT_EQ(second.parallel_ticks, 50);
  EXPECT_EQ(pool->metrics().ticks, 100u);
  EXPECT_EQ(pool->metrics().tasks,
            static_cast<uint64_t>(first.transactions + second.transactions));
}

TEST_F(ExecutorEngineTest, StatisticsReportCarriesExecutorSnapshot) {
  EngineOptions options;
  options.num_threads = 3;
  options.gather_statistics = true;
  Engine engine(Plan(), options);
  engine.Run(Stream(0, 20)).value();
  StatisticsReport report = engine.CollectStatistics();
  EXPECT_EQ(report.executor_workers, 3);
  EXPECT_EQ(report.executor.ticks, 20u);
  EXPECT_EQ(report.executor.imbalance_per_tick.count(), 20);
  EXPECT_NE(report.ToString().find("executor: workers=3"), std::string::npos);
  EXPECT_NE(report.ToString().find("imbalance_per_tick["), std::string::npos);
}

TEST_F(ExecutorEngineTest, EngineDestructionJoinsWorkers) {
  for (int i = 0; i < 10; ++i) {
    EngineOptions options;
    options.num_threads = 4;
    Engine engine(Plan(), options);
    if (i % 2 == 0) engine.Run(Stream(0, 5)).value();
    // Destructor must join the pool cleanly, with or without a Run.
  }
}

}  // namespace
}  // namespace caesar
