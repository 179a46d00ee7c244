// Unit tests for the persistent claiming worker pool: exactly-once
// execution (also under random skew at several widths), the calling thread
// as participant 0, heaviest-first claim order, barrier correctness
// (including empty dispatches), metric accounting, reuse across dispatches
// and Run calls, clean shutdown, identical metric structure across worker
// counts, and a 1-thread engine on a one-participant pool.

#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "plan/translator.h"
#include "query/parser.h"
#include "runtime/engine.h"
#include "runtime/observability.h"
#include "server/wire.h"

namespace caesar {
namespace {

TEST(ShardedExecutorTest, ExecutesEveryTaskExactlyOnce) {
  ShardedExecutor executor(4);
  constexpr size_t kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& hit : hits) hit = 0;
  for (int dispatch = 0; dispatch < 10; ++dispatch) {
    executor.Execute(kTasks, [&](size_t i, int worker) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, 4);
      ++hits[i];
    });
  }
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 10) << i;
  EXPECT_EQ(executor.metrics().dispatches, 10u);
  EXPECT_EQ(executor.metrics().tasks, 10u * kTasks);
}

TEST(ShardedExecutorTest, CallingThreadRunsTasksAsWorkerZero) {
  ShardedExecutor executor(3);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr size_t kTasks = 24;

  // Worker ids name participants, not partitions: id 0 is always the
  // thread that called Execute, and every other id is one persistent pool
  // thread, the same in every dispatch.
  std::map<int, std::thread::id> thread_of;
  std::mutex mu;
  for (int dispatch = 0; dispatch < 20; ++dispatch) {
    executor.Execute(kTasks, [&](size_t, int worker) {
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_EQ(worker == 0, std::this_thread::get_id() == caller);
      auto [it, inserted] =
          thread_of.emplace(worker, std::this_thread::get_id());
      if (!inserted) {
        EXPECT_EQ(it->second, std::this_thread::get_id());
      }
    });
  }
  std::map<std::thread::id, int> distinct;
  for (const auto& [worker, id] : thread_of) ++distinct[id];
  EXPECT_EQ(distinct.size(), thread_of.size());

  // A dispatch with one task never wakes the pool: the caller runs it.
  for (int dispatch = 0; dispatch < 20; ++dispatch) {
    executor.Execute(1, [&](size_t i, int worker) {
      EXPECT_EQ(i, 0u);
      EXPECT_EQ(worker, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
  }
}

TEST(ShardedExecutorTest, OneParticipantRunsHeaviestFirst) {
  // With one participant the claim order is the execution order: weight
  // descending, ties in index order.
  ShardedExecutor executor(1);
  const std::vector<uint64_t> weights = {3, 9, 1, 9, 0, 3, 7};
  std::vector<size_t> ran;
  executor.Execute(weights.size(), weights.data(), [&](size_t i, int worker) {
    EXPECT_EQ(worker, 0);
    ran.push_back(i);
  });
  EXPECT_EQ(ran, (std::vector<size_t>{1, 3, 6, 0, 5, 2, 4}));

  // Without weights every task weighs 1: index order.
  ran.clear();
  executor.Execute(4, [&](size_t i, int) { ran.push_back(i); });
  EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ShardedExecutorTest, EmptyTickStillReachesTheBarrier) {
  ShardedExecutor executor(4);
  for (int dispatch = 0; dispatch < 100; ++dispatch) {
    executor.Execute(0, [](size_t, int) { FAIL(); });
  }
  EXPECT_EQ(executor.metrics().dispatches, 100u);
  EXPECT_EQ(executor.metrics().tasks, 0u);
  EXPECT_EQ(executor.metrics().imbalance, 0u);
  // The pool must still be usable after empty dispatches.
  std::atomic<int> ran{0};
  executor.Execute(2, [&](size_t, int) { ++ran; });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ShardedExecutorTest, ImbalanceCountsSkewedShards) {
  ShardedExecutor executor(2);
  // One task of weight 4: exactly one participant runs it and the other
  // runs nothing, whoever claims it.
  const uint64_t heavy = 4;
  executor.Execute(1, &heavy, [](size_t, int) {});
  EXPECT_EQ(executor.metrics().imbalance, 4u);
  // An empty dispatch adds no imbalance.
  executor.Execute(0, [](size_t, int) {});
  EXPECT_EQ(executor.metrics().imbalance, 4u);
  EXPECT_EQ(executor.metrics().barrier_wait.count(), 2);
  // The per-dispatch histogram records every dispatch: one with imbalance
  // 4, one with 0.
  EXPECT_EQ(executor.metrics().imbalance_per_dispatch.count(), 2);
  EXPECT_EQ(executor.metrics().imbalance_per_dispatch.sum(), 4u);
  EXPECT_EQ(executor.metrics().imbalance_per_dispatch.max(), 4u);
}

TEST(ShardedExecutorTest, WeightedImbalanceSeesWorkSkew) {
  ShardedExecutor executor(2);
  // Two tasks — task counts could split evenly — but task 0 carries weight
  // 9 vs 1. The load tally is weight-based (the engine passes per-run
  // event counts), so the hot task registers: 8 when the tasks split, 10
  // when one participant claims both.
  std::vector<uint64_t> weights = {9, 1};
  executor.Execute(2, weights.data(), [](size_t, int) {});
  EXPECT_GE(executor.metrics().imbalance, 8u);
  EXPECT_LE(executor.metrics().imbalance, 10u);
  EXPECT_EQ(executor.metrics().imbalance_per_dispatch.max(),
            executor.metrics().imbalance);
  EXPECT_EQ(executor.metrics().tasks, 2u);
}

TEST(ShardedExecutorTest, SingleWorkerRunsEverything) {
  ShardedExecutor executor(1);
  std::atomic<int> ran{0};
  executor.Execute(8, [&](size_t, int) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
  // Metric structure is identical across worker counts: the load tally is
  // taken even with one worker (max == min, so imbalance stays zero, but
  // the histogram still records the dispatch).
  EXPECT_EQ(executor.metrics().imbalance, 0u);
  EXPECT_EQ(executor.metrics().imbalance_per_dispatch.count(), 1);
}

TEST(ShardedExecutorTest, CleanShutdownWithoutAnyTick) {
  for (int i = 0; i < 20; ++i) {
    ShardedExecutor executor(4);
  }
}

TEST(ShardedExecutorTest, ManyTicksReuseTheSameWorkers) {
  ShardedExecutor executor(2);
  std::atomic<uint64_t> total{0};
  for (int dispatch = 0; dispatch < 2000; ++dispatch) {
    executor.Execute(2, [&](size_t, int) { ++total; });
  }
  EXPECT_EQ(total.load(), 4000u);
  EXPECT_EQ(executor.metrics().dispatches, 2000u);
}

TEST(ShardedExecutorTest, ExecutesEveryTaskExactlyOnceUnderSkew) {
  // Random dispatch sizes and random, heavily skewed weights (one task in
  // eight is 100x heavier). Every task runs exactly once per dispatch at
  // every width, and the deterministic counters stay exact; the load
  // metrics are timing-dependent and only bounded.
  constexpr int kDispatches = 200;
  for (int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ShardedExecutor executor(workers);
    std::mt19937_64 rng(17 + workers);
    uint64_t expected_tasks = 0;
    uint64_t total_weight = 0;
    std::vector<uint64_t> weights;
    std::vector<std::atomic<int>> hits(64);
    for (int dispatch = 0; dispatch < kDispatches; ++dispatch) {
      const size_t count = rng() % 65;
      weights.resize(count);
      for (uint64_t& w : weights) {
        w = rng() % 8 == 0 ? 100 + rng() % 900 : rng() % 10;
      }
      for (auto& hit : hits) hit = 0;
      executor.Execute(count, weights.data(), [&](size_t i, int worker) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, workers);
        ++hits[i];
      });
      for (size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), i < count ? 1 : 0)
            << "dispatch " << dispatch << " task " << i;
      }
      expected_tasks += count;
      total_weight += std::accumulate(weights.begin(), weights.end(),
                                      uint64_t{0});
    }
    const ExecutorMetrics& m = executor.metrics();
    EXPECT_EQ(m.dispatches, static_cast<uint64_t>(kDispatches));
    EXPECT_EQ(m.tasks, expected_tasks);
    EXPECT_EQ(m.tasks_per_dispatch.count(), kDispatches);
    EXPECT_EQ(m.tasks_per_dispatch.sum(), expected_tasks);
    EXPECT_EQ(m.imbalance_per_dispatch.count(), kDispatches);
    EXPECT_EQ(m.imbalance_per_dispatch.sum(), m.imbalance);
    EXPECT_EQ(m.barrier_wait.count(), kDispatches);
    EXPECT_LE(m.imbalance, total_weight);
    if (workers == 1) {
      EXPECT_EQ(m.imbalance, 0u);
    }
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

TEST_F(ExecutorEngineTest, SerialEngineRunsOnOneParticipantPool) {
  EngineOptions options;
  options.metrics = MetricsGranularity::kEngine;
  Engine engine(Plan(), options);
  ASSERT_NE(engine.executor(), nullptr);
  EXPECT_EQ(engine.executor()->num_workers(), 1);

  // One dispatch per non-empty Run, one task per partition; an empty Run
  // dispatches nothing.
  RunStats first = engine.Run(Stream(0, 10)).value();
  EXPECT_EQ(first.parallel_ticks, 1);
  EXPECT_EQ(first.parallel_tasks, 6);
  EXPECT_EQ(first.shard_imbalance, 0);  // one participant ran everything
  EXPECT_EQ(engine.Run({}).value().parallel_ticks, 0);
  EXPECT_EQ(engine.Run(Stream(10, 20)).value().parallel_ticks, 1);
  EXPECT_EQ(engine.executor()->metrics().dispatches, 2u);

  // The non-deterministic export carries the pool, and the metrics-schema
  // checker accepts it.
  const std::string json = StatisticsToJson(engine.CollectStatistics());
  Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* executor = parsed.value().Find("executor");
  ASSERT_NE(executor, nullptr) << json;
  EXPECT_EQ(executor->Find("workers")->int_value(), 1);
  EXPECT_EQ(executor->Find("dispatches")->int_value(), 2);

  const std::string path =
      ::testing::TempDir() + "executor_test_serial_metrics.json";
  {
    std::ofstream out(path);
    out << "{\"benchmark\":\"executor_test\",\"schema_version\":1,"
        << "\"runs\":[{\"label\":\"serial\",\"report\":" << json << "}]}";
  }
  const std::string command = std::string("python3 '") + CAESAR_TEST_SRCDIR +
                              "/../tools/check_metrics_schema.py' '" + path +
                              "'";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  std::remove(path.c_str());
}

TEST_F(ExecutorEngineTest, WorkersCreatedOncePerEngineAndReusedAcrossRuns) {
  EngineOptions options;
  options.num_threads = 4;
  Engine engine(Plan(), options);
  ASSERT_NE(engine.executor(), nullptr);
  EXPECT_EQ(engine.executor()->num_workers(), 4);
  const ShardedExecutor* pool = engine.executor();

  // One dispatch per Run, one task per partition: each of the six
  // partitions runs its 50 transactions inside its task.
  RunStats first = engine.Run(Stream(0, 50)).value();
  EXPECT_EQ(first.parallel_ticks, 1);
  EXPECT_EQ(first.parallel_tasks, 6);
  EXPECT_EQ(first.transactions, 300);
  // Six equal partition runs cannot spread evenly over four participants,
  // and the engine weighs each task by its event count, so the imbalance
  // shows up whoever claims which run.
  EXPECT_GT(first.shard_imbalance, 0);

  // Second Run reuses the same pool object and its workers; cumulative
  // metrics keep growing.
  RunStats second = engine.Run(Stream(50, 100)).value();
  EXPECT_EQ(engine.executor(), pool);
  EXPECT_EQ(second.parallel_ticks, 1);
  EXPECT_EQ(pool->metrics().dispatches, 2u);
  EXPECT_EQ(pool->metrics().tasks, 12u);
  // An empty Run dispatches nothing.
  EXPECT_EQ(engine.Run({}).value().parallel_ticks, 0);
  EXPECT_EQ(pool->metrics().dispatches, 2u);
}

TEST_F(ExecutorEngineTest, StatisticsReportCarriesExecutorSnapshot) {
  EngineOptions options;
  options.num_threads = 3;
  options.gather_statistics = true;
  Engine engine(Plan(), options);
  engine.Run(Stream(0, 20)).value();
  StatisticsReport report = engine.CollectStatistics();
  EXPECT_EQ(report.executor_workers, 3);
  EXPECT_EQ(report.executor.dispatches, 1u);
  EXPECT_EQ(report.executor.imbalance_per_dispatch.count(), 1);
  EXPECT_NE(report.ToString().find("executor: workers=3"), std::string::npos);
  EXPECT_NE(report.ToString().find("imbalance_per_dispatch["),
            std::string::npos);
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
