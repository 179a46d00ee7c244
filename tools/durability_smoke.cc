// Recovery smoke driver for CI: a real SIGKILL (not an in-process crash
// hook) against a live engine, then byte-compared recovery.
//
// Modes:
//   durability_smoke --mode=run --dir=DIR [--seed=N] [--duration=T]
//       [--ticks-per-batch=K] [--tick-sleep-ms=M] [--threads=N]
//     Runs the pinned synthetic workload in tick-aligned batches with
//     durability=wal+checkpoint into DIR. --tick-sleep-ms stalls every
//     scheduler tick so an external `kill -9` lands mid-batch, mid-WAL.
//     Exits 0 when the whole stream was processed.
//   durability_smoke --mode=recover --dir=DIR [--seed=N] [--duration=T]
//       [--ticks-per-batch=K] [--threads=N]
//     Recovers from DIR with the same (deterministic) workload, re-submits
//     every batch after durable_batch_seq(), and compares the remaining
//     derived stream byte-for-byte against an uninterrupted durability-off
//     run. Exits 0 on equality, 1 on divergence, 2 on usage/setup errors.
//
// --threads (default 1) sets the durable engine's EngineOptions::num_threads;
// the uninterrupted reference always runs serially. The workload knobs must
// match between the killed run and the recovery; the thread count need not.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "optimizer/optimizer.h"
#include "runtime/engine.h"
#include "workloads/synthetic.h"

namespace caesar {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --mode=run|recover --dir=DIR [--seed=N]\n"
               "          [--duration=T] [--ticks-per-batch=K]\n"
               "          [--tick-sleep-ms=M] [--threads=N]\n",
               argv0);
  return 2;
}

struct Workload {
  TypeRegistry registry;
  ExecutablePlan plan;
  std::vector<EventBatch> batches;
};

std::vector<EventBatch> SplitByTicks(const EventBatch& stream,
                                     int ticks_per_batch) {
  std::vector<EventBatch> batches;
  EventBatch current;
  int distinct = 0;
  bool any = false;
  Timestamp prev = 0;
  for (const EventPtr& event : stream) {
    if (!any || event->time() != prev) {
      if (distinct == ticks_per_batch) {
        batches.push_back(std::move(current));
        current.clear();
        distinct = 0;
      }
      ++distinct;
      prev = event->time();
      any = true;
    }
    current.push_back(event);
  }
  if (!current.empty()) batches.push_back(std::move(current));
  return batches;
}

std::unique_ptr<Workload> MakeWorkload(uint64_t seed, Timestamp duration,
                                       int ticks_per_batch) {
  auto w = std::make_unique<Workload>();
  SyntheticConfig config;
  config.duration = duration;
  config.num_partitions = 4;
  config.events_per_tick = 2;
  config.seed = seed;
  config.windows = LayOutWindows(/*count=*/3, /*length=*/duration / 4,
                                 /*overlap=*/duration / 16,
                                 /*first_start=*/duration / 8);
  config.assignment = SyntheticConfig::QueryAssignment::kPerWindowCopies;
  config.queries_per_window = 2;
  EventBatch stream = GenerateSyntheticStream(config, &w->registry);
  w->batches = SplitByTicks(stream, ticks_per_batch);
  auto model = MakeSyntheticModel(config, &w->registry);
  CAESAR_CHECK_OK(model.status());
  auto plan = OptimizeModel(model.value(), OptimizerOptions());
  CAESAR_CHECK_OK(plan.status());
  w->plan = std::move(plan).value();
  return w;
}

std::string Render(const EventBatch& outputs, const TypeRegistry& registry) {
  std::ostringstream os;
  for (const EventPtr& event : outputs) {
    os << event->time() << " " << event->ToString(registry) << "\n";
  }
  return os.str();
}

EngineOptions DurableOptions(const std::string& dir, int threads) {
  EngineOptions options;
  options.num_threads = threads;
  options.durability.mode = DurabilityMode::kWalCheckpoint;
  options.durability.dir = dir;
  options.durability.fsync = FsyncPolicy::kBatch;
  options.durability.checkpoint_interval_ticks = 32;
  return options;
}

int RunMode(const Workload& w, const std::string& dir,
            int64_t tick_sleep_ms, int threads) {
  Engine engine(w.plan.Clone(), DurableOptions(dir, threads));
  if (tick_sleep_ms > 0) {
    engine.SetTickObserver([tick_sleep_ms](Timestamp, const EventBatch&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(tick_sleep_ms));
    });
  }
  for (size_t b = 0; b < w.batches.size(); ++b) {
    auto stats = engine.Run(w.batches[b], nullptr);
    if (!stats.ok()) {
      std::fprintf(stderr, "batch %zu failed: %s\n", b,
                   stats.status().ToString().c_str());
      return 2;
    }
    std::printf("batch %zu committed (seq %llu)\n", b,
                static_cast<unsigned long long>(engine.durable_batch_seq()));
    std::fflush(stdout);
  }
  std::printf("run complete: %zu batches durable\n", w.batches.size());
  return 0;
}

int RecoverMode(const Workload& w, const std::string& dir, int threads) {
  // Uninterrupted reference, durability off.
  std::vector<std::string> expected;
  {
    Engine reference(w.plan.Clone(), EngineOptions());
    for (const EventBatch& batch : w.batches) {
      EventBatch derived;
      auto stats = reference.Run(batch, &derived);
      CAESAR_CHECK_OK(stats.status());
      expected.push_back(Render(derived, w.registry));
    }
  }

  auto recovered =
      Engine::Recover(w.plan.Clone(), DurableOptions(dir, threads));
  if (!recovered.ok()) {
    std::fprintf(stderr, "Engine::Recover failed: %s\n",
                 recovered.status().ToString().c_str());
    return 2;
  }
  Engine& engine = *recovered.value();
  for (const std::string& diag : engine.recovery_diagnostics()) {
    std::fprintf(stderr, "recovery: %s\n", diag.c_str());
  }
  const uint64_t resume = engine.durable_batch_seq();
  std::printf("recovered: durable_batch_seq=%llu replayed_events=%lld\n",
              static_cast<unsigned long long>(resume),
              static_cast<long long>(
                  engine.durability_counters().recovery_replayed_events));
  if (resume > w.batches.size()) {
    std::fprintf(stderr, "durable seq %llu beyond %zu generated batches\n",
                 static_cast<unsigned long long>(resume), w.batches.size());
    return 2;
  }
  bool diverged = false;
  for (size_t b = resume; b < w.batches.size(); ++b) {
    EventBatch derived;
    auto stats = engine.Run(w.batches[b], &derived);
    if (!stats.ok()) {
      std::fprintf(stderr, "post-recovery batch %zu failed: %s\n", b,
                   stats.status().ToString().c_str());
      return 2;
    }
    const std::string actual = Render(derived, w.registry);
    if (actual != expected[b]) {
      std::fprintf(stderr,
                   "batch %zu diverged after recovery (%zu vs %zu bytes)\n",
                   b, actual.size(), expected[b].size());
      diverged = true;
    }
  }
  if (diverged) return 1;
  std::printf("recovery verified: batches %llu..%zu byte-identical\n",
              static_cast<unsigned long long>(resume), w.batches.size());
  return 0;
}

int Main(int argc, char** argv) {
  std::string mode;
  std::string dir;
  uint64_t seed = 1;
  Timestamp duration = 600;
  int ticks_per_batch = 25;
  int64_t tick_sleep_ms = 0;
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg]() { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--mode=", 0) == 0) {
      mode = value();
    } else if (arg.rfind("--dir=", 0) == 0) {
      dir = value();
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg.rfind("--duration=", 0) == 0) {
      duration = std::atoll(value().c_str());
    } else if (arg.rfind("--ticks-per-batch=", 0) == 0) {
      ticks_per_batch = std::atoi(value().c_str());
    } else if (arg.rfind("--tick-sleep-ms=", 0) == 0) {
      tick_sleep_ms = std::atoll(value().c_str());
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(value().c_str());
    } else {
      return Usage(argv[0]);
    }
  }
  if (dir.empty() || (mode != "run" && mode != "recover") || threads < 1) {
    return Usage(argv[0]);
  }
  auto workload = MakeWorkload(seed, duration, ticks_per_batch);
  return mode == "run" ? RunMode(*workload, dir, tick_sleep_ms, threads)
                       : RecoverMode(*workload, dir, threads);
}

}  // namespace
}  // namespace caesar

int main(int argc, char** argv) { return caesar::Main(argc, argv); }
