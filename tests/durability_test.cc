// Durability suite: the WAL/checkpoint file formats, corrupted-artifact
// recovery with I41x diagnostics (goldens in tests/lint_corpus/), and the
// crash-recovery property — an engine killed at an injected crash point and
// rebuilt by Engine::Recover must produce byte-identical remaining output
// and equal degradation counters vs an uninterrupted twin, including
// crashes landing mid-checkpoint and mid-WAL-append. Checkpoints of an
// older format version are rejected like corrupt ones, and a commit
// snapshot of an older version fails recovery with DataLoss. A failed WAL
// write latches until Engine::Recover, and the CRC and the tick-record
// bytes are pinned against a bitwise reference and a golden. The WAL
// writes run on the engine's log thread in one job per Run, which appends
// while the batch is processed; the failed-append and latch cases run at
// 1 and 4 threads, and the logged ticks must not depend on the pool
// width.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "durability/checkpoint.h"
#include "durability/crc32.h"
#include "durability/durability.h"
#include "durability/manager.h"
#include "durability/serde.h"
#include "durability/wal.h"
#include "fault_injection.h"
#include "optimizer/optimizer.h"
#include "plan/translator.h"
#include "runtime/engine.h"
#include "runtime/observability.h"
#include "runtime/statistics.h"
#include "workloads/synthetic.h"

namespace caesar {
namespace {

using testing::CrashPointInjector;
using testing::DuplicateTailRecord;
using testing::FaultInjector;
using testing::FlipByte;
using testing::TruncateFileTail;

// Fresh scratch directory per call (tests run in parallel processes, so
// the path carries the pid; within a process a counter keeps them apart).
std::string ScratchDir(const std::string& name) {
  static int counter = 0;
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("caesar_durability_" + std::to_string(::getpid())) /
      (name + "_" + std::to_string(counter++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string RenderDiags(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& diag : diags) out += FormatDiagnostic(diag) + "\n";
  return out;
}

// Compares rendered recovery diagnostics against a lint-corpus golden
// (tests/lint_corpus/<name>.expected). These goldens pin the I41x line
// format the same way the .caesar fixtures pin the analyzer codes; they
// have no .caesar side because the diagnostics come from on-disk faults,
// not from model text. Regenerate by copying the "actual" side of a
// failure.
void ExpectMatchesGolden(const std::string& rendered,
                         const std::string& name) {
  std::filesystem::path golden = std::filesystem::path(CAESAR_TEST_SRCDIR) /
                                 "lint_corpus" / (name + ".expected");
  EXPECT_EQ(rendered, ReadFile(golden)) << "recovery-diagnostic golden "
                                        << name << ".expected drifted";
}

DurabilityOptions WalOptions(const std::string& dir,
                             FsyncPolicy fsync = FsyncPolicy::kNone) {
  DurabilityOptions options;
  options.mode = DurabilityMode::kWal;
  options.dir = dir;
  options.fsync = fsync;
  return options;
}

EventPtr At(Timestamp t, int64_t tag) {
  return MakeEvent(/*type_id=*/0, t, {Value(tag)});
}

// One tick + commit appended through the real writer, so unit tests
// exercise the same framing the engine produces.
void AppendBatch(WalWriter* writer, uint64_t batch_seq, Timestamp tick,
                 const EventBatch& events, const std::string& snapshot) {
  ASSERT_TRUE(writer
                  ->Append(EncodeTickRecord(batch_seq, tick, events.data(),
                                            events.size()),
                           "wal_append")
                  .ok());
  ASSERT_TRUE(
      writer->Append(EncodeCommitRecord(batch_seq, snapshot), "wal_commit")
          .ok());
}

// ---- WAL unit tests ------------------------------------------------------

TEST(WalTest, RoundTripsBatches) {
  std::string dir = ScratchDir("wal_roundtrip");
  DurabilityCounters counters;
  auto writer = WalWriter::Open(WalOptions(dir), /*segment_seq=*/1, &counters);
  ASSERT_TRUE(writer.ok()) << writer.status();
  AppendBatch(writer.value().get(), 1, 5, {At(5, 10), At(5, 11)}, "snap-1");
  AppendBatch(writer.value().get(), 2, 6, {At(6, 12)}, "snap-2");
  writer.value().reset();

  auto scan = ScanWal(dir, /*from_segment_seq=*/0, /*min_batch_seq=*/0);
  ASSERT_TRUE(scan.ok()) << scan.status();
  const WalScanResult& result = scan.value();
  ASSERT_EQ(result.batches.size(), 2u);
  EXPECT_EQ(result.batches[0].batch_seq, 1u);
  EXPECT_EQ(result.batches[0].snapshot, "snap-1");
  ASSERT_EQ(result.batches[0].ticks.size(), 1u);
  EXPECT_EQ(result.batches[0].ticks[0].first, 5);
  ASSERT_EQ(result.batches[0].ticks[0].second.size(), 2u);
  EXPECT_EQ(result.batches[0].ticks[0].second[1]->value(0).AsInt(), 11);
  EXPECT_EQ(result.batches[1].snapshot, "snap-2");
  EXPECT_EQ(result.max_batch_seq, 2u);
  EXPECT_EQ(result.next_segment_seq, 2u);
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(counters.wal_records, 4);
  EXPECT_GT(counters.wal_bytes, 0);
}

// ---- CRC-32 and record encoding --------------------------------------

// The textbook bit-at-a-time CRC-32 (reflected 0xEDB88320), the reference
// the table-driven Crc32 must agree with everywhere.
uint32_t BitwiseCrc32(const unsigned char* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string_view("")), 0u);
  EXPECT_EQ(
      Crc32(std::string_view("The quick brown fox jumps over the lazy dog")),
      0x414FA339u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..64 at offsets 0..7 cover every head/tail split around the
  // eight-byte blocks; the seed chains like the reference.
  std::vector<unsigned char> buffer(8 + 64);
  Rng rng(5);
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(rng.Uniform(0, 255));
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      const unsigned char* data = buffer.data() + offset;
      SCOPED_TRACE("offset=" + std::to_string(offset) +
                   " length=" + std::to_string(length));
      EXPECT_EQ(Crc32(data, length), BitwiseCrc32(data, length, 0));
      EXPECT_EQ(Crc32(data, length, 0x12345678u),
                BitwiseCrc32(data, length, 0x12345678u));
      const size_t half = length / 2;
      EXPECT_EQ(Crc32(data + half, length - half, Crc32(data, half)),
                Crc32(data, length));
    }
  }
}

TEST(WalTest, TickRecordEncodingIsPinned) {
  // The on-disk bytes of a tick record, pinned: a batch of one primitive
  // event (int, double, string and null values) and one complex event.
  EventBatch batch = {
      MakeEvent(3, 42,
                {Value(int64_t{-7}), Value(2.5), Value(std::string("ab")),
                 Value()}),
      MakeComplexEvent(1, 40, 42, {Value(int64_t{1})}),
  };
  const std::string record =
      EncodeTickRecord(/*batch_seq=*/7, /*tick=*/42, batch.data(),
                       batch.size());
  static constexpr char kGoldenHex[] =
      "01"                // record kind: tick
      "0700000000000000"  // batch_seq
      "2a00000000000000"  // tick
      "02000000"          // event count
      "0300000000000000" "2a00000000000000" "2a00000000000000" "04000000"
      "01" "f9ffffffffffffff"
      "02" "0000000000000440"
      "03" "02000000" "6162"
      "00"
      "0100000000000000" "2800000000000000" "2a00000000000000" "01000000"
      "01" "0100000000000000";
  std::string hex;
  for (unsigned char byte : record) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xF];
  }
  EXPECT_EQ(hex, kGoldenHex);
  EXPECT_EQ(record.size(), 112u);
  EXPECT_EQ(Crc32(record), 0x3b2ccfbau);
}

TEST(WalTest, TornTailTruncatedWithI410) {
  std::string dir = ScratchDir("wal_torn");
  DurabilityCounters counters;
  auto writer = WalWriter::Open(WalOptions(dir), 1, &counters);
  ASSERT_TRUE(writer.ok()) << writer.status();
  AppendBatch(writer.value().get(), 1, 5, {At(5, 10)}, "snap");
  // An appended-but-uncommitted tick for batch 2, torn 3 bytes short.
  EventBatch pending = {At(6, 11)};
  ASSERT_TRUE(writer.value()
                  ->Append(EncodeTickRecord(2, 6, pending.data(), 1),
                           "wal_append")
                  .ok());
  writer.value().reset();
  std::string segment =
      (std::filesystem::path(dir) / WalSegmentFileName(1)).string();
  uint64_t intact = std::filesystem::file_size(segment);
  ASSERT_TRUE(TruncateFileTail(segment, 3));

  auto scan = ScanWal(dir, 0, 0);
  ASSERT_TRUE(scan.ok()) << scan.status();
  // The sealed batch survives; the torn tail is physically truncated.
  ASSERT_EQ(scan.value().batches.size(), 1u);
  EXPECT_EQ(scan.value().torn_tail_truncations, 1);
  EXPECT_LT(std::filesystem::file_size(segment), intact - 3);
  ExpectMatchesGolden(RenderDiags(scan.value().diagnostics),
                      "i410_torn_wal_tail");

  // Truncation is idempotent: a second scan is clean.
  auto rescan = ScanWal(dir, 0, 0);
  ASSERT_TRUE(rescan.ok());
  EXPECT_TRUE(rescan.value().diagnostics.empty());
  EXPECT_EQ(rescan.value().batches.size(), 1u);
}

TEST(WalTest, FlippedCrcByteTruncatedWithI412) {
  std::string dir = ScratchDir("wal_crc");
  DurabilityCounters counters;
  auto writer = WalWriter::Open(WalOptions(dir), 1, &counters);
  ASSERT_TRUE(writer.ok()) << writer.status();
  AppendBatch(writer.value().get(), 1, 5, {At(5, 10)}, "snap");
  AppendBatch(writer.value().get(), 2, 6, {At(6, 11)}, "snap");
  writer.value().reset();
  std::string segment =
      (std::filesystem::path(dir) / WalSegmentFileName(1)).string();
  // Rot the last payload byte: the tail record fails its checksum, the
  // sealed batch before it survives.
  ASSERT_TRUE(FlipByte(segment, -1));

  auto scan = ScanWal(dir, 0, 0);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan.value().batches.size(), 1u);
  EXPECT_EQ(scan.value().batches[0].batch_seq, 1u);
  EXPECT_EQ(scan.value().torn_tail_truncations, 0);
  ExpectMatchesGolden(RenderDiags(scan.value().diagnostics),
                      "i412_wal_record_crc_mismatch");
}

TEST(WalTest, DuplicatedTailRecordSkippedWithI413) {
  std::string dir = ScratchDir("wal_dup");
  DurabilityCounters counters;
  auto writer = WalWriter::Open(WalOptions(dir), 1, &counters);
  ASSERT_TRUE(writer.ok()) << writer.status();
  AppendBatch(writer.value().get(), 1, 5, {At(5, 10)}, "snap");
  writer.value().reset();
  std::string segment =
      (std::filesystem::path(dir) / WalSegmentFileName(1)).string();
  // A storage layer replaying its write queue: the commit record appears
  // twice. The duplicate is internally valid, so recovery must reject it
  // by sequence, not checksum.
  ASSERT_TRUE(DuplicateTailRecord(segment));

  auto scan = ScanWal(dir, 0, 0);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan.value().batches.size(), 1u);
  EXPECT_EQ(scan.value().max_batch_seq, 1u);
  ExpectMatchesGolden(RenderDiags(scan.value().diagnostics),
                      "i413_stale_wal_record");
}

// ---- Checkpoint unit tests -----------------------------------------------

TEST(CheckpointTest, RoundTripsAndPicksNewest) {
  std::string dir = ScratchDir("ckpt_roundtrip");
  int64_t fsyncs = 0;
  CheckpointInfo first{/*batch_seq=*/3, /*wal_seq=*/2, /*last_tick=*/40,
                       "state-3"};
  CheckpointInfo second{/*batch_seq=*/7, /*wal_seq=*/4, /*last_tick=*/90,
                        "state-7"};
  ASSERT_TRUE(WriteCheckpointFile(dir, first, CrashHook(), &fsyncs).ok());
  ASSERT_TRUE(WriteCheckpointFile(dir, second, CrashHook(), &fsyncs).ok());
  EXPECT_GE(fsyncs, 4);

  auto scan = FindLatestCheckpoint(dir);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_TRUE(scan.value().found);
  EXPECT_EQ(scan.value().latest.batch_seq, 7u);
  EXPECT_EQ(scan.value().latest.wal_seq, 4u);
  EXPECT_EQ(scan.value().latest.last_tick, 90);
  EXPECT_EQ(scan.value().latest.payload, "state-7");
  EXPECT_EQ(scan.value().skipped_corrupt, 0);
}

TEST(CheckpointTest, CorruptNewestSkippedWithI411) {
  std::string dir = ScratchDir("ckpt_corrupt");
  int64_t fsyncs = 0;
  CheckpointInfo older{3, 2, 40, "state-3"};
  CheckpointInfo newer{7, 4, 90, "state-7"};
  ASSERT_TRUE(WriteCheckpointFile(dir, older, CrashHook(), &fsyncs).ok());
  ASSERT_TRUE(WriteCheckpointFile(dir, newer, CrashHook(), &fsyncs).ok());
  // Rot one payload byte of the newest: it fails its checksum and the
  // scan falls back to the older checkpoint.
  ASSERT_TRUE(FlipByte(
      (std::filesystem::path(dir) / CheckpointFileName(7)).string(), -1));

  auto scan = FindLatestCheckpoint(dir);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_TRUE(scan.value().found);
  EXPECT_EQ(scan.value().latest.batch_seq, 3u);
  EXPECT_EQ(scan.value().latest.payload, "state-3");
  EXPECT_EQ(scan.value().skipped_corrupt, 1);
  ExpectMatchesGolden(RenderDiags(scan.value().diagnostics),
                      "i411_checkpoint_crc_mismatch");
}

TEST(CheckpointTest, UnpublishedTmpIgnoredAndRemoved) {
  std::string dir = ScratchDir("ckpt_tmp");
  int64_t fsyncs = 0;
  ASSERT_TRUE(WriteCheckpointFile(dir, CheckpointInfo{3, 2, 40, "state-3"},
                                  CrashHook(), &fsyncs)
                  .ok());
  // Death between fsync(tmp) and rename: a complete tmp for seq 7 remains.
  CrashHook publish_crash = [](std::string_view point) {
    return point == "checkpoint_publish";
  };
  Status crashed = WriteCheckpointFile(dir, CheckpointInfo{7, 4, 90, "x"},
                                       publish_crash, &fsyncs);
  EXPECT_EQ(crashed.code(), StatusCode::kDataLoss);

  auto scan = FindLatestCheckpoint(dir);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_TRUE(scan.value().found);
  EXPECT_EQ(scan.value().latest.batch_seq, 3u);
  EXPECT_TRUE(scan.value().diagnostics.empty());  // tmp debris is not rot
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) /
                                       (CheckpointFileName(7) + ".tmp")));
}

// Retention truncates the log with the same name codec the scan lists
// segments with: a file that merely starts like a segment name is not a
// segment, so no checkpoint horizon ever deletes it.
TEST(CheckpointTest, RetentionKeepsFilesThatAreNotSegments) {
  std::string dir = ScratchDir("ckpt_retention");
  const std::filesystem::path base(dir);
  for (const std::string& name : {WalSegmentFileName(1), std::string(
                                      "wal-1x.log")}) {
    std::ofstream(base / name) << "bytes";
  }
  int64_t fsyncs = 0;
  for (const CheckpointInfo& info :
       {CheckpointInfo{3, 2, 40, "state-3"}, CheckpointInfo{7, 4, 90, "state-7"},
        CheckpointInfo{9, 5, 120, "state-9"}}) {
    ASSERT_TRUE(WriteCheckpointFile(dir, info, CrashHook(), &fsyncs).ok());
    ASSERT_TRUE(RetireOldArtifacts(dir, 2).ok());
  }
  EXPECT_FALSE(std::filesystem::exists(base / WalSegmentFileName(1)));
  EXPECT_FALSE(std::filesystem::exists(base / CheckpointFileName(3)));
  EXPECT_TRUE(std::filesystem::exists(base / CheckpointFileName(7)));
  EXPECT_TRUE(std::filesystem::exists(base / "wal-1x.log"));
}

// ---- Engine-level crash-recovery harness ---------------------------------

ExecutablePlan Optimize(const CaesarModel& model) {
  auto plan = OptimizeModel(model, OptimizerOptions());
  CAESAR_CHECK_OK(plan.status());
  return std::move(plan).value();
}

struct Workload {
  TypeRegistry registry;
  ExecutablePlan plan;
  EventBatch stream;
};

// Small synthetic context-window workload: 3 partitions, 2 overlapping
// windows, SEQ queries — enough traffic to populate pattern partials,
// context history, and per-operator counters in every checkpoint.
std::unique_ptr<Workload> MakeWorkload() {
  auto w = std::make_unique<Workload>();
  SyntheticConfig config;
  config.duration = 160;
  config.num_partitions = 3;
  config.events_per_tick = 2;
  config.windows = LayOutWindows(/*count=*/2, /*length=*/40, /*overlap=*/10,
                                 /*first_start=*/20);
  config.assignment = SyntheticConfig::QueryAssignment::kPerWindowCopies;
  config.queries_per_window = 2;
  w->stream = GenerateSyntheticStream(config, &w->registry);
  auto model = MakeSyntheticModel(config, &w->registry);
  EXPECT_TRUE(model.ok()) << model.status();
  w->plan = Optimize(model.value());
  return w;
}

// Splits a stream into Run-sized batches at tick boundaries (events of one
// time stamp never straddle a Run call — one Run is one WAL batch).
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

std::string Render(const EventBatch& outputs, const TypeRegistry& registry) {
  std::ostringstream os;
  for (const EventPtr& event : outputs) {
    os << event->time() << " " << event->ToString(registry) << "\n";
  }
  return os.str();
}

struct BatchRun {
  std::vector<std::string> outputs;  // rendered, one entry per Run
  IngestMetrics ingest;
  int64_t quarantine_total = 0;
  int partitions = 0;
};

BatchRun RunBatches(Engine* engine, const std::vector<EventBatch>& batches,
                    size_t from, const TypeRegistry& registry) {
  BatchRun result;
  for (size_t b = from; b < batches.size(); ++b) {
    EventBatch outputs;
    auto stats = engine->Run(batches[b], &outputs);
    EXPECT_TRUE(stats.ok()) << "batch " << b << ": " << stats.status();
    result.outputs.push_back(Render(outputs, registry));
  }
  result.ingest = engine->ingest_metrics();
  result.quarantine_total = engine->quarantine().total();
  result.partitions = engine->num_partitions();
  return result;
}

void ExpectSameDegradation(const BatchRun& expected, const BatchRun& actual) {
  EXPECT_EQ(expected.ingest.admitted, actual.ingest.admitted);
  EXPECT_EQ(expected.ingest.reordered, actual.ingest.reordered);
  EXPECT_EQ(expected.ingest.dropped_late, actual.ingest.dropped_late);
  EXPECT_EQ(expected.ingest.quarantined, actual.ingest.quarantined);
  EXPECT_EQ(expected.ingest.max_observed_lateness,
            actual.ingest.max_observed_lateness);
  EXPECT_EQ(expected.quarantine_total, actual.quarantine_total);
  EXPECT_EQ(expected.partitions, actual.partitions);
}

// One crash-recovery case: run uninterrupted (durability off) as the
// reference, count the occurrences of `point`, crash at a seed-chosen
// occurrence, recover, re-submit everything after durable_batch_seq(), and
// demand byte-identical remaining output plus equal final counters.
void CrashRecoveryCase(const Workload& w, uint64_t seed,
                       const std::string& point, DurabilityMode mode) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " point=" + point +
               " mode=" + DurabilityModeName(mode));
  Rng rng(seed * 7919 + 17);

  // Seeded stream perturbation: some seeds exercise reorder admission
  // (disorder within reorder_slack) and the quarantine across the crash,
  // the rest run the strict path.
  EngineOptions base;
  EventBatch stream = w.stream;
  if (seed % 3 == 0) {
    base.ingest_policy = IngestPolicy::kReorder;
    base.reorder_slack = 4;
    FaultInjector faults(seed);
    stream = faults.DelayTicks(stream, /*max_delay=*/3);
    if (seed % 2 == 0) stream = faults.CorruptTimes(stream, 0.02);
  }
  std::vector<EventBatch> batches = SplitByTicks(stream, /*ticks_per_batch=*/20);
  ASSERT_GT(batches.size(), 2u);

  Engine reference(w.plan, base);
  BatchRun uninterrupted = RunBatches(&reference, batches, 0, w.registry);

  auto durable = [&](const std::string& dir) {
    EngineOptions options = base;
    options.durability.mode = mode;
    options.durability.dir = dir;
    options.durability.fsync = FsyncPolicy::kNone;  // speed; policy is
                                                    // covered separately
    options.durability.checkpoint_interval_ticks = 16;
    return options;
  };

  // Pass 1: count how often the crash point is reachable.
  CrashPointInjector probe(point, /*nth=*/-1);
  {
    EngineOptions options = durable(ScratchDir("probe"));
    options.durability.crash_hook = probe.Hook();
    Engine engine(w.plan, options);
    BatchRun logged = RunBatches(&engine, batches, 0, w.registry);
    // Logging must not perturb the output (the durability=off contract in
    // reverse): same bytes with the WAL on.
    EXPECT_EQ(logged.outputs, uninterrupted.outputs);
  }
  ASSERT_GT(probe.occurrences(), 0) << "crash point never reached";

  // Pass 2: crash at a seed-chosen occurrence.
  std::string dir = ScratchDir("crash");
  CrashPointInjector injector(point,
                              rng.Uniform(0, probe.occurrences() - 1));
  size_t failed_batch = batches.size();
  {
    EngineOptions options = durable(dir);
    options.durability.crash_hook = injector.Hook();
    Engine victim(w.plan, options);
    for (size_t b = 0; b < batches.size(); ++b) {
      auto stats = victim.Run(batches[b], nullptr);
      if (!stats.ok()) {
        EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
        failed_batch = b;
        break;
      }
    }
  }
  ASSERT_TRUE(injector.fired());
  ASSERT_LT(failed_batch, batches.size());

  // Pass 3: recover and re-submit everything not yet durable.
  auto recovered = Engine::Recover(w.plan, durable(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  Engine& engine = *recovered.value();
  EXPECT_TRUE(engine.recovered());
  uint64_t durable_seq = engine.durable_batch_seq();
  // A checkpoint crash happens after the batch committed; every other
  // point kills the batch in flight.
  if (point == "checkpoint_write" || point == "checkpoint_publish") {
    EXPECT_EQ(durable_seq, failed_batch + 1);
  } else {
    EXPECT_EQ(durable_seq, failed_batch);
  }
  ASSERT_LE(durable_seq, batches.size());

  BatchRun resumed = RunBatches(&engine, batches, durable_seq, w.registry);
  ASSERT_EQ(resumed.outputs.size(), batches.size() - durable_seq);
  for (size_t b = durable_seq; b < batches.size(); ++b) {
    EXPECT_EQ(resumed.outputs[b - durable_seq], uninterrupted.outputs[b])
        << "batch " << b << " diverged after recovery";
  }
  ExpectSameDegradation(uninterrupted, resumed);
}

TEST(CrashRecoveryTest, MidAppendKill) {
  auto w = MakeWorkload();
  CrashRecoveryCase(*w, 11, "wal_append", DurabilityMode::kWal);
  CrashRecoveryCase(*w, 12, "wal_append", DurabilityMode::kWalCheckpoint);
}

TEST(CrashRecoveryTest, MidCommitKill) {
  auto w = MakeWorkload();
  CrashRecoveryCase(*w, 21, "wal_commit", DurabilityMode::kWalCheckpoint);
}

TEST(CrashRecoveryTest, MidCheckpointKill) {
  auto w = MakeWorkload();
  CrashRecoveryCase(*w, 31, "checkpoint_write",
                    DurabilityMode::kWalCheckpoint);
  CrashRecoveryCase(*w, 32, "checkpoint_publish",
                    DurabilityMode::kWalCheckpoint);
}

// The headline property: >= 50 seeds, crash points rotating over the
// whole protocol (append, commit, checkpoint write,
// checkpoint publish), byte-identical remaining output + equal counters.
TEST(CrashRecoveryTest, FiftySeedProperty) {
  const std::string points[] = {"wal_append", "wal_commit",
                                "checkpoint_write", "checkpoint_publish"};
  auto w = MakeWorkload();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const std::string& point = points[seed % 4];
    // Checkpoint points need the checkpoint cadence; the WAL points split
    // between wal-only and wal+checkpoint recovery.
    DurabilityMode mode =
        (seed % 4 >= 2 || seed % 2 == 0) ? DurabilityMode::kWalCheckpoint
                                         : DurabilityMode::kWal;
    CrashRecoveryCase(*w, seed, point, mode);
  }
}

// ---- Engine integration details ------------------------------------------

TEST(EngineDurabilityTest, OffModeTouchesNothingAndMatchesOnMode) {
  auto w = MakeWorkload();
  std::string dir = ScratchDir("off_mode");
  EngineOptions off;  // durability defaults to kOff
  Engine plain(w->plan, off);
  EventBatch plain_out;
  auto plain_stats = plain.Run(w->stream, &plain_out);
  ASSERT_TRUE(plain_stats.ok());
  EXPECT_EQ(plain_stats.value().wal_records, 0);
  EXPECT_EQ(plain.durable_batch_seq(), 0u);

  EngineOptions on;
  on.durability.mode = DurabilityMode::kWalCheckpoint;
  on.durability.dir = dir;
  on.durability.checkpoint_interval_ticks = 32;
  Engine durable(w->plan, on);
  EventBatch durable_out;
  auto durable_stats = durable.Run(w->stream, &durable_out);
  ASSERT_TRUE(durable_stats.ok());
  EXPECT_EQ(Render(plain_out, w->registry), Render(durable_out, w->registry));
  EXPECT_GT(durable_stats.value().wal_records, 0);
  EXPECT_GT(durable_stats.value().wal_bytes, 0);
  EXPECT_GT(durable_stats.value().checkpoints_written, 0);
  EXPECT_EQ(durable.durable_batch_seq(), 1u);

  // Off-mode exports carry no durability block at all; on-mode exports do.
  ExportOptions deterministic;
  deterministic.deterministic = true;
  std::string off_json =
      StatisticsToJson(plain.CollectStatistics(), deterministic);
  std::string on_json =
      StatisticsToJson(durable.CollectStatistics(), deterministic);
  EXPECT_EQ(off_json.find("durability"), std::string::npos);
  EXPECT_NE(on_json.find("\"durability\":{\"mode\":\"wal+checkpoint\""),
            std::string::npos);
  std::string off_prom =
      StatisticsToPrometheus(plain.CollectStatistics(), deterministic);
  std::string on_prom =
      StatisticsToPrometheus(durable.CollectStatistics(), deterministic);
  EXPECT_EQ(off_prom.find("caesar_wal_records_total"), std::string::npos);
  EXPECT_NE(on_prom.find("caesar_wal_records_total"), std::string::npos);
}

// Per-operator counters are part of the checkpoint: after a crash the
// recovered report matches the uninterrupted one row for row.
void CheckpointRestoresOperatorStatisticsCase(const EngineOptions& base,
                                              const std::string& dir_name) {
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 20);

  Engine reference(w->plan, base);
  RunBatches(&reference, batches, 0, w->registry);
  std::string expected;
  for (const QueryOperatorStats& row :
       reference.CollectStatistics().operators) {
    expected += row.query + "#" + std::to_string(row.op_index) + ":" +
                std::to_string(row.stats.invocations) + "/" +
                std::to_string(row.stats.input_events) + "/" +
                std::to_string(row.stats.output_events) + "/" +
                std::to_string(row.stats.work_units) + "\n";
  }

  std::string dir = ScratchDir(dir_name);
  CrashPointInjector injector("wal_append", 40);
  EngineOptions crash = base;
  crash.durability.mode = DurabilityMode::kWalCheckpoint;
  crash.durability.dir = dir;
  crash.durability.checkpoint_interval_ticks = 16;
  crash.durability.crash_hook = injector.Hook();
  {
    Engine victim(w->plan, crash);
    for (const EventBatch& batch : batches) {
      if (!victim.Run(batch, nullptr).ok()) break;
    }
  }
  ASSERT_TRUE(injector.fired());

  EngineOptions recover = base;
  recover.durability.mode = DurabilityMode::kWalCheckpoint;
  recover.durability.dir = dir;
  recover.durability.checkpoint_interval_ticks = 16;
  auto recovered = Engine::Recover(w->plan, recover);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  RunBatches(recovered.value().get(), batches,
             recovered.value()->durable_batch_seq(), w->registry);
  std::string actual;
  for (const QueryOperatorStats& row :
       recovered.value()->CollectStatistics().operators) {
    actual += row.query + "#" + std::to_string(row.op_index) + ":" +
              std::to_string(row.stats.invocations) + "/" +
              std::to_string(row.stats.input_events) + "/" +
              std::to_string(row.stats.output_events) + "/" +
              std::to_string(row.stats.work_units) + "\n";
  }
  EXPECT_EQ(actual, expected);
}

TEST(EngineDurabilityTest, CheckpointRestoresOperatorStatistics) {
  EngineOptions base;
  base.gather_statistics = true;
  CheckpointRestoresOperatorStatisticsCase(base, "op_stats");
}

TEST(EngineDurabilityTest,
     CheckpointRestoresOperatorStatisticsAtOperatorGranularity) {
  // kOperator records the same counters beside its histograms; the
  // counters survive recovery, the histograms restart with the telemetry.
  EngineOptions base;
  base.metrics = MetricsGranularity::kOperator;
  CheckpointRestoresOperatorStatisticsCase(base, "op_stats_operator");
}

TEST(EngineDurabilityTest, RecoveryReportsDiagnosticsForRottenArtifacts) {
  // End-to-end graceful degradation: a crash mid-append leaves a torn WAL
  // tail, and the newest checkpoint rots on top of it. Recovery truncates
  // the tail (I410), falls back to the older checkpoint (I411), replays
  // the sealed batches in between, and keeps serving.
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 20);
  ASSERT_GE(batches.size(), 4u);
  std::string dir = ScratchDir("rotten");
  EngineOptions options;
  options.durability.mode = DurabilityMode::kWalCheckpoint;
  options.durability.dir = dir;
  options.durability.checkpoint_interval_ticks = 16;

  // Count appends, then crash at the very last one: every earlier batch is
  // sealed and checkpointed (20-tick batches beat the 16-tick cadence), so
  // retention leaves two checkpoints plus the sealed batch between them.
  CrashPointInjector probe("wal_append", -1);
  {
    EngineOptions probed = options;
    probed.durability.dir = ScratchDir("rotten_probe");
    probed.durability.crash_hook = probe.Hook();
    Engine engine(w->plan, probed);
    for (const EventBatch& batch : batches) {
      ASSERT_TRUE(engine.Run(batch, nullptr).ok());
    }
  }
  ASSERT_GT(probe.occurrences(), 0);
  CrashPointInjector injector("wal_append", probe.occurrences() - 1);
  {
    EngineOptions crash = options;
    crash.durability.crash_hook = injector.Hook();
    Engine victim(w->plan, crash);
    for (const EventBatch& batch : batches) {
      if (!victim.Run(batch, nullptr).ok()) break;
    }
  }
  ASSERT_TRUE(injector.fired());

  // Rot the newest checkpoint so the scan must fall back to the older one
  // and replay the batch between them.
  uint64_t newest_ckpt = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".ckpt") continue;
    std::string stem = entry.path().stem().string();  // ckpt-<10 digits>
    newest_ckpt = std::max(
        newest_ckpt, static_cast<uint64_t>(std::stoull(stem.substr(5))));
  }
  ASSERT_GT(newest_ckpt, 1u);
  ASSERT_TRUE(FlipByte(
      (std::filesystem::path(dir) / CheckpointFileName(newest_ckpt)).string(),
      -1));

  auto recovered = Engine::Recover(w->plan, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  Engine& engine = *recovered.value();
  EXPECT_TRUE(engine.recovered());
  std::string rendered;
  for (const std::string& diag : engine.recovery_diagnostics()) {
    rendered += diag + "\n";
  }
  EXPECT_NE(rendered.find("[I411]"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("[I410]"), std::string::npos) << rendered;
  EXPECT_GT(engine.durability_counters().torn_tail_truncations, 0);
  EXPECT_GT(engine.durability_counters().recovery_replayed_events, 0);
  EXPECT_EQ(engine.durable_batch_seq(), newest_ckpt);
  // The diagnostics also surface through the statistics report.
  StatisticsReport report = engine.CollectStatistics();
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.recovery_diagnostics, engine.recovery_diagnostics());
  EXPECT_NE(report.ToString().find("[I410]"), std::string::npos);
  // And the engine still serves: the not-yet-durable input re-runs clean.
  for (size_t b = newest_ckpt; b < batches.size(); ++b) {
    EXPECT_TRUE(engine.Run(batches[b], nullptr).ok());
  }
}

// Overwrites the u32 format version of a checkpoint header (after the u64
// magic; see durability/checkpoint.h), little-endian like StateWriter.
bool SetCheckpointVersion(const std::string& path, uint32_t version) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!file) return false;
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(version >> (8 * i));
  file.seekp(8);
  file.write(bytes, sizeof(bytes));
  return static_cast<bool>(file);
}

// A checkpoint of an older format version may hold state in a layout the
// current engine would misread, and its payload CRC still validates. Its
// header must be rejected like rot: the scan falls back to the older
// checkpoint, replays the WAL suffix, and the engine resumes byte-identical
// to an uninterrupted run. Version 1 differs in the pattern state, version
// 2 in where the operator statistics counters are stored, version 3 in the
// virtual clock its commit snapshot held and the payload's own version
// byte, version 4 in the running sums its aggregate state held.
void OldCheckpointVersionFallsBackCase(uint32_t version) {
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 20);
  ASSERT_GE(batches.size(), 5u);
  const size_t crashed_after = batches.size() - 2;

  Engine reference(w->plan, EngineOptions{});
  BatchRun uninterrupted = RunBatches(&reference, batches, 0, w->registry);

  std::string dir = ScratchDir("version_" + std::to_string(version));
  EngineOptions options;
  options.durability.mode = DurabilityMode::kWalCheckpoint;
  options.durability.dir = dir;
  options.durability.checkpoint_interval_ticks = 16;
  {
    Engine engine(w->plan, options);
    for (size_t b = 0; b < crashed_after; ++b) {
      ASSERT_TRUE(engine.Run(batches[b], nullptr).ok());
    }
  }
  auto before = FindLatestCheckpoint(dir);
  ASSERT_TRUE(before.ok() && before.value().found);
  const uint64_t newest = before.value().latest.batch_seq;
  ASSERT_TRUE(SetCheckpointVersion(
      (std::filesystem::path(dir) / CheckpointFileName(newest)).string(),
      version));

  auto scan = FindLatestCheckpoint(dir);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_TRUE(scan.value().found);
  EXPECT_LT(scan.value().latest.batch_seq, newest);
  EXPECT_EQ(scan.value().skipped_corrupt, 1);
  ASSERT_EQ(scan.value().diagnostics.size(), 1u);
  EXPECT_NE(scan.value().diagnostics[0].message.find(
                "unreadable checkpoint header"),
            std::string::npos)
      << scan.value().diagnostics[0].message;

  auto recovered = Engine::Recover(w->plan, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  Engine& engine = *recovered.value();
  EXPECT_EQ(engine.durable_batch_seq(), crashed_after);
  EXPECT_GT(engine.durability_counters().recovery_replayed_events, 0);
  BatchRun resumed = RunBatches(&engine, batches, crashed_after, w->registry);
  for (size_t b = crashed_after; b < batches.size(); ++b) {
    EXPECT_EQ(resumed.outputs[b - crashed_after], uninterrupted.outputs[b])
        << "batch " << b << " diverged after recovery";
  }
  ExpectSameDegradation(uninterrupted, resumed);
}

TEST(EngineDurabilityTest, VersionOneCheckpointFallsBackLikeCorruption) {
  OldCheckpointVersionFallsBackCase(1);
}

TEST(EngineDurabilityTest, VersionTwoCheckpointFallsBackLikeCorruption) {
  OldCheckpointVersionFallsBackCase(2);
}

TEST(EngineDurabilityTest, VersionThreeCheckpointFallsBackLikeCorruption) {
  OldCheckpointVersionFallsBackCase(3);
}

TEST(EngineDurabilityTest, VersionFourCheckpointFallsBackLikeCorruption) {
  OldCheckpointVersionFallsBackCase(4);
}

// A WAL written by an older build carries a commit snapshot of an older
// version. Recovery refuses it with a DataLoss naming the version — the
// older build must recover its own artifacts — instead of misreading or
// aborting. `layout` encodes that version's snapshot of a strict engine
// after the workload's first tick, from the tick's event count and time.
void OldCommitSnapshotIsDataLossCase(
    int version, const std::function<std::string(int64_t, Timestamp)>& layout) {
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 1);
  ASSERT_FALSE(batches.empty());
  const EventBatch& tick = batches[0];
  const Timestamp time = tick.front()->time();

  std::string dir = ScratchDir("snapshot_v" + std::to_string(version));
  {
    DurabilityCounters counters;
    auto writer = WalWriter::Open(WalOptions(dir), /*segment_seq=*/1,
                                  &counters);
    ASSERT_TRUE(writer.ok()) << writer.status();
    AppendBatch(writer.value().get(), /*batch_seq=*/1, time, tick,
                layout(static_cast<int64_t>(tick.size()), time));
  }

  EngineOptions options;
  options.durability = WalOptions(dir);
  auto recovered = Engine::Recover(w->plan, options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(recovered.status().message().find(
                "unsupported commit snapshot version " +
                std::to_string(version)),
            std::string::npos)
      << recovered.status();
}

// Version 1 also held the ingest layer's own high-water marks.
TEST(EngineDurabilityTest, VersionOneCommitSnapshotIsDataLoss) {
  OldCommitSnapshotIsDataLossCase(1, [](int64_t admitted, Timestamp time) {
    StateWriter v1;
    v1.U8(1);
    v1.I64(admitted);
    for (int i = 0; i < 4; ++i) v1.I64(0);  // reordered .. lateness
    v1.Bool(false);                         // drop high-water mark
    v1.I64(0);
    v1.Bool(false);                         // no reorder buffer
    v1.I64(0);                              // quarantine total
    v1.U32(5);                              // reason count
    for (int i = 0; i < 5; ++i) v1.I64(0);  // per-reason counts
    v1.U32(0);                              // retained entries
    v1.U32(0);                              // partitions
    v1.F64(0.0);  // virtual clock
    v1.I64(0);    // last GC
    v1.Bool(true);
    v1.I64(time);  // last processed tick
    return v1.Take();
  });
}

// Version 2 numbered the quarantine reasons from out_of_order, which is
// gone: its reason bytes would land on the wrong reasons.
TEST(EngineDurabilityTest, VersionTwoCommitSnapshotIsDataLoss) {
  OldCommitSnapshotIsDataLossCase(2, [](int64_t admitted, Timestamp time) {
    StateWriter v2;
    v2.U8(2);
    v2.I64(admitted);
    for (int i = 0; i < 4; ++i) v2.I64(0);  // reordered .. lateness
    v2.I64(0);                              // quarantine total
    v2.U32(5);                              // reason count
    for (int i = 0; i < 5; ++i) v2.I64(0);  // per-reason counts
    v2.U32(0);                              // retained entries
    v2.U32(0);                              // partitions
    v2.F64(0.0);  // virtual clock
    v2.I64(0);    // last GC
    v2.Bool(true);
    v2.I64(time);  // last processed tick
    return v2.Take();
  });
}

// Version 3 still held the virtual clock, wall-clock telemetry that made
// the durable bytes differ from run to run.
TEST(EngineDurabilityTest, VersionThreeCommitSnapshotIsDataLoss) {
  OldCommitSnapshotIsDataLossCase(3, [](int64_t admitted, Timestamp time) {
    StateWriter v3;
    v3.U8(3);
    v3.I64(admitted);
    for (int i = 0; i < 4; ++i) v3.I64(0);  // reordered .. lateness
    v3.I64(0);                              // quarantine total
    v3.U32(4);                              // reason count
    for (int i = 0; i < 4; ++i) v3.I64(0);  // per-reason counts
    v3.U32(0);                              // retained entries
    v3.U32(0);                              // partitions
    v3.F64(0.0);  // virtual clock
    v3.I64(0);    // last GC
    v3.Bool(true);
    v3.I64(time);  // last processed tick
    return v3.Take();
  });
}

TEST(EngineDurabilityTest, FreshEngineInUsedDirectoryKeepsSequencing) {
  // A fresh (non-recovered) engine pointed at a used directory must append
  // after the existing artifacts — batch seqs stay monotone, so a later
  // recovery never misreads live records as stale (I413).
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 40);
  ASSERT_GE(batches.size(), 4u);
  std::string dir = ScratchDir("reused");
  EngineOptions options;
  options.durability.mode = DurabilityMode::kWal;
  options.durability.dir = dir;
  {
    Engine first(w->plan, options);
    ASSERT_TRUE(first.Run(batches[0], nullptr).ok());
    ASSERT_TRUE(first.Run(batches[1], nullptr).ok());
    EXPECT_EQ(first.durable_batch_seq(), 2u);
  }
  {
    Engine second(w->plan, options);
    ASSERT_TRUE(second.Run(batches[2], nullptr).ok());
    EXPECT_EQ(second.durable_batch_seq(), 3u);
  }
  auto scan = ScanForRecovery(options.durability);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan.value().batches.size(), 3u);
  EXPECT_EQ(scan.value().next_batch_seq, 4u);
  for (const Diagnostic& diag : scan.value().diagnostics) {
    EXPECT_NE(diag.code, DiagCode::kI413StaleWalRecord)
        << FormatDiagnostic(diag);
  }
}

void FailedAppendCase(int num_threads) {
  // A crash at any append of a 10-tick batch — here the batch in which a
  // new partition first appears — fails the Run with DataLoss and leaves
  // the batch unsealed in the log. The log thread appends while the batch
  // is processed, so the failed batch may stay in memory; the failure
  // latches, a retried Run is refused until Engine::Recover, and recovery
  // resumes byte-identically from the last commit.
  SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
  auto w = MakeWorkload();
  // Partition seg=2 first appears at tick 35, inside the fourth batch.
  EventBatch stream;
  for (const EventPtr& event : w->stream) {
    if (event->time() < 35 && event->value(0).AsInt() == 2) continue;
    stream.push_back(event);
  }
  std::vector<EventBatch> batches = SplitByTicks(stream, 10);
  ASSERT_GT(batches.size(), 4u);
  Engine reference(w->plan, EngineOptions());
  BatchRun uninterrupted = RunBatches(&reference, batches, 0, w->registry);

  for (int k : {0, 5, 9}) {
    SCOPED_TRACE("append " + std::to_string(k) + " of the batch");
    CrashPointInjector injector("wal_append", 3 * 10 + k);
    EngineOptions options;
    options.num_threads = num_threads;
    options.durability.mode = DurabilityMode::kWal;
    options.durability.dir = ScratchDir("write_ahead");
    options.durability.fsync = FsyncPolicy::kNone;
    options.durability.crash_hook = injector.Hook();
    {
      Engine victim(w->plan, options);
      for (size_t b = 0; b < 3; ++b) {
        ASSERT_TRUE(victim.Run(batches[b], nullptr).ok()) << b;
      }
      EXPECT_EQ(victim.num_partitions(), 2);
      auto failed = victim.Run(batches[3], nullptr);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
      EXPECT_TRUE(injector.fired());
      auto retried = victim.Run(batches[3], nullptr);
      ASSERT_FALSE(retried.ok());
      EXPECT_EQ(retried.status().code(), StatusCode::kFailedPrecondition);
      EXPECT_NE(retried.status().message().find("Engine::Recover"),
                std::string::npos)
          << retried.status();
      EXPECT_EQ(victim.durable_batch_seq(), 3u);
    }
    options.durability.crash_hook = nullptr;
    auto recovered = Engine::Recover(w->plan, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    ASSERT_EQ(recovered.value()->durable_batch_seq(), 3u);
    BatchRun resumed =
        RunBatches(recovered.value().get(), batches, 3, w->registry);
    ASSERT_EQ(resumed.outputs.size(), batches.size() - 3);
    for (size_t b = 3; b < batches.size(); ++b) {
      EXPECT_EQ(resumed.outputs[b - 3], uninterrupted.outputs[b])
          << "batch " << b << " diverged after recovery";
    }
    ExpectSameDegradation(uninterrupted, resumed);
  }
}

TEST(EngineDurabilityTest, FailedAppendRecoversFromTheLastCommit) {
  FailedAppendCase(1);
}

TEST(EngineDurabilityTest, FailedAppendRecoversFromTheLastCommitAtFourThreads) {
  FailedAppendCase(4);
}

TEST(EngineDurabilityTest, TickRecordsAreAppendedWhileTheBatchIsProcessed) {
  // One WAL hand-off per logged Run: the log thread appends the tick
  // records while the scheduler distributes, dispatches and merges the
  // batch. Each append blocks (for at most a few seconds) until the tick
  // observer, which only the merge calls, has fired for the same batch;
  // were the dispatch to wait for the append, the observer could not fire
  // first.
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 10);
  ASSERT_GT(batches.size(), 3u);
  batches.resize(3);
  for (int num_threads : {1, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    std::mutex mu;
    std::condition_variable observed_cv;
    size_t batch = 0;            // the Run in progress
    size_t observed_batch = 0;   // 1 + the last batch the observer saw
    int64_t appends = 0;
    int64_t appends_after_observer = 0;
    bool timed_out = false;
    EngineOptions options;
    options.num_threads = num_threads;
    options.durability.mode = DurabilityMode::kWal;
    options.durability.dir = ScratchDir("append_overlap");
    options.durability.fsync = FsyncPolicy::kNone;
    options.durability.crash_hook = [&](std::string_view point) {
      if (point != "wal_append") return false;
      std::unique_lock<std::mutex> lock(mu);
      ++appends;
      if (!timed_out) {
        timed_out = !observed_cv.wait_for(
            lock, std::chrono::seconds(5),
            [&] { return observed_batch == batch + 1; });
      }
      if (observed_batch == batch + 1) ++appends_after_observer;
      return false;
    };
    Engine engine(w->plan, options);
    engine.SetTickObserver([&](Timestamp, const EventBatch&) {
      {
        std::lock_guard<std::mutex> lock(mu);
        observed_batch = batch + 1;
      }
      observed_cv.notify_all();
    });
    for (size_t b = 0; b < batches.size(); ++b) {
      {
        std::lock_guard<std::mutex> lock(mu);
        batch = b;
      }
      ASSERT_TRUE(engine.Run(batches[b], nullptr).ok()) << b;
    }
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(timed_out) << "an append waited in vain for the observer";
    EXPECT_GT(appends, 0);
    EXPECT_EQ(appends_after_observer, appends);
  }
}

void FailedWriteCase(int num_threads) {
  // After a failed append or commit the log ends in a torn or unsealed
  // record, so nothing appended after it could be recovered. The failure
  // latches: retrying the failed Run, or running later batches, returns
  // FailedPrecondition naming Engine::Recover, and the live
  // durable_batch_seq stays what recovery will report.
  SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 10);
  ASSERT_GT(batches.size(), 6u);
  Engine reference(w->plan, EngineOptions());
  BatchRun uninterrupted = RunBatches(&reference, batches, 0, w->registry);

  // The 2nd append of batch 4, or batch 4's commit.
  for (const auto& [point, nth] :
       {std::pair<std::string, int64_t>("wal_append", 4 * 10 + 1),
        std::pair<std::string, int64_t>("wal_commit", 4)}) {
    SCOPED_TRACE(point);
    CrashPointInjector injector(point, nth);
    EngineOptions options;
    options.num_threads = num_threads;
    options.durability.mode = DurabilityMode::kWal;
    options.durability.dir = ScratchDir("latch");
    options.durability.fsync = FsyncPolicy::kNone;
    options.durability.crash_hook = injector.Hook();
    uint64_t live_durable = 0;
    {
      Engine victim(w->plan, options);
      for (size_t b = 0; b < 4; ++b) {
        ASSERT_TRUE(victim.Run(batches[b], nullptr).ok()) << b;
      }
      live_durable = victim.durable_batch_seq();
      EXPECT_EQ(live_durable, 4u);
      auto failed = victim.Run(batches[4], nullptr);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
      ASSERT_TRUE(injector.fired());
      // The retry, and every batch after it, is refused.
      for (size_t b = 4; b < batches.size(); ++b) {
        auto retried = victim.Run(batches[b], nullptr);
        ASSERT_FALSE(retried.ok()) << b;
        EXPECT_EQ(retried.status().code(), StatusCode::kFailedPrecondition);
        EXPECT_NE(retried.status().message().find("Engine::Recover"),
                  std::string::npos)
            << retried.status();
      }
      EXPECT_EQ(victim.durable_batch_seq(), live_durable);
    }
    options.durability.crash_hook = nullptr;
    auto recovered = Engine::Recover(w->plan, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered.value()->durable_batch_seq(), live_durable);
    BatchRun resumed = RunBatches(recovered.value().get(), batches,
                                  live_durable, w->registry);
    ASSERT_EQ(resumed.outputs.size(), batches.size() - live_durable);
    for (size_t b = live_durable; b < batches.size(); ++b) {
      EXPECT_EQ(resumed.outputs[b - live_durable], uninterrupted.outputs[b])
          << "batch " << b << " diverged after recovery";
    }
  }
}

TEST(EngineDurabilityTest, FailedWriteStopsLaterCommitsUntilRecover) {
  FailedWriteCase(1);
}

TEST(EngineDurabilityTest,
     FailedWriteStopsLaterCommitsUntilRecoverAtFourThreads) {
  FailedWriteCase(4);
}

TEST(EngineDurabilityTest, CommitCrashOnTheLogThreadMidDispatch) {
  // The commit record is written by the log thread while the batch is
  // dispatched and merged. A crash there must still fail the Run with
  // DataLoss, latch, keep durable_batch_seq where it was, and recover to
  // the same bytes at every thread count.
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 10);
  ASSERT_GT(batches.size(), 6u);
  Engine reference(w->plan, EngineOptions());
  BatchRun uninterrupted = RunBatches(&reference, batches, 0, w->registry);

  std::vector<std::string> recovered_outputs;
  for (int num_threads : {1, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    CrashPointInjector injector("wal_commit", 5);
    const std::thread::id caller = std::this_thread::get_id();
    bool fired_on_caller = false;
    CrashHook inner = injector.Hook();
    EngineOptions options;
    options.num_threads = num_threads;
    options.durability.mode = DurabilityMode::kWalCheckpoint;
    options.durability.dir = ScratchDir("commit_crash");
    options.durability.fsync = FsyncPolicy::kBatch;
    options.durability.checkpoint_interval_ticks = 16;
    options.durability.crash_hook = [&](std::string_view point) {
      const bool fire = inner(point);
      if (fire && std::this_thread::get_id() == caller) fired_on_caller = true;
      return fire;
    };
    {
      Engine victim(w->plan, options);
      for (size_t b = 0; b < 5; ++b) {
        ASSERT_TRUE(victim.Run(batches[b], nullptr).ok()) << b;
      }
      ASSERT_EQ(victim.durable_batch_seq(), 5u);
      auto failed = victim.Run(batches[5], nullptr);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
      ASSERT_TRUE(injector.fired());
      EXPECT_FALSE(fired_on_caller) << "the commit ran on the Run caller";
      EXPECT_EQ(victim.durable_batch_seq(), 5u);
      auto latched = victim.Run(batches[6], nullptr);
      ASSERT_FALSE(latched.ok());
      EXPECT_EQ(latched.status().code(), StatusCode::kFailedPrecondition);
      EXPECT_EQ(victim.durable_batch_seq(), 5u);
    }
    options.durability.crash_hook = nullptr;
    auto recovered = Engine::Recover(w->plan, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    ASSERT_EQ(recovered.value()->durable_batch_seq(), 5u);
    BatchRun resumed =
        RunBatches(recovered.value().get(), batches, 5, w->registry);
    ASSERT_EQ(resumed.outputs.size(), batches.size() - 5);
    std::string all;
    for (size_t b = 5; b < batches.size(); ++b) {
      EXPECT_EQ(resumed.outputs[b - 5], uninterrupted.outputs[b])
          << "batch " << b << " diverged after recovery";
      all += resumed.outputs[b - 5];
    }
    ExpectSameDegradation(uninterrupted, resumed);
    recovered_outputs.push_back(all);
  }
  ASSERT_EQ(recovered_outputs.size(), 2u);
  EXPECT_EQ(recovered_outputs[0], recovered_outputs[1]);
}

TEST(EngineDurabilityTest, LoggedTicksMatchTheAdmittedBatchesAtAnyWidth) {
  // The log thread appends the tick spans the scheduler planned; what the
  // WAL holds must not depend on the pool width, and must be exactly the
  // admitted batches, tick by tick.
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 10);
  std::vector<std::vector<WalBatch>> logged;
  for (int num_threads : {1, 4}) {
    EngineOptions options;
    options.num_threads = num_threads;
    options.durability.mode = DurabilityMode::kWal;
    options.durability.dir = ScratchDir("logged_ticks");
    options.durability.fsync = FsyncPolicy::kNone;
    {
      Engine engine(w->plan, options);
      for (const EventBatch& batch : batches) {
        ASSERT_TRUE(engine.Run(batch, nullptr).ok());
      }
    }
    auto scan = ScanWal(options.durability.dir, 0, 0);
    ASSERT_TRUE(scan.ok()) << scan.status();
    logged.push_back(std::move(scan.value().batches));
  }
  auto render = [&](const WalBatch& batch) {
    std::string out;
    for (const auto& [tick, events] : batch.ticks) {
      out += "tick " + std::to_string(tick) + "\n";
      for (const EventPtr& event : events) {
        EXPECT_EQ(event->time(), tick);
        out += event->ToString(w->registry) + "\n";
      }
    }
    return out;
  };
  ASSERT_EQ(logged[0].size(), batches.size());
  ASSERT_EQ(logged[1].size(), batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    EXPECT_EQ(logged[0][b].batch_seq, b + 1);
    EXPECT_EQ(logged[1][b].batch_seq, b + 1);
    EXPECT_EQ(render(logged[0][b]), render(logged[1][b]));
    std::string admitted;
    Timestamp last = -1;
    for (const EventPtr& event : batches[b]) {
      if (event->time() != last) {
        admitted += "tick " + std::to_string(event->time()) + "\n";
        last = event->time();
      }
      admitted += event->ToString(w->registry) + "\n";
    }
    EXPECT_EQ(render(logged[0][b]), admitted);
  }
}

TEST(EngineDurabilityTest, EngineDestroyedRightAfterALoggedRunJoinsItsLog) {
  // The log thread starts with the first logged Run and is joined by the
  // destructor; tearing engines down straight after a Run must neither
  // race (TSan) nor lose the committed batch.
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 10);
  for (int round = 0; round < 8; ++round) {
    EngineOptions options;
    options.num_threads = round % 2 == 0 ? 1 : 4;
    options.durability.mode = DurabilityMode::kWal;
    options.durability.dir = ScratchDir("teardown");
    options.durability.fsync = FsyncPolicy::kNone;
    {
      Engine engine(w->plan, options);
      ASSERT_TRUE(engine.Run(batches[0], nullptr).ok());
    }
    auto scan = ScanWal(options.durability.dir, 0, 0);
    ASSERT_TRUE(scan.ok()) << scan.status();
    ASSERT_EQ(scan.value().batches.size(), 1u);
    EXPECT_EQ(scan.value().batches[0].batch_seq, 1u);
  }
  // An engine that never logs starts no thread and writes nothing.
  std::string dir = ScratchDir("never_logged");
  {
    EngineOptions options;
    options.durability.mode = DurabilityMode::kWal;
    options.durability.dir = dir;
    Engine engine(w->plan, options);
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

TEST(EngineDurabilityTest, WalWaitIsTimedPerLoggedRun) {
  // RunStats::wal_wait_seconds and the kEngine wal_wait_seconds stats time
  // how long Run blocked on the log thread: one sample per logged Run, and
  // nothing with durability off.
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 40);
  for (DurabilityMode mode : {DurabilityMode::kOff, DurabilityMode::kWal}) {
    SCOPED_TRACE(DurabilityModeName(mode));
    EngineOptions options;
    options.metrics = MetricsGranularity::kEngine;
    options.durability.mode = mode;
    options.durability.dir = ScratchDir("wal_wait");
    Engine engine(w->plan, options);
    double summed = 0.0;
    for (const EventBatch& batch : batches) {
      auto stats = engine.Run(batch, nullptr);
      ASSERT_TRUE(stats.ok()) << stats.status();
      EXPECT_GE(stats.value().wal_wait_seconds, 0.0);
      if (mode == DurabilityMode::kOff) {
        EXPECT_EQ(stats.value().wal_wait_seconds, 0.0);
      }
      summed += stats.value().wal_wait_seconds;
    }
    const RunningStats& wal_wait =
        engine.CollectStatistics().ticks.wal_wait_seconds;
    EXPECT_EQ(wal_wait.count(), mode == DurabilityMode::kOff
                                    ? 0
                                    : static_cast<int64_t>(batches.size()));
    EXPECT_DOUBLE_EQ(wal_wait.sum(), summed);
  }
}

// Every name and byte a file holds.
std::map<std::string, std::string> ReadDirectory(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files[entry.path().filename().string()] = ReadFile(entry.path());
  }
  return files;
}

// The WAL and checkpoint bytes are a function of the input alone: nothing
// measured (the virtual clock, wall times) and nothing that depends on the
// pool width reaches them, so two runs of one input at 1 and at 4 threads
// leave byte-identical directories.
TEST(EngineDurabilityTest, DurableBytesAreReproducibleAcrossRunsAndWidths) {
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 10);
  auto durable_run = [&](int threads) {
    EngineOptions options;
    options.num_threads = threads;
    options.durability.mode = DurabilityMode::kWalCheckpoint;
    options.durability.dir =
        ScratchDir("reproducible_" + std::to_string(threads));
    options.durability.checkpoint_interval_ticks = 16;
    {
      Engine engine(w->plan, options);
      for (const EventBatch& batch : batches) {
        EXPECT_TRUE(engine.Run(batch, nullptr).ok());
      }
      EXPECT_GT(engine.durability_counters().checkpoints_written, 0);
    }
    return ReadDirectory(options.durability.dir);
  };
  std::map<std::string, std::string> serial = durable_run(1);
  std::map<std::string, std::string> parallel = durable_run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [name, bytes] : serial) {
    auto it = parallel.find(name);
    ASSERT_NE(it, parallel.end()) << name << " missing at 4 threads";
    EXPECT_TRUE(it->second == bytes) << name << " differs at 4 threads";
  }
  // The checkpoint bytes are pinned: a change to how operator state is
  // held must not change how it is saved. Recorded at checkpoint format
  // version 5.
  const std::map<std::string, uint32_t> pinned = {
      {"ckpt-0000000014.ckpt", 0xaf360266u},
      {"ckpt-0000000016.ckpt", 0x35564581u},
  };
  std::map<std::string, uint32_t> checkpoints;
  for (const auto& [name, bytes] : serial) {
    if (name.rfind("ckpt-", 0) == 0) checkpoints[name] = Crc32(bytes);
  }
  EXPECT_EQ(checkpoints, pinned);
}

TEST(EngineDurabilityTest, RecoverRequiresDurabilityOn) {
  auto w = MakeWorkload();
  EngineOptions options;  // kOff
  auto recovered = Engine::Recover(w->plan, options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineDurabilityTest, FsyncPolicyCountsSyncs) {
  auto w = MakeWorkload();
  std::vector<EventBatch> batches = SplitByTicks(w->stream, 40);
  auto fsyncs_with = [&](FsyncPolicy policy) {
    EngineOptions options;
    options.durability.mode = DurabilityMode::kWal;
    options.durability.dir = ScratchDir("fsync");
    options.durability.fsync = policy;
    Engine engine(w->plan, options);
    int64_t total = 0;
    for (const EventBatch& batch : batches) {
      auto stats = engine.Run(batch, nullptr);
      EXPECT_TRUE(stats.ok());
      total += stats.value().fsyncs;
    }
    return std::pair<int64_t, int64_t>(
        total, engine.durability_counters().wal_records);
  };
  auto [none, none_records] = fsyncs_with(FsyncPolicy::kNone);
  auto [batch, batch_records] = fsyncs_with(FsyncPolicy::kBatch);
  EXPECT_EQ(none, 0);
  EXPECT_EQ(batch, static_cast<int64_t>(batches.size()));
  EXPECT_EQ(none_records, batch_records);
}

}  // namespace
}  // namespace caesar
