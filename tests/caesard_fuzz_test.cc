// Protocol fuzz leg for caesard (ctest label: fuzz): a seeded frame-level
// mutator throws truncated frames, hostile lengths, raw garbage, and
// shape-broken JSON at a live daemon over real sockets. The properties
// held are exactly the ISSUE of record for a network daemon:
//
//   1. the daemon never crashes — it stays alive through every volley;
//   2. anything that parses far enough to answer gets a *coded* error
//      (I42x), never a hang or an uncoded close with pending valid input;
//   3. a fresh, well-formed connection still works after each volley.
//
// Deterministic: one fixed seed, pure mt19937 derivation, no wall-clock
// dependence in the generated payloads.
//
// The drain-split leg runs in process: random streams — disordered, with
// malformed and beyond-slack rows — fed to a TenantSession in random
// chunks (ingest + drain each, flush at the end) must equal one batch Run
// byte for byte, derived stream and deterministic statistics export, for
// every ingest policy at 1 and 4 threads. A table test pins what
// Engine::RunnablePrefix, the drain's cut, holds back.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "caesard_harness.h"
#include "gtest/gtest.h"
#include "oracle/generator.h"
#include "query/parser.h"
#include "runtime/engine.h"
#include "runtime/observability.h"
#include "server/session.h"
#include "server/wire.h"

namespace caesar {
namespace {

using testing::Client;
using testing::Daemon;
using testing::IsOk;
using testing::Req;

std::string RandomBytes(std::mt19937& rng, size_t max_len) {
  std::uniform_int_distribution<size_t> len_dist(0, max_len);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::string out(len_dist(rng), '\0');
  for (char& c : out) c = static_cast<char>(byte_dist(rng));
  return out;
}

std::string BinaryFrame(std::string_view payload, uint32_t claimed_len) {
  std::string frame;
  frame.push_back(static_cast<char>(0xC5));
  frame.push_back(static_cast<char>(claimed_len & 0xFF));
  frame.push_back(static_cast<char>((claimed_len >> 8) & 0xFF));
  frame.push_back(static_cast<char>((claimed_len >> 16) & 0xFF));
  frame.push_back(static_cast<char>((claimed_len >> 24) & 0xFF));
  frame.append(payload);
  return frame;
}

// One hostile message, chosen by the dial.
std::string Mutate(std::mt19937& rng) {
  std::uniform_int_distribution<int> pick(0, 9);
  switch (pick(rng)) {
    case 0:  // raw garbage, newline-terminated so the server must answer
      return RandomBytes(rng, 64) + "\n";
    case 1: {  // truncated binary frame: promises more than it sends
      std::string payload = RandomBytes(rng, 32);
      return BinaryFrame(payload,
                         static_cast<uint32_t>(payload.size() + 100));
    }
    case 2:  // hostile length prefix, no payload at all
      return BinaryFrame("", 0xFFFFFFFFu);
    case 3: {  // well-formed frame, garbage payload
      std::string payload = RandomBytes(rng, 128);
      return BinaryFrame(payload, static_cast<uint32_t>(payload.size()));
    }
    case 4: {  // valid framing, non-object JSON
      const char* docs[] = {"42\n", "[1,2,3]\n", "\"hi\"\n", "null\n",
                            "true\n"};
      return docs[std::uniform_int_distribution<int>(0, 4)(rng)];
    }
    case 5: {  // object, broken shape
      const char* docs[] = {
          "{}\n",
          "{\"cmd\":123}\n",
          "{\"cmd\":\"warp\"}\n",
          "{\"cmd\":\"register\"}\n",
          "{\"cmd\":\"register\",\"tenant\":\"x\"}\n",
          "{\"cmd\":\"ingest\",\"tenant\":\"x\",\"events\":7}\n",
          "{\"cmd\":\"ingest\",\"tenant\":\"x\",\"events\":[[1]]}\n",
          "{\"cmd\":\"stats\",\"tenant\":\"x\",\"format\":\"xml\"}\n",
      };
      return docs[std::uniform_int_distribution<int>(0, 7)(rng)];
    }
    case 6: {  // nesting bomb (parser depth cap must answer, not recurse out)
      std::string deep(200, '[');
      deep += std::string(200, ']');
      deep += "\n";
      return deep;
    }
    case 7: {  // valid command inside a binary frame, then mid-frame trash
      std::string good = BinaryFrame("{\"cmd\":\"ping\"}", 14);
      return good + BinaryFrame(RandomBytes(rng, 16), 9999);
    }
    case 8:  // unterminated line (no newline): server must wait, we close
      return RandomBytes(rng, 48);
    default: {  // interleaved: garbage line then a valid ping line
      return RandomBytes(rng, 24) + "\n{\"cmd\":\"ping\"}\n";
    }
  }
}

TEST(CaesardProtocolFuzz, HostileFramesNeverKillTheDaemon) {
  Daemon daemon({"--workers=2", "--max-frame-bytes=65536", "--max-tenants=4"});
  ASSERT_TRUE(daemon.valid());

  std::mt19937 rng(0xC4E5A2u);
  constexpr int kIterations = 200;
  for (int i = 0; i < kIterations; ++i) {
    {
      Client hostile(daemon.port(), /*recv_timeout_seconds=*/2);
      ASSERT_TRUE(hostile.connected()) << "iteration " << i;
      hostile.SendRaw(Mutate(rng));
      // Half-close so torn frames resolve to EOF server-side instead of
      // pinning a connection until the read timeout.
      hostile.ShutdownWrite();
      // Whatever comes back (a coded error, a ping pong, or a close) is
      // acceptable; a crash is not. Drain best-effort.
      (void)hostile.TryRead();
    }
    ASSERT_TRUE(daemon.Alive()) << "daemon died at iteration " << i;

    // Every 20 volleys: the front door still works end to end.
    if (i % 20 == 19) {
      Client probe(daemon.port());
      ASSERT_TRUE(probe.connected());
      auto pong = probe.Call(Req("ping"));
      ASSERT_TRUE(pong.ok()) << pong.status();
      EXPECT_TRUE(IsOk(pong.value()));
    }
  }

  // Parseable-but-invalid requests answer with codes, not closes: check
  // the contract explicitly on one connection.
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());
  auto bad_cmd = client.Call([] {
    JsonValue r = JsonValue::Object();
    r.Set("cmd", JsonValue::String("warp"));
    return r;
  }());
  ASSERT_TRUE(bad_cmd.ok());
  EXPECT_EQ(testing::ErrorCode(bad_cmd.value()), "I423");

  EXPECT_TRUE(daemon.Alive());
  ASSERT_TRUE(IsOk(testing::CallOrFail(client, Req("shutdown"))));
  EXPECT_TRUE(daemon.ShutdownCleanly());
}

// ---------------------------------------------------------------------------
// Drain-split leg: a TenantSession fed in random chunks equals one Run
// ---------------------------------------------------------------------------

// Hysteresis contexts plus a SEQ pattern, so partial matches and context
// state carry across ticks (and so across drains).
constexpr char kDrainModel[] = R"(
TYPE Reading(seg int, value int);
TYPE Rise(seg int, from_value int, to_value int);

CONTEXTS calm, busy DEFAULT calm;
PARTITION BY seg;

QUERY heat
INITIATE CONTEXT busy
PATTERN Reading r
WHERE r.value >= 7
CONTEXT calm;

QUERY cool
TERMINATE CONTEXT busy
PATTERN Reading r
WHERE r.value <= 2
CONTEXT busy;

QUERY rise
DERIVE Rise(a.seg AS seg, a.value AS from_value, b.value AS to_value)
PATTERN SEQ(Reading a, Reading b) WITHIN 6
WHERE a.seg = b.seg AND b.value > a.value
CONTEXT busy;
)";

std::string RenderEvents(const EventBatch& events,
                         const TypeRegistry& registry) {
  std::ostringstream os;
  for (const EventPtr& event : events) {
    os << event->time() << " " << event->ToString(registry) << "\n";
  }
  return os.str();
}

// Ordered stream: random tick gaps, 0-4 readings per tick over 4 segments.
EventBatch RandomStream(std::mt19937& rng, TypeId reading) {
  std::uniform_int_distribution<int> ticks(10, 60);
  std::uniform_int_distribution<int> gap(1, 3);
  std::uniform_int_distribution<int> per_tick(0, 4);
  std::uniform_int_distribution<int64_t> seg(0, 3);
  std::uniform_int_distribution<int64_t> value(0, 10);
  EventBatch stream;
  Timestamp t = std::uniform_int_distribution<Timestamp>(0, 5)(rng);
  for (int i = ticks(rng); i > 0; --i, t += gap(rng)) {
    for (int n = per_tick(rng); n > 0; --n) {
      stream.push_back(
          MakeEvent(reading, t, {Value(seg(rng)), Value(value(rng))}));
    }
  }
  return stream;
}

struct DrainLegResult {
  std::string derived;
  std::string stats;
};

TEST(CaesardDrainSplitFuzz, RandomChunksMatchOneRun) {
  std::mt19937 rng(0xD2A1Bu);
  constexpr int kTrialsPerLeg = 100;
  std::uniform_int_distribution<size_t> chunk_size(1, 40);
  std::uniform_int_distribution<Timestamp> slack_dist(0, 4);
  // Strict, reorder with slack 0 (every late event dropped), and reorder
  // with a random slack per trial.
  struct Leg {
    IngestPolicy policy;
    bool random_slack;
  };
  for (const Leg& leg : {Leg{IngestPolicy::kStrict, false},
                         Leg{IngestPolicy::kReorder, false},
                         Leg{IngestPolicy::kReorder, true}}) {
    const IngestPolicy policy = leg.policy;
    for (int threads : {1, 4}) {
      auto pool = std::make_shared<ShardedExecutor>(threads);
      size_t leg_derived = 0;
      for (int trial = 0; trial < kTrialsPerLeg; ++trial) {
        SessionConfig config;
        config.engine.shared_executor = pool;
        config.engine.ingest_policy = policy;
        config.engine.reorder_slack = leg.random_slack ? slack_dist(rng) : 0;
        auto created = TenantSession::Create("fuzz", kDrainModel, config);
        ASSERT_TRUE(created.ok()) << created.status();
        TenantSession& session = *created.value();
        const TypeRegistry& registry = session.registry();
        const TypeId reading = registry.Lookup("Reading");

        // Strict only ever sees ordered input; the degrading policies get
        // disorder up to 3 ticks plus malformed and beyond-slack rows.
        const uint64_t seed = rng();
        EventBatch stream = RandomStream(rng, reading);
        if (policy != IngestPolicy::kStrict) {
          stream = InjectJunk(DisorderStream(stream, seed, /*max_delay=*/3),
                              seed, registry, reading,
                              config.engine.reorder_slack,
                              /*malformed_rate=*/0.05, /*late_rate=*/0.05);
        }
        SCOPED_TRACE(std::string(IngestPolicyName(policy)) + " threads=" +
                     std::to_string(threads) + " slack=" +
                     std::to_string(config.engine.reorder_slack) + " seed=" +
                     std::to_string(seed) + " events=" +
                     std::to_string(stream.size()));

        // The reference: one Run over the whole stream, on an engine
        // configured exactly like the tenant's (same model, same type ids,
        // same engine options) but with its own threads instead of the pool.
        TypeRegistry ref_registry;
        auto model = ParseModel(kDrainModel, &ref_registry);
        ASSERT_TRUE(model.ok()) << model.status();
        EngineOptions ref_options = config.engine;
        ref_options.tenant = "fuzz";
        ref_options.shared_executor = nullptr;
        ref_options.num_threads = threads;
        ref_options.analysis = AnalysisMode::kStrict;
        auto ref = Engine::Create(model.value(), config.plan, ref_options);
        ASSERT_TRUE(ref.ok()) << ref.status();
        EventBatch ref_derived;
        ASSERT_TRUE(ref.value()->Run(stream, &ref_derived).ok());
        ExportOptions deterministic;
        deterministic.deterministic = true;
        const DrainLegResult expected{
            RenderEvents(ref_derived, ref_registry),
            StatisticsToJson(ref.value()->CollectStatistics(),
                             deterministic)};

        SessionSerialGuard guard(TenantSession::serial_role);
        EventBatch derived;
        for (size_t at = 0; at < stream.size();) {
          const size_t end = std::min(stream.size(), at + chunk_size(rng));
          ASSERT_TRUE(session
                          .Ingest(EventBatch(stream.begin() + at,
                                             stream.begin() + end))
                          .ok());
          ASSERT_TRUE(session.Drain(/*flush=*/false, &derived).ok());
          at = end;
        }
        ASSERT_TRUE(session.Drain(/*flush=*/true, &derived).ok());
        leg_derived += derived.size();
        EXPECT_EQ(RenderEvents(derived, registry), expected.derived);
        EXPECT_EQ(session.ExportStats(/*prometheus=*/false,
                                      /*deterministic=*/true),
                  expected.stats);
        if (::testing::Test::HasFailure()) return;
      }
      EXPECT_GT(leg_derived, 0u) << "the workload derives nothing";
    }
  }
}

// What the drain's cut holds back, case by case.
TEST(CaesardDrainSplitFuzz, RunnablePrefixTable) {
  // A pending entry equal to kJunk is a malformed event (unknown type) at
  // that time; every other entry is a well-formed reading.
  constexpr Timestamp kJunk = 100;
  struct Case {
    const char* name;
    IngestPolicy policy;
    Timestamp slack;
    std::vector<Timestamp> earlier_run;  // run before the pending buffer
    std::vector<Timestamp> pending;
    size_t runnable;
  };
  const Case cases[] = {
      {"strict: ordered, cut before the first max", IngestPolicy::kStrict, 0,
       {}, {1, 2, 2, 3, 3}, 3},
      {"strict: one open tick holds everything", IngestPolicy::kStrict, 0,
       {}, {4, 4}, 0},
      {"reorder, slack 0: a straggler is not held", IngestPolicy::kReorder, 0,
       {}, {5, 3, 6}, 2},
      {"reorder, slack 0: below the last processed tick is not held",
       IngestPolicy::kReorder, 0, {5}, {3, 7, 8}, 2},
      {"reorder: an in-slack straggler may still sort first",
       IngestPolicy::kReorder, 2, {}, {5, 3, 6}, 0},
      {"reorder: [7,8,6,10] with slack 2 cuts at 0", IngestPolicy::kReorder,
       2, {}, {7, 8, 6, 10}, 0},
      {"reorder: run what the watermark passed", IngestPolicy::kReorder, 2,
       {}, {1, 2, 3, 4, 5}, 2},
      {"reorder, slack 0: a malformed event at a high time holds nothing "
       "back",
       IngestPolicy::kReorder, 0, {}, {1, 2, kJunk, 3}, 3},
      {"reorder: a malformed event at a high time holds nothing back",
       IngestPolicy::kReorder, 2, {}, {1, 2, kJunk, 3, 6}, 4},
      {"nothing pending", IngestPolicy::kReorder, 2, {}, {}, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TypeRegistry registry;
    auto model = ParseModel(kDrainModel, &registry);
    ASSERT_TRUE(model.ok()) << model.status();
    EngineOptions options;
    options.ingest_policy = c.policy;
    options.reorder_slack = c.slack;
    auto engine = Engine::Create(model.value(), PlanOptions{}, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    const TypeId reading = registry.Lookup("Reading");
    auto make = [&](const std::vector<Timestamp>& times) {
      EventBatch batch;
      for (Timestamp t : times) {
        batch.push_back(t == kJunk ? MakeEvent(/*type_id=*/999, t, {})
                                   : MakeEvent(reading, t,
                                               {Value(int64_t{0}),
                                                Value(int64_t{5})}));
      }
      return batch;
    };
    if (!c.earlier_run.empty()) {
      ASSERT_TRUE(engine.value()->Run(make(c.earlier_run)).ok());
    }
    EXPECT_EQ(engine.value()->RunnablePrefix(make(c.pending)), c.runnable);
  }
}

}  // namespace
}  // namespace caesar
