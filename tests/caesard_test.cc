// End-to-end tests for caesard: a real daemon process on a loopback
// socket, driven through the wire protocol, held byte-identical to
// in-process Engine::Run.
//
// The differential suite covers {1, 2, 4} worker threads: for each, the
// socket-fed tenant's derived stream AND its deterministic JSON statistics
// export must equal the in-process batch run byte for byte; a reorder
// tenant fed a disordered stream is held to the same bar at 1 and 4
// workers, and an in-process TenantSession case pins the drain cut that
// keeps in-slack stragglers across drains. The multi-tenant test
// interleaves two tenants — one fed fault-injected garbage — and holds
// each to its solo-run bytes, quarantine counters included. The
// backpressure test fills a tiny admission buffer, expects coded I420
// rejections on the wire, and proves clean resumption without silent
// drops. The protocol tests pin the coded errors, the ingest reply that
// carries the ticks it completed, and a wire shutdown whose reply
// survives a Stop() that follows it at once.

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "caesard_harness.h"
#include "event/event.h"
#include "event/schema.h"
#include "fault_injection.h"
#include "gtest/gtest.h"
#include "plan/translator.h"
#include "query/parser.h"
#include "runtime/engine.h"
#include "oracle/generator.h"
#include "runtime/observability.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"

namespace caesar {
namespace {

using testing::CallOrFail;
using testing::Client;
using testing::Daemon;
using testing::ErrorCode;
using testing::IsOk;
using testing::Req;

// The activity-monitoring example model: hysteresis contexts plus a SEQ
// escalation pattern, so the pattern automaton has real work.
constexpr char kModel[] = R"(
TYPE ActivityReport(subject int, hr int, intensity int, sec int);
TYPE HrEscalation(subject int, from_hr int, to_hr int);

CONTEXTS rest, active DEFAULT rest;
PARTITION BY subject;

QUERY detect_active
INITIATE CONTEXT active
PATTERN ActivityReport r
WHERE r.intensity >= 7
CONTEXT rest;

QUERY detect_rest
TERMINATE CONTEXT active
PATTERN ActivityReport r
WHERE r.intensity <= 3
CONTEXT active;

QUERY hr_escalation
DERIVE HrEscalation(a.subject AS subject, a.hr AS from_hr, b.hr AS to_hr)
PATTERN SEQ(ActivityReport a, ActivityReport b) WITHIN 30
WHERE a.subject = b.subject AND b.hr > a.hr AND b.hr >= 150
CONTEXT active;
)";

// Deterministic multi-partition stream: intensities sweep through the
// hysteresis thresholds so contexts open and close; heart rates wander
// through 150 so escalations derive.
EventBatch MakeStream(const TypeRegistry& registry, int subjects,
                      Timestamp ticks) {
  const TypeId type = registry.Lookup("ActivityReport");
  EXPECT_NE(type, kInvalidTypeId);
  uint64_t state = 0x5eed;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int64_t>(state >> 33);
  };
  EventBatch stream;
  for (Timestamp sec = 1; sec <= ticks; ++sec) {
    for (int subject = 0; subject < subjects; ++subject) {
      const int64_t intensity = next() % 11;
      const int64_t hr = 110 + next() % 70;
      stream.push_back(MakeEvent(
          type, sec,
          {Value(static_cast<int64_t>(subject)), Value(hr), Value(intensity),
           Value(static_cast<int64_t>(sec))}));
    }
  }
  return stream;
}

std::string Render(const EventBatch& events, const TypeRegistry& registry) {
  std::ostringstream os;
  for (const EventPtr& event : events) {
    os << event->time() << " " << event->ToString(registry) << "\n";
  }
  return os.str();
}

// In-process reference engine, configured exactly like a caesard tenant.
struct Reference {
  std::unique_ptr<TypeRegistry> registry = std::make_unique<TypeRegistry>();
  std::unique_ptr<Engine> engine;

  static Reference Build(const std::string& tenant, int threads,
                         IngestPolicy policy = IngestPolicy::kStrict,
                         Timestamp reorder_slack = 0) {
    Reference ref;
    auto model = ParseModel(kModel, ref.registry.get());
    EXPECT_TRUE(model.ok()) << model.status();
    EngineOptions options = SessionConfig().engine;
    options.tenant = tenant;
    options.num_threads = threads;
    options.ingest_policy = policy;
    options.reorder_slack = reorder_slack;
    options.analysis = AnalysisMode::kStrict;
    auto engine = Engine::Create(model.value(), PlanOptions{}, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    ref.engine = std::move(engine).value();
    return ref;
  }

  std::string StatsJson() const {
    ExportOptions options;
    options.deterministic = true;
    return StatisticsToJson(engine->CollectStatistics(), options);
  }
};

// Feeds `stream` to `tenant` in `chunk`-sized wire batches (deliberately
// not tick-aligned) and returns the rendered derived stream, decoding the
// response rows against `registry`. Uses `client` so several tenants can
// interleave on distinct connections.
std::string StreamOverSocket(Client& client, const std::string& tenant,
                             const EventBatch& stream, size_t chunk,
                             const TypeRegistry& registry,
                             bool binary = true) {
  EventBatch derived;
  auto collect = [&](const JsonValue& response) {
    const JsonValue* rows = response.Find("derived");
    if (rows == nullptr) return;
    for (const JsonValue& row : rows->items()) {
      EventPtr event;
      Status status = DecodeEventRow(row, registry, &event);
      ASSERT_TRUE(status.ok()) << status;
      derived.push_back(std::move(event));
    }
  };

  for (size_t at = 0; at < stream.size(); at += chunk) {
    const size_t end = std::min(at + chunk, stream.size());
    JsonValue request = Req("ingest", tenant);
    JsonValue rows = JsonValue::Array();
    for (size_t i = at; i < end; ++i) {
      rows.Append(EncodeEventRow(*stream[i], registry));
    }
    request.Set("events", std::move(rows));
    auto response = client.Call(request, binary);
    EXPECT_TRUE(response.ok()) << response.status();
    if (!response.ok()) return {};
    EXPECT_TRUE(IsOk(response.value())) << response.value().Dump();
    if (!IsOk(response.value())) return {};
    collect(response.value());
    if (::testing::Test::HasFatalFailure()) return {};
  }
  auto flushed = client.Call(Req("flush", tenant), binary);
  EXPECT_TRUE(flushed.ok() && IsOk(flushed.value()));
  if (flushed.ok()) collect(flushed.value());
  return Render(derived, registry);
}

std::string SocketStats(Client& client, const std::string& tenant) {
  JsonValue request = Req("stats", tenant);
  request.Set("deterministic", JsonValue::Bool(true));
  auto response = client.Call(request);
  EXPECT_TRUE(response.ok() && IsOk(response.value()));
  if (!response.ok()) return {};
  const JsonValue* stats = response.value().Find("stats");
  return stats != nullptr && stats->is_string() ? stats->string_value()
                                                : std::string();
}

JsonValue RegisterReq(const std::string& tenant, const char* ingest = nullptr,
                      Timestamp reorder_slack = 0) {
  JsonValue request = Req("register", tenant);
  request.Set("model", JsonValue::String(kModel));
  if (ingest != nullptr) {
    JsonValue options = JsonValue::Object();
    options.Set("ingest", JsonValue::String(ingest));
    if (reorder_slack > 0) {
      options.Set("reorder_slack", JsonValue::Int(reorder_slack));
    }
    request.Set("options", std::move(options));
  }
  return request;
}

// ---------------------------------------------------------------------------
// Differential suite: worker threads, socket vs batch, byte identical
// ---------------------------------------------------------------------------

class CaesardDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CaesardDifferential, SocketMatchesBatchByteForByte) {
  const int workers = GetParam();

  Daemon daemon({"--workers=" + std::to_string(workers)});
  ASSERT_TRUE(daemon.valid());
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());

  auto registered = client.Call(RegisterReq("t1"));
  ASSERT_TRUE(registered.ok() && IsOk(registered.value()))
      << (registered.ok() ? registered.value().Dump()
                          : registered.status().ToString());

  // The reference: one batch Run over the identical stream.
  Reference ref = Reference::Build("t1", workers);
  ASSERT_NE(ref.engine, nullptr);
  const EventBatch stream = MakeStream(*ref.registry, 6, 120);
  EventBatch expected_derived;
  auto stats = ref.engine->Run(stream, &expected_derived);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_GT(expected_derived.size(), 0u) << "workload derives nothing";

  // Socket side: 37-event chunks, nowhere tick-aligned on purpose.
  const std::string socket_rendered =
      StreamOverSocket(client, "t1", stream, 37, *ref.registry);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(socket_rendered, Render(expected_derived, *ref.registry));

  // Deterministic statistics export: byte-identical too (tenant label
  // included on both sides).
  EXPECT_EQ(SocketStats(client, "t1"), ref.StatsJson());

  auto teardown = client.Call(Req("teardown", "t1"));
  EXPECT_TRUE(teardown.ok() && IsOk(teardown.value()));
}

INSTANTIATE_TEST_SUITE_P(Workers, CaesardDifferential,
                         ::testing::Values(1, 2, 4), [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

// A reorder tenant fed a disordered stream in chunks that split ticks:
// every drain runs only what the engine's watermark says is complete, so
// the socket side still equals one batch Run byte for byte.
class CaesardReorderDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CaesardReorderDifferential, DisorderedSocketMatchesBatchByteForByte) {
  const int workers = GetParam();
  constexpr Timestamp kSlack = 3;

  Daemon daemon({"--workers=" + std::to_string(workers)});
  ASSERT_TRUE(daemon.valid());
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());
  auto registered = client.Call(RegisterReq("r1", "reorder", kSlack));
  ASSERT_TRUE(registered.ok() && IsOk(registered.value()))
      << (registered.ok() ? registered.value().Dump()
                          : registered.status().ToString());

  Reference ref =
      Reference::Build("r1", workers, IngestPolicy::kReorder, kSlack);
  ASSERT_NE(ref.engine, nullptr);
  const EventBatch stream =
      DisorderStream(MakeStream(*ref.registry, 6, 120), /*seed=*/19, kSlack);
  EventBatch expected_derived;
  auto stats = ref.engine->Run(stream, &expected_derived);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_GT(expected_derived.size(), 0u) << "workload derives nothing";
  ASSERT_GT(stats.value().events_reordered, 0) << "stream is not disordered";

  const std::string socket_rendered =
      StreamOverSocket(client, "r1", stream, 37, *ref.registry);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(socket_rendered, Render(expected_derived, *ref.registry));
  EXPECT_EQ(SocketStats(client, "r1"), ref.StatsJson());
}

INSTANTIATE_TEST_SUITE_P(Workers, CaesardReorderDifferential,
                         ::testing::Values(1, 4), [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

// A straggler within the slack that arrives after its successors were
// drained must still run in time order: the drain may not have run them.
TEST(TenantSessionDrain, ReorderKeepsInSlackStragglersAcrossDrains) {
  constexpr char kEchoModel[] = R"(
TYPE Reading(seg int, value int);
TYPE Echo(seg int, value int);
CONTEXTS only DEFAULT only;
PARTITION BY seg;

QUERY echo
DERIVE Echo(r.seg AS seg, r.value AS value)
PATTERN Reading r
CONTEXT only;
)";
  SessionConfig config;
  config.engine.ingest_policy = IngestPolicy::kReorder;
  config.engine.reorder_slack = 2;
  auto created = TenantSession::Create("echo", kEchoModel, config);
  ASSERT_TRUE(created.ok()) << created.status();
  TenantSession& session = *created.value();
  const TypeId reading = session.registry().Lookup("Reading");
  auto at = [&](Timestamp t) {
    return MakeEvent(reading, t, {Value(int64_t{1}), Value(int64_t{t})});
  };

  SessionSerialGuard guard(TenantSession::serial_role);
  EventBatch derived;
  ASSERT_TRUE(session.Ingest({at(5), at(6)}).ok());
  ASSERT_TRUE(session.Drain(/*flush=*/false, &derived).ok());
  ASSERT_TRUE(session.Ingest({at(4)}).ok());
  ASSERT_TRUE(session.Drain(/*flush=*/false, &derived).ok());
  ASSERT_TRUE(session.Drain(/*flush=*/true, &derived).ok());
  std::string times;
  for (const EventPtr& event : derived) {
    times += std::to_string(event->time()) + " ";
  }
  EXPECT_EQ(times, "4 5 6 ");
  EXPECT_EQ(session.engine().quarantine().total(), 0);
  EXPECT_EQ(session.pending_events(), 0u);
}

// ---------------------------------------------------------------------------
// Multi-tenant isolation under interleaved (and partly corrupt) ingest
// ---------------------------------------------------------------------------

TEST(CaesardMultiTenant, InterleavedTenantsMatchSoloRunsBitForBit) {
  Daemon daemon({"--workers=2"});
  ASSERT_TRUE(daemon.valid());

  // Tenant A: clean stream, strict policy.
  // Tenant B: the same stream with fault-injected garbage (unknown types
  // and negative times), reorder policy with slack 0 so the engine
  // quarantines instead of rejecting. Separate connections, interleaved
  // chunks.
  Client client_a(daemon.port());
  Client client_b(daemon.port());
  ASSERT_TRUE(client_a.connected() && client_b.connected());

  auto reg_a = client_a.Call(RegisterReq("alpha"));
  ASSERT_TRUE(reg_a.ok() && IsOk(reg_a.value()));
  auto reg_b = client_b.Call(RegisterReq("beta", "reorder"));
  ASSERT_TRUE(reg_b.ok() && IsOk(reg_b.value()));

  Reference ref_a = Reference::Build("alpha", 2);
  Reference ref_b = Reference::Build("beta", 2, IngestPolicy::kReorder);
  ASSERT_NE(ref_a.engine, nullptr);
  ASSERT_NE(ref_b.engine, nullptr);

  const EventBatch clean = MakeStream(*ref_a.registry, 5, 90);
  caesar::testing::FaultInjector injector(/*seed=*/7);
  // Unknown-type ids are out of range for BOTH registries (identical
  // models) — over the wire they travel as "__unknown__".
  EventBatch corrupt = injector.CorruptTypes(
      clean, 0.08, ref_b.registry->num_types());
  corrupt = injector.CorruptTimes(corrupt, 0.04);

  // Solo references.
  EventBatch expect_a;
  EventBatch expect_b;
  ASSERT_TRUE(ref_a.engine->Run(clean, &expect_a).ok());
  ASSERT_TRUE(ref_b.engine->Run(corrupt, &expect_b).ok());

  // Interleave on the wire: alternate 23-event chunks A/B.
  EventBatch derived_a;
  EventBatch derived_b;
  auto send_chunk = [&](Client& client, const std::string& tenant,
                        const EventBatch& stream, size_t at, size_t chunk,
                        EventBatch* sink, const TypeRegistry& registry) {
    if (at >= stream.size()) return;
    const size_t end = std::min(at + chunk, stream.size());
    JsonValue request = Req("ingest", tenant);
    JsonValue rows = JsonValue::Array();
    for (size_t i = at; i < end; ++i) {
      rows.Append(EncodeEventRow(*stream[i], registry));
    }
    request.Set("events", std::move(rows));
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok() && IsOk(response.value()))
        << (response.ok() ? response.value().Dump()
                          : response.status().ToString());
    if (const JsonValue* out = response.value().Find("derived")) {
      for (const JsonValue& row : out->items()) {
        EventPtr event;
        ASSERT_TRUE(DecodeEventRow(row, registry, &event).ok());
        sink->push_back(std::move(event));
      }
    }
  };
  const size_t chunk = 23;
  const size_t steps =
      (std::max(clean.size(), corrupt.size()) + chunk - 1) / chunk;
  for (size_t step = 0; step < steps; ++step) {
    send_chunk(client_a, "alpha", clean, step * chunk, chunk, &derived_a,
               *ref_a.registry);
    send_chunk(client_b, "beta", corrupt, step * chunk, chunk, &derived_b,
               *ref_b.registry);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  auto drain = [&](Client& client, const std::string& tenant,
                   EventBatch* sink, const TypeRegistry& registry) {
    auto response = client.Call(Req("flush", tenant));
    ASSERT_TRUE(response.ok() && IsOk(response.value()));
    for (const JsonValue& row : response.value().Find("derived")->items()) {
      EventPtr event;
      ASSERT_TRUE(DecodeEventRow(row, registry, &event).ok());
      sink->push_back(std::move(event));
    }
  };
  drain(client_a, "alpha", &derived_a, *ref_a.registry);
  drain(client_b, "beta", &derived_b, *ref_b.registry);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  EXPECT_EQ(Render(derived_a, *ref_a.registry),
            Render(expect_a, *ref_a.registry));
  EXPECT_EQ(Render(derived_b, *ref_b.registry),
            Render(expect_b, *ref_b.registry));

  // Statistics isolation: each tenant's deterministic export equals its
  // solo run — quarantine activity included, so beta's garbage counters
  // cannot have leaked into alpha (whose export shows zero quarantined).
  const std::string stats_a = SocketStats(client_a, "alpha");
  const std::string stats_b = SocketStats(client_b, "beta");
  EXPECT_EQ(stats_a, ref_a.StatsJson());
  EXPECT_EQ(stats_b, ref_b.StatsJson());
  EXPECT_NE(stats_a.find("\"quarantined\":0"), std::string::npos);
  EXPECT_EQ(stats_b.find("\"quarantined\":0"), std::string::npos);
  EXPECT_NE(stats_a.find("\"tenant\":\"alpha\""), std::string::npos);
  EXPECT_NE(stats_b.find("\"tenant\":\"beta\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Backpressure: bounded buffer, coded rejection, clean resumption
// ---------------------------------------------------------------------------

TEST(CaesardBackpressure, BoundedBufferRejectsWithI420AndResumes) {
  Daemon daemon({"--workers=1"});
  ASSERT_TRUE(daemon.valid());
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());

  JsonValue request = Req("register", "t1");
  request.Set("model", JsonValue::String(kModel));
  JsonValue options = JsonValue::Object();
  options.Set("max_pending_events", JsonValue::Int(8));
  request.Set("options", std::move(options));
  auto registered = client.Call(request);
  ASSERT_TRUE(registered.ok() && IsOk(registered.value()));

  Reference ref = Reference::Build("t1", 1);
  ASSERT_NE(ref.engine, nullptr);
  // Two ticks x 6 subjects. Each tick's 6 events stay buffered as the
  // open tick until a flush — exactly the squeeze the bound needs.
  const EventBatch full = MakeStream(*ref.registry, 6, 2);
  ASSERT_EQ(full.size(), 12u);
  const EventBatch tick1(full.begin(), full.begin() + 6);
  const EventBatch tick2(full.begin() + 6, full.end());

  auto ingest = [&](const EventBatch& events) {
    JsonValue req2 = Req("ingest", "t1");
    JsonValue rows = JsonValue::Array();
    for (const EventPtr& event : events) {
      rows.Append(EncodeEventRow(*event, *ref.registry));
    }
    req2.Set("events", std::move(rows));
    return CallOrFail(client, req2);
  };

  // 6 in (buffered as the open tick), then 6 more: 12 > 8 — refused whole.
  JsonValue first = ingest(tick1);
  ASSERT_TRUE(IsOk(first)) << first.Dump();
  EXPECT_EQ(first.Find("pending")->int_value(), 6);

  JsonValue rejected = ingest(tick2);
  ASSERT_FALSE(IsOk(rejected)) << rejected.Dump();
  ASSERT_EQ(ErrorCode(rejected), "I420");
  EXPECT_EQ(rejected.Find("pending")->int_value(), 6);  // nothing admitted
  EXPECT_EQ(rejected.Find("limit")->int_value(), 8);

  // Flush drains the buffer; the refused batch is then accepted on retry —
  // clean resumption, and the rejection was whole (no partial admission
  // to double-count now).
  auto flushed = client.Call(Req("flush", "t1"));
  ASSERT_TRUE(flushed.ok() && IsOk(flushed.value()));
  JsonValue second = ingest(tick2);
  ASSERT_TRUE(IsOk(second)) << second.Dump();

  auto final_flush = client.Call(Req("flush", "t1"));
  ASSERT_TRUE(final_flush.ok() && IsOk(final_flush.value()));

  // No silent drops: the strict-mode engine admitted exactly the 12
  // events of the two accepted batches.
  const std::string stats = SocketStats(client, "t1");
  EXPECT_NE(stats.find("\"admitted\":12"), std::string::npos) << stats;
}

// ---------------------------------------------------------------------------
// Protocol surface: admission gate, tenant lifecycle, debug framing
// ---------------------------------------------------------------------------

TEST(CaesardProtocol, LifecycleAndCodedErrors) {
  // The one daemon test that still passes --deterministic: it names no
  // mode any more, but perfbench starts caesard with it, so it must boot.
  Daemon daemon({"--deterministic", "--workers=2"});
  ASSERT_TRUE(daemon.valid());
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());

  const JsonValue ping = CallOrFail(client, Req("ping"));
  ASSERT_TRUE(IsOk(ping)) << ping.Dump();
  EXPECT_EQ(ping.Find("protocol")->int_value(), 3);
  EXPECT_EQ(ping.Find("deterministic"), nullptr);
  EXPECT_EQ(ping.Find("workers")->int_value(), 2);

  // Admission gate, leg 1: unparseable model.
  JsonValue bad = Req("register", "broken");
  bad.Set("model", JsonValue::String("TYPE Nope(a int;"));
  const JsonValue r1 = CallOrFail(client, bad);
  EXPECT_FALSE(IsOk(r1));
  EXPECT_EQ(ErrorCode(r1), "I424");

  // Admission gate, leg 2: parses, but the strict analyzer rejects the
  // unknown attribute (E102) — caesar-lint as gatekeeper.
  JsonValue lint = Req("register", "lintfail");
  lint.Set("model", JsonValue::String(
                        "TYPE A(x int);\n"
                        "TYPE B(y int);\n"
                        "CONTEXTS c0 DEFAULT c0;\n"
                        "PARTITION BY x;\n"
                        "QUERY q DERIVE B(a.nope AS y) PATTERN A a "
                        "CONTEXT c0;\n"));
  const JsonValue r2 = CallOrFail(client, lint);
  EXPECT_FALSE(IsOk(r2));
  EXPECT_EQ(ErrorCode(r2), "I424");
  ASSERT_NE(r2.Find("error"), nullptr) << r2.Dump();
  EXPECT_NE(r2.Find("error")->string_value().find("E102"), std::string::npos)
      << r2.Dump();
  const JsonValue list = CallOrFail(client, Req("list"));
  ASSERT_NE(list.Find("tenants"), nullptr) << list.Dump();
  EXPECT_EQ(list.Find("tenants")->items().size(), 0u);

  // Lifecycle codes: duplicate register, unknown tenant, unknown option.
  ASSERT_TRUE(IsOk(CallOrFail(client, RegisterReq("t1"))));
  EXPECT_EQ(ErrorCode(CallOrFail(client, RegisterReq("t1"))), "I422");
  EXPECT_EQ(ErrorCode(CallOrFail(client, Req("flush", "ghost"))), "I421");
  JsonValue bad_option = Req("register", "t2");
  bad_option.Set("model", JsonValue::String(kModel));
  JsonValue opts = JsonValue::Object();
  opts.Set("no_such_knob", JsonValue::Bool(true));
  bad_option.Set("options", std::move(opts));
  EXPECT_EQ(ErrorCode(CallOrFail(client, bad_option)), "I423");

  // Ingest policies: "drop" is retired (it was "reorder" with slack 0),
  // and a slack under "strict" would be silently ignored, so both are bad
  // requests that name what is wrong.
  const JsonValue drop = CallOrFail(client, RegisterReq("t2", "drop"));
  EXPECT_EQ(ErrorCode(drop), "I423");
  ASSERT_NE(drop.Find("error"), nullptr) << drop.Dump();
  const std::string drop_error = drop.Find("error")->string_value();
  EXPECT_NE(drop_error.find("\"strict\""), std::string::npos) << drop_error;
  EXPECT_NE(drop_error.find("\"reorder\""), std::string::npos) << drop_error;
  EXPECT_EQ(drop_error.find("drop"), std::string::npos) << drop_error;
  const JsonValue strict_slack =
      CallOrFail(client, RegisterReq("t2", "strict", /*reorder_slack=*/3));
  EXPECT_EQ(ErrorCode(strict_slack), "I423");
  ASSERT_NE(strict_slack.Find("error"), nullptr) << strict_slack.Dump();
  EXPECT_NE(strict_slack.Find("error")->string_value().find("reorder_slack"),
            std::string::npos)
      << strict_slack.Dump();
  EXPECT_TRUE(IsOk(CallOrFail(client, RegisterReq("t2", "reorder", 3))));

  // poll is gone with the output buffer it read: an unknown cmd.
  const JsonValue poll = CallOrFail(client, Req("poll", "t1"));
  EXPECT_EQ(ErrorCode(poll), "I423");
  ASSERT_NE(poll.Find("error"), nullptr) << poll.Dump();
  EXPECT_NE(poll.Find("error")->string_value().find("unknown cmd"),
            std::string::npos)
      << poll.Dump();

  // Teardown frees the name for re-registration.
  EXPECT_TRUE(IsOk(CallOrFail(client, Req("teardown", "t1"))));
  EXPECT_TRUE(IsOk(CallOrFail(client, RegisterReq("t1"))));

  // Wire shutdown: the reply arrives whole, then the daemon exits 0.
  EXPECT_TRUE(IsOk(CallOrFail(client, Req("shutdown"))));
  EXPECT_TRUE(daemon.ShutdownCleanly());
}

// With no flag at all, the ingest that completes a tick carries that
// tick's derived rows on its own reply, and the flush the open tick's.
TEST(CaesardProtocol, IngestReplyCarriesTheTicksItCompleted) {
  Daemon daemon({});
  ASSERT_TRUE(daemon.valid());
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());

  JsonValue reg = Req("register", "echo");
  reg.Set("model", JsonValue::String(
                       "TYPE A(x int); TYPE B(y int); CONTEXTS c0 DEFAULT c0; "
                       "PARTITION BY x; QUERY q DERIVE B(a.x AS y) PATTERN A "
                       "a WHERE a.x > 2 CONTEXT c0;"));
  ASSERT_TRUE(IsOk(CallOrFail(client, reg)));

  auto ingest = [&](const char* rows) {
    JsonValue request = Req("ingest", "echo");
    Result<JsonValue> events = ParseJson(rows);
    EXPECT_TRUE(events.ok()) << events.status();
    request.Set("events", events.ok() ? events.value() : JsonValue::Array());
    return CallOrFail(client, request);
  };
  auto derived = [](const JsonValue& reply) {
    const JsonValue* rows = reply.Find("derived");
    return rows != nullptr ? rows->Dump() : std::string("no derived field");
  };
  // Tick 1 is open until a later tick arrives: nothing to run yet.
  const JsonValue open = ingest(R"([["A",1,[1]],["A",1,[7]]])");
  ASSERT_TRUE(IsOk(open)) << open.Dump();
  EXPECT_EQ(derived(open), "[]");
  EXPECT_EQ(open.Find("pending")->int_value(), 2);

  const JsonValue completed = ingest(R"([["A",2,[9]]])");
  ASSERT_TRUE(IsOk(completed)) << completed.Dump();
  EXPECT_EQ(derived(completed), R"([["B",1,[7]]])");
  EXPECT_EQ(completed.Find("pending")->int_value(), 1);

  const JsonValue flushed = CallOrFail(client, Req("flush", "echo"));
  ASSERT_TRUE(IsOk(flushed)) << flushed.Dump();
  EXPECT_EQ(derived(flushed), R"([["B",2,[9]]])");
}

// Runs caesard with `args` to exit; returns its exit status (-1 if it did
// not exit normally) and its combined stdout and stderr in *output.
int RunCaesardToExit(const std::string& args, std::string* output) {
  const std::string command =
      std::string("'") + CAESAR_CAESARD_PATH + "' " + args + " 2>&1";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[256];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output->append(buffer, n);
  }
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CaesardProtocol, DrainIntervalFlagIsAUsageError) {
  std::string output;
  EXPECT_EQ(RunCaesardToExit("--drain-interval-ms=5", &output), 2);
  EXPECT_NE(output.find("usage:"), std::string::npos) << output;
}

// Every tenant runs on the shared pool, which has at least one
// participant: the caller.
TEST(CaesardProtocol, ZeroWorkersIsAUsageError) {
  std::string output;
  EXPECT_EQ(RunCaesardToExit("--workers=0", &output), 2);
  EXPECT_NE(output.find("usage:"), std::string::npos) << output;
}

// The reply to a wire shutdown must arrive whole even when the owner tears
// the server down the moment stop_requested() flips, as caesard's main
// loop does, only faster.
TEST(CaesardProtocol, ShutdownReplyOutlivesAnEagerStop) {
  for (int i = 0; i < 200; ++i) {
    CaesarServer server(ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    std::thread stopper([&server] {
      while (!server.stop_requested()) std::this_thread::yield();
      server.Stop();
    });
    Result<JsonValue> reply = Status::Internal("connect failed");
    {
      Client client(server.port());
      if (client.connected()) reply = client.Call(Req("shutdown"));
    }
    server.RequestStop();  // frees the stopper if the request never landed
    stopper.join();
    ASSERT_TRUE(reply.ok()) << "handshake " << i << ": " << reply.status();
    ASSERT_TRUE(IsOk(reply.value())) << "handshake " << i;
  }
}

TEST(CaesardProtocol, NewlineJsonFramingIsEquivalent) {
  Daemon daemon({"--workers=1"});
  ASSERT_TRUE(daemon.valid());
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());

  auto registered =
      client.Call(RegisterReq("t1"), /*binary=*/false);
  ASSERT_TRUE(registered.ok() && IsOk(registered.value()));

  Reference ref = Reference::Build("t1", 1);
  ASSERT_NE(ref.engine, nullptr);
  const EventBatch stream = MakeStream(*ref.registry, 3, 40);
  EventBatch expected;
  ASSERT_TRUE(ref.engine->Run(stream, &expected).ok());

  const std::string rendered = StreamOverSocket(
      client, "t1", stream, 29, *ref.registry, /*binary=*/false);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(rendered, Render(expected, *ref.registry));
}

}  // namespace
}  // namespace caesar
