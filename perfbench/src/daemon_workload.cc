// caesard-2tenant: the daemon in its own process on loopback, two tenants,
// one client thread and one binary-framed connection per tenant. Tenant
// "traffic" runs examples/models/traffic.caesar on Linear Road rows
// projected onto that model's PositionReport; tenant "activity" runs
// examples/models/activity.caesar on PAM rows. Per tick each client sends
// one ingest and then one flush, and the next tick only after the flush
// reply is back (closed loop).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/analyzer.h"
#include "plan/translator.h"
#include "query/parser.h"
#include "runtime/engine.h"
#include "server/protocol.h"
#include "server/wire.h"
#include "workloads.h"
#include "workloads/linear_road.h"
#include "workloads/pamap.h"

extern char** environ;

namespace caesar {
namespace perfbench {
namespace {

constexpr Timestamp kPassTicks = 1800;
constexpr Timestamp kPrefixTicks = 600;
constexpr int kBoots = 9;
constexpr int kSetupReps = 9;
// Time stamp written into the request templates and replaced per tick; no
// generated value has this many digits.
constexpr Timestamp kTimeSentinel = 987654321012;

// A caesard child process on an ephemeral loopback port.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& port_file) {
    std::filesystem::remove(port_file);
    std::vector<std::string> args = {binary, "--deterministic",
                                     "--port-file=" + port_file};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // The daemon's stdout must not interleave with the result line.
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    if (posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(),
                    environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
    // The port file is written once listen(2) succeeded.
    const int64_t give_up = NowNs() + 30'000'000'000LL;
    while (pid_ > 0 && port_ <= 0 && NowNs() < give_up) {
      std::ifstream in(port_file);
      int port = -1;
      if (in >> port && port > 0) {
        port_ = port;
        break;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;  // exited during boot
        break;
      }
      usleep(100);
    }
    std::filesystem::remove(port_file);
  }

  ~Daemon() { Stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool valid() const { return pid_ > 0 && port_ > 0; }
  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  // SIGTERM and wait: caesard exits 0 on a clean shutdown.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
};

// One protocol connection, binary framing.
class Client {
 public:
  explicit Client(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval timeout = {60, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
    }
    reader_ = std::make_unique<MessageReader>(fd_);
  }
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  // Sends one request and parses the reply document.
  Result<JsonValue> Call(std::string_view payload) {
    Status status = WriteBinaryFrame(fd_, payload);
    if (!status.ok()) return status;
    std::string reply;
    bool binary = false;
    bool eof = false;
    status = reader_->Next(&reply, &binary, &eof);
    if (!status.ok()) return status;
    if (eof) return Status::DataLoss("connection closed before reply");
    return ParseJson(reply);
  }

 private:
  int fd_ = -1;
  std::unique_ptr<MessageReader> reader_;
};

bool IsOk(const Result<JsonValue>& reply) {
  if (!reply.ok()) return false;
  const JsonValue* ok = reply.value().Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value();
}

JsonValue Request(const char* cmd, const std::string& tenant) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String(cmd));
  request.Set("tenant", JsonValue::String(tenant));
  return request;
}

// One tick's ingest request, split around the time stamps it carries.
struct TickTemplate {
  Timestamp tick = 0;
  int64_t events = 0;
  std::vector<std::string> pieces;

  std::string Fill(Timestamp time) const {
    const std::string stamp = std::to_string(time);
    std::string out = pieces[0];
    for (size_t i = 1; i < pieces.size(); ++i) out += stamp + pieces[i];
    return out;
  }
};

// One tenant: its model (parsed in-process too, for encoding, decoding and
// the oracle) and one pass of input.
struct Tenant {
  std::string name;
  std::string model_text;
  std::unique_ptr<TypeRegistry> registry = std::make_unique<TypeRegistry>();
  std::optional<CaesarModel> model;
  EventBatch base;
  std::vector<Unit> ticks;
  std::vector<TickTemplate> templates;
  std::string flush_request;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return true;
}

// Re-types generated rows onto the tenant model's input type, keeping the
// value columns listed in `columns`.
EventBatch Project(const EventBatch& rows, TypeId type,
                   const std::vector<int>& columns) {
  EventBatch out;
  out.reserve(rows.size());
  for (const EventPtr& row : rows) {
    std::vector<Value> values;
    for (int column : columns) values.push_back(row->value(column));
    out.push_back(MakeEvent(type, row->time(), std::move(values)));
  }
  return out;
}

bool BuildTemplates(Tenant* tenant) {
  tenant->ticks = SliceUnits(tenant->base, 1, 0);
  const std::string sentinel = std::to_string(kTimeSentinel);
  for (const Unit& unit : tenant->ticks) {
    JsonValue rows = JsonValue::Array();
    for (const EventPtr& event : unit.events) {
      rows.Append(EncodeEventRow(
          Event(event->type_id(), kTimeSentinel, event->values()),
          *tenant->registry));
    }
    JsonValue request = Request("ingest", tenant->name);
    request.Set("events", std::move(rows));
    const std::string text = request.Dump();
    TickTemplate tick;
    tick.tick = unit.first_tick;
    tick.events = static_cast<int64_t>(unit.events.size());
    size_t at = 0;
    for (size_t hit; (hit = text.find(sentinel, at)) != std::string::npos;
         at = hit + sentinel.size()) {
      tick.pieces.push_back(text.substr(at, hit - at));
    }
    tick.pieces.push_back(text.substr(at));
    if (static_cast<int64_t>(tick.pieces.size()) != tick.events + 1) {
      return false;
    }
    tenant->templates.push_back(std::move(tick));
  }
  tenant->flush_request = Request("flush", tenant->name).Dump();
  return true;
}

bool MakeTenants(const BenchConfig& config, Tenant* traffic,
                 Tenant* activity) {
  traffic->name = "traffic";
  activity->name = "activity";
  if (!ReadFile(config.root + "/examples/models/traffic.caesar",
                &traffic->model_text) ||
      !ReadFile(config.root + "/examples/models/activity.caesar",
                &activity->model_text)) {
    std::fprintf(stderr, "perfbench: examples/models/*.caesar not found\n");
    return false;
  }
  for (Tenant* tenant : {traffic, activity}) {
    auto model = ParseModel(tenant->model_text, tenant->registry.get());
    if (!model.ok()) {
      std::fprintf(stderr, "perfbench: %s model: %s\n", tenant->name.c_str(),
                   model.status().ToString().c_str());
      return false;
    }
    tenant->model.emplace(std::move(model).value());
  }

  TypeRegistry generated;
  LinearRoadConfig lr;
  lr.num_xways = 6;
  lr.num_segments = 12;
  lr.duration = kPassTicks;
  lr.seed = config.seed;
  // LR columns vid, speed, xway, lane, dir, seg, pos, sec onto the model's
  // PositionReport(vid, speed, xway, seg, sec).
  traffic->base = Project(GenerateLinearRoadStream(lr, &generated),
                          traffic->registry->Lookup("PositionReport"),
                          {0, 1, 2, 5, 7});
  PamapConfig pam;
  pam.num_subjects = 200;
  pam.duration = kPassTicks;
  pam.exercise_phases_per_subject =
      3.0 * static_cast<double>(kPassTicks) / 4500.0;
  pam.seed = config.seed;
  activity->base = Project(GeneratePamapStream(pam, &generated),
                           activity->registry->Lookup("ActivityReport"),
                           {0, 1, 2, 3});
  return BuildTemplates(traffic) && BuildTemplates(activity);
}

JsonValue RegisterRequest(const Tenant& tenant) {
  JsonValue request = Request("register", tenant.name);
  request.Set("model", JsonValue::String(tenant.model_text));
  return request;
}

// Client-side record of one tenant's closed loop.
struct Loop {
  Loop(bool trace, int thread, const Tenant& tenant)
      : tick_ms(tenant.templates.size()), spans(trace, thread) {}

  int64_t next_pass = 0;  // sections continue where the last one stopped
  int64_t events = 0;
  std::atomic<int64_t> events_done{0};  // read by the CPU sampler
  int64_t derived = 0;
  int64_t requests = 0;
  int64_t failed = 0;
  int64_t request_bytes = 0;
  int64_t rtt_ns = 0;
  std::vector<std::vector<double>> tick_ms;  // [tick of the pass][pass]
  std::vector<double> ingest_ms;
  std::vector<double> flush_ms;
  std::vector<JsonValue> prefix_rows;  // derived rows of the checked prefix
  SpanLog spans;
};

void TakeDerived(Result<JsonValue>& reply, bool keep, Loop* loop) {
  if (!reply.ok()) return;
  const JsonValue* rows = reply.value().Find("derived");
  if (rows == nullptr || !rows->is_array()) return;
  loop->derived += static_cast<int64_t>(rows->items().size());
  if (keep) loop->prefix_rows.push_back(*rows);
}

void RunLoop(Client* client, const Tenant& tenant, int64_t deadline_ns,
             Loop* loop) {
  for (int64_t pass = loop->next_pass;; ++pass) {
    loop->next_pass = pass + 1;
    const Timestamp offset = pass * kPassTicks;
    for (size_t i = 0; i < tenant.templates.size(); ++i) {
      const TickTemplate& tick = tenant.templates[i];
      const Timestamp time = tick.tick + offset;
      const std::string ingest = tick.Fill(time);
      const int32_t span = loop->spans.Begin("client.tick", time);
      const int64_t start = NowNs();
      Result<JsonValue> ingested = client->Call(ingest);
      const int64_t sent = NowNs();
      Result<JsonValue> flushed = client->Call(tenant.flush_request);
      const int64_t done = NowNs();
      loop->spans.Add("server.ingest", time, start, sent - start, span);
      loop->spans.Add("server.flush", time, sent, done - sent, span);
      loop->spans.End(span);
      loop->requests += 2;
      loop->events += tick.events;
      loop->events_done.store(loop->events, std::memory_order_relaxed);
      loop->request_bytes += static_cast<int64_t>(ingest.size());
      loop->rtt_ns += done - start;
      loop->tick_ms[i].push_back(NsToMillis(done - start));
      loop->ingest_ms.push_back(NsToMillis(sent - start));
      loop->flush_ms.push_back(NsToMillis(done - sent));
      const bool ok_ingest = IsOk(ingested);
      const bool ok_flush = IsOk(flushed);
      loop->failed += (ok_ingest ? 0 : 1) + (ok_flush ? 0 : 1);
      if (!ingested.ok() || !flushed.ok()) return;  // connection is gone
      const bool keep = pass == 0 && tick.tick < kPrefixTicks;
      TakeDerived(ingested, keep, loop);
      TakeDerived(flushed, keep, loop);
      // The oracle-checked prefix is always completed.
      if (done >= deadline_ns && !keep) return;
    }
  }
}

struct DaemonSection {
  int64_t wall_ns = 0;
  // Daemon CPU per event over each second of the section.
  std::vector<double> window_cpu_us_per_event;
};

// Both clients run concurrently until `seconds` have passed, while this
// thread samples the daemon's CPU once a second.
DaemonSection RunDaemonSection(const Daemon& daemon, Client* clients[2],
                               const Tenant* tenants[2], Loop* loops[2],
                               double seconds) {
  DaemonSection section;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::atomic<int> running{2};
  auto client = [&](int t) {
    RunLoop(clients[t], *tenants[t], deadline, loops[t]);
    running.fetch_sub(1);
  };
  std::thread first(client, 0);
  std::thread second(client, 1);
  auto progress = [&] {
    return loops[0]->events_done.load(std::memory_order_relaxed) +
           loops[1]->events_done.load(std::memory_order_relaxed);
  };
  double cpu = ChildCpuSeconds(daemon.pid());
  int64_t events = progress();
  int64_t window_end = NowNs() + 1'000'000'000;
  while (running.load() > 0) {
    usleep(10'000);
    if (NowNs() < window_end) continue;
    window_end += 1'000'000'000;
    const double cpu_now = ChildCpuSeconds(daemon.pid());
    const int64_t events_now = progress();
    if (events_now > events && running.load() == 2) {
      section.window_cpu_us_per_event.push_back(
          PerEvent((cpu_now - cpu) * 1e6, events_now - events));
    }
    cpu = cpu_now;
    events = events_now;
  }
  first.join();
  second.join();
  section.wall_ns = NowNs() - start;
  return section;
}

// The end-to-end figures of a section. Each tenant replays the same ticks
// in every pass, so each tick's round trip is timed once per pass; the
// figures use kRepeatQuantile of those repeats and of the per-second CPU
// windows.
struct Estimate {
  double events_per_s = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double cpu_us_per_event = 0;
};

Estimate Estimated(const DaemonSection& section, const Tenant* tenants[2],
                   Loop* loops[2]) {
  Estimate estimate;
  std::vector<double> tick_ms;
  for (int t = 0; t < 2; ++t) {
    double pass_ms = 0;
    int64_t events = 0;
    for (size_t i = 0; i < loops[t]->tick_ms.size(); ++i) {
      if (loops[t]->tick_ms[i].empty()) continue;
      tick_ms.push_back(Quantile(loops[t]->tick_ms[i], kRepeatQuantile));
      pass_ms += tick_ms.back();
      events += tenants[t]->templates[i].events;
    }
    // The tenants run side by side: their rates add up.
    if (pass_ms > 0) estimate.events_per_s += events / (pass_ms * 1e-3);
  }
  estimate.latency_p50_ms = Quantile(tick_ms, 0.50);
  estimate.latency_p99_ms = Quantile(tick_ms, 0.99);
  estimate.cpu_us_per_event =
      Quantile(section.window_cpu_us_per_event, kRepeatQuantile);
  return estimate;
}

// The daemon's engine seconds for `tenant` (scheduler + ingest + GC sums
// from the Prometheus form of the tenant stats reply); -1 on failure.
double EngineSeconds(Client* client, const Tenant& tenant) {
  JsonValue request = Request("stats", tenant.name);
  request.Set("format", JsonValue::String("prometheus"));
  Result<JsonValue> reply = client->Call(request.Dump());
  if (!IsOk(reply)) return -1.0;
  const JsonValue* stats = reply.value().Find("stats");
  if (stats == nullptr || !stats->is_string()) return -1.0;
  std::istringstream lines(stats->string_value());
  double total = 0;
  for (std::string line; std::getline(lines, line);) {
    for (const char* name :
         {"caesar_scheduler_seconds_sum", "caesar_ingest_seconds_sum",
          "caesar_gc_pause_seconds_sum"}) {
      if (line.rfind(name, 0) == 0) {
        total += std::stod(line.substr(line.rfind(' ') + 1));
      }
    }
  }
  return total;
}

void Tally(const Loop& loop, Report* report) {
  report->attempted += loop.requests;
  report->failed += loop.failed;
}

// The oracle gate: decodes the kept derived rows and holds them against
// the oracle; a mismatch counts as a failed operation.
void Check(const Loop& loop, const Tenant& tenant, Report* report) {
  ++report->attempted;
  EventBatch derived;
  bool decoded = true;
  for (const JsonValue& rows : loop.prefix_rows) {
    for (const JsonValue& row : rows.items()) {
      EventPtr event;
      decoded = decoded && DecodeEventRow(row, *tenant.registry, &event).ok();
      derived.push_back(std::move(event));
    }
  }
  std::string detail = "undecodable derived row";
  if (decoded && MatchesOracle(*tenant.model,
                               PrefixOf(tenant.base, kPrefixTicks), derived,
                               &detail)) {
    return;
  }
  ++report->failed;
  report->correct = false;
  std::fprintf(stderr, "perfbench: tenant %s differs from the oracle on the "
               "first %lld ticks: %s\n",
               tenant.name.c_str(), static_cast<long long>(kPrefixTicks),
               detail.c_str());
}

// Setup split on the tenant models, in-process: the steps a register
// request runs inside the daemon.
void ProbeSetup(const Tenant* tenants[2], Report* report) {
  std::vector<double> parse_ms, lint_ms, plan_ms, create_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double parse = 0, lint = 0, plan = 0, create = 0;
    for (int t = 0; t < 2; ++t) {
      TypeRegistry registry;
      int64_t start = NowNs();
      auto model = ParseModel(tenants[t]->model_text, &registry);
      parse += NsToMillis(NowNs() - start);
      if (!model.ok()) return;
      start = NowNs();
      AnalyzeModel(model.value());
      lint += NsToMillis(NowNs() - start);
      start = NowNs();
      auto translated = TranslateModel(model.value(), PlanOptions{});
      plan += NsToMillis(NowNs() - start);
      if (!translated.ok()) return;
      start = NowNs();
      auto engine = Engine::Create(std::move(translated).value(), {});
      create += NsToMillis(NowNs() - start);
    }
    parse_ms.push_back(parse);
    lint_ms.push_back(lint);
    plan_ms.push_back(plan);
    create_ms.push_back(create);
  }
  report->Layer("query.parse_ms", Median(parse_ms), "ms");
  report->Layer("analysis.lint_ms", Median(lint_ms), "ms");
  report->Layer("optimizer.plan_ms", Median(plan_ms), "ms");
  report->Layer("runtime.create_ms", Median(create_ms), "ms");
}

// The same rows and tick split through Engine::Run in this process, with
// the engines configured like caesard tenants. Returns events per second
// and fills the runtime and algebra metrics.
double RunInProcess(const Tenant* tenants[2], Report* report) {
  RunStats totals;
  StatisticsReport merged;
  int64_t events = 0;
  int64_t run_ns = 0;
  int64_t partitions = 0;
  for (int t = 0; t < 2; ++t) {
    EngineOptions options;
    options.tenant = tenants[t]->name;
    options.metrics = MetricsGranularity::kEngine;
    options.gather_statistics = true;
    options.analysis = AnalysisMode::kStrict;
    auto engine = Engine::Create(*tenants[t]->model, PlanOptions{}, options);
    if (!engine.ok()) return 0.0;
    EventBatch out;
    for (const Unit& unit : tenants[t]->ticks) {
      out.clear();
      const int64_t start = NowNs();
      Result<RunStats> stats = engine.value()->Run(unit.events, &out);
      run_ns += NowNs() - start;
      if (!stats.ok()) return 0.0;
      events += static_cast<int64_t>(unit.events.size());
      AccumulateRunStats(stats.value(), &totals);
    }
    partitions += totals.partitions;
    const StatisticsReport stats = engine.value()->CollectStatistics();
    merged.operators.insert(merged.operators.end(), stats.operators.begin(),
                            stats.operators.end());
    merged.ticks.Merge(stats.ticks);
  }
  totals.partitions = partitions;
  ReportRuntimeMetrics(events, NsToSeconds(run_ns), totals, merged, report);
  ReportOperatorMetrics(merged, events, report);
  return events / NsToSeconds(run_ns);
}

// Standalone wire codec probe on the workload's own rows: what the daemon
// does per ingest (ParseJson + DecodeEventRow) and per reply
// (EncodeEventBatch + Dump). Returns the codec seconds per event.
double ProbeWire(const Tenant* tenants[2], Report* report) {
  int64_t events = 0;
  int64_t decode_ns = 0;
  int64_t encode_ns = 0;
  for (int t = 0; t < 2; ++t) {
    const Tenant& tenant = *tenants[t];
    for (size_t i = 0; i < tenant.templates.size(); ++i) {
      const std::string payload =
          tenant.templates[i].Fill(tenant.templates[i].tick);
      int64_t start = NowNs();
      Result<JsonValue> request = ParseJson(payload);
      if (!request.ok()) return 0.0;
      EventBatch decoded;
      for (const JsonValue& row : request.value().Find("events")->items()) {
        EventPtr event;
        if (!DecodeEventRow(row, *tenant.registry, &event).ok()) return 0.0;
        decoded.push_back(std::move(event));
      }
      decode_ns += NowNs() - start;
      start = NowNs();
      const std::string encoded =
          EncodeEventBatch(tenant.ticks[i].events, *tenant.registry).Dump();
      encode_ns += NowNs() - start;
      events += static_cast<int64_t>(decoded.size());
      if (encoded.empty()) return 0.0;
    }
  }
  report->Layer("server.wire.decode_us_per_kevent",
                PerEvent(static_cast<double>(decode_ns), events), "us");
  report->Layer("server.wire.encode_us_per_kevent",
                PerEvent(static_cast<double>(encode_ns), events), "us");
  return PerEvent(NsToSeconds(decode_ns + encode_ns), events);
}

std::vector<double> Concat(const std::vector<double>& a,
                           const std::vector<double>& b) {
  std::vector<double> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

int RunDaemonWorkload(const BenchConfig& config, Report* report) {
  if (config.caesard.empty()) {
    std::fprintf(stderr, "perfbench: --caesard=PATH is required\n");
    return 2;
  }
  Tenant traffic, activity;
  if (!MakeTenants(config, &traffic, &activity)) return 1;
  const Tenant* tenants[2] = {&traffic, &activity};
  const std::string register_requests[2] = {RegisterRequest(traffic).Dump(),
                                            RegisterRequest(activity).Dump()};

  // Setup: boot to both register replies, several times; the last daemon
  // serves the timed sections.
  std::vector<double> setup_s, register_ms;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Client> clients[2];
  for (int boot = 0; boot < kBoots; ++boot) {
    clients[0].reset();
    clients[1].reset();
    daemon.reset();
    const std::string port_file = config.out_dir + "/caesard-port-" +
                                  std::to_string(getpid());
    const int64_t start = NowNs();
    daemon = std::make_unique<Daemon>(config.caesard, port_file);
    if (!daemon->valid()) {
      std::fprintf(stderr, "perfbench: caesard did not start\n");
      return 1;
    }
    double registering = 0;
    for (int t = 0; t < 2; ++t) {
      clients[t] = std::make_unique<Client>(daemon->port());
      const int64_t sent = NowNs();
      Result<JsonValue> reply =
          clients[t]->connected() ? clients[t]->Call(register_requests[t])
                                  : Result<JsonValue>(Status::Internal(""));
      registering += NsToMillis(NowNs() - sent);
      if (!IsOk(reply)) {
        std::fprintf(stderr, "perfbench: register %s failed\n",
                     tenants[t]->name.c_str());
        return 1;
      }
    }
    setup_s.push_back(NsToSeconds(NowNs() - start));
    register_ms.push_back(registering);
  }

  Client* raw_clients[2] = {clients[0].get(), clients[1].get()};
  // Warm-up: an untimed first stretch, so the daemon's heap growth and the
  // first-touch page faults stay out of the timed section.
  Loop warm_traffic(false, 0, traffic), warm_activity(false, 1, activity);
  Loop* warm_loops[2] = {&warm_traffic, &warm_activity};
  RunDaemonSection(*daemon, raw_clients, tenants, warm_loops, 1.0);
  Tally(warm_traffic, report);
  Tally(warm_activity, report);
  Check(warm_traffic, traffic, report);
  Check(warm_activity, activity, report);

  Loop traffic_loop(false, 0, traffic), activity_loop(false, 1, activity);
  traffic_loop.next_pass = warm_traffic.next_pass;
  activity_loop.next_pass = warm_activity.next_pass;
  Loop* loops[2] = {&traffic_loop, &activity_loop};
  const double share = config.trace ? 0.5 : 1.0;
  const DaemonSection main = RunDaemonSection(*daemon, raw_clients, tenants,
                                              loops, config.seconds * share);
  const double mem_mib = StatusMiB(daemon->pid(), "VmHWM");
  Tally(traffic_loop, report);
  Tally(activity_loop, report);

  const int64_t events = traffic_loop.events + activity_loop.events;
  const double events_per_s = events / NsToSeconds(main.wall_ns);
  const Estimate estimate = Estimated(main, tenants, loops);
  report->E2e("events_per_s", estimate.events_per_s, "1/s");
  report->E2e("latency_p50_ms", estimate.latency_p50_ms, "ms");
  report->E2e("latency_p99_ms", estimate.latency_p99_ms, "ms");
  report->E2e("setup_s", Median(setup_s), "s");
  report->E2e("mem_peak_mb", mem_mib, "MB");
  report->E2e("cpu_us_per_event", estimate.cpu_us_per_event, "us/event");
  std::fprintf(stderr, "perfbench: caesard-2tenant: %lld requests, %lld "
               "events, %.3f s timed (%.0f events/s overall), %lld derived\n",
               static_cast<long long>(traffic_loop.requests +
                                      activity_loop.requests),
               static_cast<long long>(events), NsToSeconds(main.wall_ns),
               events_per_s,
               static_cast<long long>(traffic_loop.derived +
                                      activity_loop.derived));

  if (config.trace) {
    Loop traced_traffic(true, 0, traffic), traced_activity(true, 1, activity);
    traced_traffic.next_pass = traffic_loop.next_pass;
    traced_activity.next_pass = activity_loop.next_pass;
    Loop* traced_loops[2] = {&traced_traffic, &traced_activity};
    double engine_before = 0;
    for (int t = 0; t < 2; ++t) {
      engine_before += EngineSeconds(raw_clients[t], *tenants[t]);
    }
    const DaemonSection traced = RunDaemonSection(
        *daemon, raw_clients, tenants, traced_loops, config.seconds * share);
    double engine_after = 0;
    for (int t = 0; t < 2; ++t) {
      engine_after += EngineSeconds(raw_clients[t], *tenants[t]);
    }
    Tally(traced_traffic, report);
    Tally(traced_activity, report);
    const int64_t traced_events =
        traced_traffic.events + traced_activity.events;
    const double rtt_s =
        NsToSeconds(traced_traffic.rtt_ns + traced_activity.rtt_ns);
    const double engine_s = engine_after - engine_before;

    ProbeSetup(tenants, report);
    report->Layer("server.register_ms", Median(register_ms), "ms");
    const double library_events_per_s = RunInProcess(tenants, report);
    report->Layer("server.ingest_rtt_ms_p50",
                  Median(Concat(traced_traffic.ingest_ms,
                                traced_activity.ingest_ms)),
                  "ms");
    report->Layer("server.flush_rtt_ms_p50",
                  Median(Concat(traced_traffic.flush_ms,
                                traced_activity.flush_ms)),
                  "ms");
    report->Layer("server.engine_share", rtt_s > 0 ? engine_s / rtt_s : 0.0,
                  "ratio");
    const double codec_s_per_event = ProbeWire(tenants, report);
    report->Layer(
        "server.wire.request_bytes_per_event",
        PerEvent(static_cast<double>(traffic_loop.request_bytes +
                                     activity_loop.request_bytes),
                 events),
        "bytes/event");
    report->Layer("server.vs_library",
                  library_events_per_s > 0
                      ? events_per_s / library_events_per_s
                      : 0.0,
                  "ratio");
    report->Layer("trace.overhead_share",
                  1.0 - Estimated(traced, tenants, traced_loops).events_per_s /
                            estimate.events_per_s,
                  "ratio");
    // Round-trip time neither the engines nor the wire codec account for:
    // sockets, framing, session buffering and the session lock.
    const double codec_s =
        codec_s_per_event * static_cast<double>(traced_events);
    report->Layer("trace.unaccounted_share",
                  rtt_s > 0 ? 1.0 - (engine_s + codec_s) / rtt_s : 0.0,
                  "ratio");

    SpanLog spans(true);
    spans.Merge(traced_traffic.spans);
    spans.Merge(traced_activity.spans);
    const std::string trace_path = config.out_dir + "/trace-" +
                                   config.workload + "-" +
                                   std::to_string(config.seed) + ".json";
    if (!spans.WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    }
  }
  clients[0].reset();
  clients[1].reset();
  daemon->Stop();
  return 0;
}

}  // namespace perfbench
}  // namespace caesar
