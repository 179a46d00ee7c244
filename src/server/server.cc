#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "server/protocol.h"

namespace caesar {
namespace {

// Tenant names end up in Prometheus labels, file-less logs, and map keys;
// keep them printable and bounded.
constexpr size_t kMaxTenantNameBytes = 128;

bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > kMaxTenantNameBytes) return false;
  for (char c : name) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) return false;
  }
  return true;
}

bool ParseIngestPolicyName(const std::string& name, IngestPolicy* out) {
  for (IngestPolicy policy : {IngestPolicy::kStrict, IngestPolicy::kDrop,
                              IngestPolicy::kReorder}) {
    if (name == IngestPolicyName(policy)) {
      *out = policy;
      return true;
    }
  }
  return false;
}

// Decodes the register request's "options" object into a SessionConfig.
// Strict: unknown keys and wrong kinds reject the whole registration, so a
// typo'd option never silently becomes a default.
Status ParseSessionConfig(const JsonValue* opts,
                          const ServerOptions& server_options,
                          SessionConfig* out) {
  out->max_pending_events = server_options.max_pending_events;
  EngineOptions& engine = out->engine;
  if (opts == nullptr) return Status::Ok();
  if (!opts->is_object()) {
    return Status::InvalidArgument("\"options\" must be an object");
  }
  for (const auto& [key, value] : opts->entries()) {
    if (key == "ingest") {
      if (!value.is_string() ||
          !ParseIngestPolicyName(value.string_value(), &engine.ingest_policy)) {
        return Status::InvalidArgument(
            "ingest must be \"strict\", \"drop\", or \"reorder\"");
      }
    } else if (key == "reorder_slack") {
      if (!value.is_int() || value.int_value() < 0) {
        return Status::InvalidArgument("reorder_slack must be an int >= 0");
      }
      engine.reorder_slack = value.int_value();
    } else if (key == "metrics") {
      if (!value.is_string() ||
          !ParseMetricsGranularity(value.string_value(), &engine.metrics)) {
        return Status::InvalidArgument(
            "metrics must be \"off\", \"engine\", or \"operator\"");
      }
    } else if (key == "gather_statistics") {
      if (!value.is_bool()) {
        return Status::InvalidArgument("gather_statistics must be a bool");
      }
      engine.gather_statistics = value.bool_value();
    } else if (key == "max_pending_events") {
      if (!value.is_int() || value.int_value() < 1 ||
          static_cast<size_t>(value.int_value()) >
              server_options.max_pending_events) {
        return Status::InvalidArgument(
            "max_pending_events must be in [1, " +
            std::to_string(server_options.max_pending_events) + "]");
      }
      out->max_pending_events = static_cast<size_t>(value.int_value());
    } else if (key == "push_down") {
      if (!value.is_bool()) {
        return Status::InvalidArgument("push_down must be a bool");
      }
      out->plan.push_down_context_windows = value.bool_value();
    } else if (key == "push_predicates") {
      if (!value.is_bool()) {
        return Status::InvalidArgument("push_predicates must be a bool");
      }
      out->plan.push_predicates_into_pattern = value.bool_value();
    } else if (key == "default_within") {
      if (!value.is_int() || value.int_value() < 1) {
        return Status::InvalidArgument("default_within must be an int >= 1");
      }
      out->plan.default_within = value.int_value();
    } else {
      return Status::InvalidArgument("unknown option \"" + key + "\"");
    }
  }
  return Status::Ok();
}

}  // namespace

Status ServerOptions::Validate() const {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535]");
  }
  if (host.empty()) return Status::InvalidArgument("host must be non-empty");
  if (executor_workers < 0) {
    return Status::InvalidArgument("executor_workers must be >= 0");
  }
  if (max_tenants < 1) {
    return Status::InvalidArgument("max_tenants must be >= 1");
  }
  if (max_pending_events < 1) {
    return Status::InvalidArgument("max_pending_events must be >= 1");
  }
  if (max_frame_bytes < 2 || max_frame_bytes > kMaxWirePayload) {
    return Status::InvalidArgument("max_frame_bytes must be in [2, " +
                                   std::to_string(kMaxWirePayload) + "]");
  }
  return Status::Ok();
}

CaesarServer::CaesarServer(ServerOptions options)
    : options_(std::move(options)) {}

CaesarServer::~CaesarServer() { Stop(); }

Status CaesarServer::Start() {
  CAESAR_RETURN_IF_ERROR(options_.Validate());

  if (options_.executor_workers > 1) {
    pool_ = std::make_shared<ShardedExecutor>(options_.executor_workers);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("unparseable IPv4 host \"" +
                                   options_.host + "\"");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::Internal(std::string("bind ") + options_.host +
                                     ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) != 0) {
    Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void CaesarServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  RequestStop();

  // shutdown() wakes the blocked accept(); the accept thread reads
  // listen_fd_, so it is closed and reset only after the join.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (int fd : conn_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }

  // Sessions (and their engines) go before the pool they borrow.
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions_.clear();
  }
  pool_.reset();
}

void CaesarServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (Stop) or fatal; either way we are done
    }
    if (stop_.load()) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conns_mutex_);
    const size_t slot = conn_fds_.size();
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, slot, fd] {
      ServeConnection(fd);
      // Deregister before close: once the number is back in the kernel's
      // pool, Stop must not shut it down.
      MarkConnectionDone(slot);
      ::close(fd);
    });
  }
}

void CaesarServer::MarkConnectionDone(size_t slot) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  conn_fds_[slot] = -1;
}

void CaesarServer::ServeConnection(int fd) {
  MessageReader reader(fd, options_.max_frame_bytes);
  std::string payload;
  for (;;) {
    bool binary = false;
    bool eof = false;
    Status status = reader.Next(&payload, &binary, &eof);
    if (!status.ok()) {
      // Torn/hostile framing: answer the coded error (best effort, both
      // framings readable by any client) and drop the connection — the
      // byte stream is no longer trustworthy.
      const std::string error =
          ErrorResponse("I423", status.message()).Dump();
      (void)WriteJsonLine(fd, error);
      break;
    }
    if (eof) break;
    bool shutdown = false;
    const std::string response = Handle(payload, &shutdown).Dump();
    status = binary ? WriteBinaryFrame(fd, response)
                    : WriteJsonLine(fd, response);
    // Only now: Stop() shuts this socket down too, so a stop requested
    // before the write could cut the shutdown reply off.
    if (shutdown) RequestStop();
    if (!status.ok() || stop_.load()) break;
  }
}

JsonValue CaesarServer::Handle(std::string_view payload, bool* shutdown) {
  Result<JsonValue> parsed = ParseJson(payload);
  if (!parsed.ok()) {
    return ErrorResponse("I423", parsed.status().message());
  }
  const JsonValue& request = parsed.value();
  if (!request.is_object()) {
    return ErrorResponse("I423", "request must be a JSON object");
  }
  const JsonValue* cmd_field = request.Find("cmd");
  if (cmd_field == nullptr || !cmd_field->is_string()) {
    return ErrorResponse("I423", "request needs a string \"cmd\" field");
  }
  ServerCmd cmd;
  if (!ParseServerCmd(cmd_field->string_value(), &cmd)) {
    return ErrorResponse("I423", "unknown cmd \"" +
                                     cmd_field->string_value() + "\"");
  }

  std::lock_guard<std::mutex> lock(sessions_mutex_);
  SessionSerialGuard role(TenantSession::serial_role);
  switch (cmd) {
    case ServerCmd::kPing:
      return HandlePing();
    case ServerCmd::kRegister:
      return HandleRegister(request);
    case ServerCmd::kIngest:
      return HandleIngest(request);
    case ServerCmd::kFlush:
      return HandleFlush(request);
    case ServerCmd::kStats:
      return HandleStats(request);
    case ServerCmd::kTeardown:
      return HandleTeardown(request);
    case ServerCmd::kList:
      return HandleList();
    case ServerCmd::kShutdown: {
      *shutdown = true;
      JsonValue response = OkResponse();
      response.Set("stopping", JsonValue::Bool(true));
      return response;
    }
  }
  return ErrorResponse("I423", "unroutable cmd");
}

TenantSession* CaesarServer::FindTenant(const JsonValue& request,
                                        JsonValue* error) {
  const JsonValue* tenant = request.Find("tenant");
  if (tenant == nullptr || !tenant->is_string()) {
    *error = ErrorResponse("I423", "request needs a string \"tenant\" field");
    return nullptr;
  }
  auto it = sessions_.find(tenant->string_value());
  if (it == sessions_.end()) {
    *error = ErrorResponse(
        "I421", "tenant \"" + tenant->string_value() + "\" is not registered");
    return nullptr;
  }
  return it->second.get();
}

JsonValue CaesarServer::HandleRegister(const JsonValue& request) {
  const JsonValue* tenant = request.Find("tenant");
  if (tenant == nullptr || !tenant->is_string() ||
      !ValidTenantName(tenant->string_value())) {
    return ErrorResponse("I423",
                         "register needs a printable \"tenant\" name (1-" +
                             std::to_string(kMaxTenantNameBytes) + " bytes)");
  }
  const std::string& name = tenant->string_value();
  if (sessions_.count(name) != 0) {
    return ErrorResponse("I422",
                         "tenant \"" + name + "\" is already registered");
  }
  if (sessions_.size() >= options_.max_tenants) {
    return ErrorResponse("I420", "tenant limit reached (" +
                                     std::to_string(options_.max_tenants) +
                                     ")");
  }
  const JsonValue* model = request.Find("model");
  if (model == nullptr || !model->is_string()) {
    return ErrorResponse("I423", "register needs a string \"model\" field");
  }

  SessionConfig config;
  config.engine.shared_executor = pool_;
  Status status =
      ParseSessionConfig(request.Find("options"), options_, &config);
  if (!status.ok()) return ErrorResponse("I423", status.message());

  Result<std::unique_ptr<TenantSession>> session =
      TenantSession::Create(name, model->string_value(), config);
  if (!session.ok()) {
    // Admission gate: strict parse or strict lint said no.
    return ErrorResponse("I424", session.status().message());
  }

  JsonValue response = OkResponse();
  response.Set("tenant", JsonValue::String(name));
  response.Set("workers",
               JsonValue::Int(pool_ != nullptr ? pool_->num_workers() : 1));
  sessions_.emplace(name, std::move(session).value());
  return response;
}

JsonValue CaesarServer::HandleIngest(const JsonValue& request) {
  JsonValue error;
  TenantSession* session = FindTenant(request, &error);
  if (session == nullptr) return error;

  const JsonValue* rows = request.Find("events");
  if (rows == nullptr || !rows->is_array()) {
    return ErrorResponse("I423", "ingest needs an \"events\" array");
  }
  EventBatch events;
  events.reserve(rows->items().size());
  for (size_t i = 0; i < rows->items().size(); ++i) {
    EventPtr event;
    Status status =
        DecodeEventRow(rows->items()[i], session->registry(), &event);
    if (!status.ok()) {
      return ErrorResponse("I423", "events[" + std::to_string(i) +
                                       "]: " + status.message());
    }
    events.push_back(std::move(event));
  }

  const size_t accepted = events.size();
  Status status = session->Ingest(std::move(events));
  if (!status.ok()) {
    // Backpressure: whole batch refused, nothing admitted, client may
    // retry after a flush has drained the buffer.
    JsonValue response =
        ErrorResponse("I420", status.message());
    response.Set("pending",
                 JsonValue::Int(static_cast<int64_t>(
                     session->pending_events())));
    response.Set("limit", JsonValue::Int(static_cast<int64_t>(
                              session->max_pending_events())));
    return response;
  }

  // Run the runnable prefix now and ship its derivations on this reply.
  EventBatch derived;
  status = session->Drain(/*flush=*/false, &derived);
  if (!status.ok()) return ErrorResponse("I423", status.message());
  JsonValue response = OkResponse();
  response.Set("accepted", JsonValue::Int(static_cast<int64_t>(accepted)));
  response.Set("derived", EncodeEventBatch(derived, session->registry()));
  response.Set("pending", JsonValue::Int(static_cast<int64_t>(
                              session->pending_events())));
  return response;
}

JsonValue CaesarServer::HandleFlush(const JsonValue& request) {
  JsonValue error;
  TenantSession* session = FindTenant(request, &error);
  if (session == nullptr) return error;

  EventBatch derived;
  Status status = session->Drain(/*flush=*/true, &derived);
  if (!status.ok()) return ErrorResponse("I423", status.message());
  JsonValue response = OkResponse();
  response.Set("derived", EncodeEventBatch(derived, session->registry()));
  return response;
}

JsonValue CaesarServer::HandleStats(const JsonValue& request) {
  JsonValue error;
  TenantSession* session = FindTenant(request, &error);
  if (session == nullptr) return error;

  bool prometheus = false;
  if (const JsonValue* format = request.Find("format")) {
    if (!format->is_string() || (format->string_value() != "json" &&
                                 format->string_value() != "prometheus")) {
      return ErrorResponse("I423",
                           "format must be \"json\" or \"prometheus\"");
    }
    prometheus = format->string_value() == "prometheus";
  }
  bool deterministic = false;
  if (const JsonValue* det = request.Find("deterministic")) {
    if (!det->is_bool()) {
      return ErrorResponse("I423", "deterministic must be a bool");
    }
    deterministic = det->bool_value();
  }

  JsonValue response = OkResponse();
  response.Set("format",
               JsonValue::String(prometheus ? "prometheus" : "json"));
  response.Set("stats",
               JsonValue::String(session->ExportStats(prometheus,
                                                      deterministic)));
  return response;
}

JsonValue CaesarServer::HandleTeardown(const JsonValue& request) {
  JsonValue error;
  TenantSession* session = FindTenant(request, &error);
  if (session == nullptr) return error;

  // The session leaves the map whatever the final drain says: teardown
  // must always free the name and the engine.
  std::unique_ptr<TenantSession> owned = std::move(sessions_[session->name()]);
  sessions_.erase(owned->name());

  EventBatch derived;
  Status status = owned->Drain(/*flush=*/true, &derived);
  if (!status.ok()) {
    JsonValue response = ErrorResponse("I423", status.message());
    response.Set("removed", JsonValue::Bool(true));
    return response;
  }
  JsonValue response = OkResponse();
  response.Set("derived", EncodeEventBatch(derived, owned->registry()));
  return response;
}

JsonValue CaesarServer::HandleList() {
  JsonValue tenants = JsonValue::Array();
  for (const auto& [name, session] : sessions_) {
    JsonValue row = JsonValue::Object();
    row.Set("tenant", JsonValue::String(name));
    row.Set("pending", JsonValue::Int(static_cast<int64_t>(
                           session->pending_events())));
    row.Set("accepted", JsonValue::Int(session->total_accepted()));
    tenants.Append(std::move(row));
  }
  JsonValue response = OkResponse();
  response.Set("tenants", std::move(tenants));
  return response;
}

JsonValue CaesarServer::HandlePing() {
  JsonValue response = OkResponse();
  response.Set("protocol", JsonValue::Int(kServerProtocolVersion));
  response.Set("workers",
               JsonValue::Int(pool_ != nullptr ? pool_->num_workers() : 1));
  response.Set("tenants",
               JsonValue::Int(static_cast<int64_t>(sessions_.size())));
  return response;
}

}  // namespace caesar
