// caesard's network core: a loopback/TCP listener hosting many tenant
// sessions (server/session.h) over one shared worker pool, speaking the
// wire protocol of server/wire.h + server/protocol.h.
//
// Concurrency model, chosen for determinism over raw socket throughput:
//
//   * one accept thread, one handler thread per connection;
//   * ONE global session lock — every request handler and the background
//     drain loop serialize on it. This is what the shared ShardedExecutor
//     contract requires (two engines must never Execute at once), and
//     it makes multi-tenant interleavings linearizable: each tenant's
//     engine sees exactly the per-tenant event order the sockets carried.
//     Parallelism lives *inside* an engine's Run (the pool's workers),
//     not across tenants.
//   * deterministic mode: no background drain; complete ticks run
//     synchronously inside the ingest request and derived events ride the
//     ingest/flush responses, so a socket-fed tenant is byte-comparable to
//     one batch Engine::Run over the same rows.
//   * throughput mode (default): a drain thread runs buffered ticks every
//     drain_interval_ms; clients collect derived events with poll.

#ifndef CAESAR_SERVER_SERVER_H_
#define CAESAR_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "runtime/executor.h"
#include "server/session.h"
#include "server/wire.h"

namespace caesar {

struct ServerOptions {
  // Bind address. Loopback by default: caesard trusts its peers.
  std::string host = "127.0.0.1";
  // TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;

  // Deterministic mode (see file comment).
  bool deterministic = false;

  // Width of the shared worker pool all tenant engines dispatch to.
  // 0 or 1 = serial engines, no pool.
  int executor_workers = 0;

  // Admission bounds. max_pending_events is the per-tenant default and
  // also the hard cap on what a register request may ask for.
  size_t max_tenants = 64;
  size_t max_pending_events = 1u << 16;

  // Background drain cadence (throughput mode only).
  int drain_interval_ms = 20;

  // Transport cap on one message's payload bytes.
  uint32_t max_frame_bytes = kMaxWirePayload;

  Status Validate() const;
};

class CaesarServer {
 public:
  explicit CaesarServer(ServerOptions options);
  ~CaesarServer();

  CaesarServer(const CaesarServer&) = delete;
  CaesarServer& operator=(const CaesarServer&) = delete;

  // Binds, listens, and spawns the accept (and drain) threads.
  Status Start();

  // Requests shutdown (also triggered by the wire "shutdown" command);
  // safe from any thread, returns immediately.
  void RequestStop();
  bool stop_requested() const { return stop_.load(); }

  // Tears everything down: unblocks the accept loop and every connection,
  // joins all threads, destroys sessions before the pool. Idempotent.
  void Stop();

  // Blocks until RequestStop (wire shutdown or another thread), then
  // tears down via Stop().
  void Wait();

  // Listening port (after Start; resolves an ephemeral bind).
  int port() const { return port_; }

  size_t num_tenants() const;

  // Handles one already-parsed request document and returns the response
  // document. Public so tests can drive the protocol without a socket.
  JsonValue Handle(const JsonValue& request);

 private:
  void AcceptLoop();
  void DrainLoop();
  void ServeConnection(int fd);
  // Clears the fd slot so Stop never shuts down a recycled descriptor.
  void MarkConnectionDone(size_t slot);

  // Dispatches one raw payload: parse, shape-check, route. Never throws,
  // never crashes on hostile bytes — always returns a coded document.
  JsonValue DispatchPayload(std::string_view payload);

  // Command handlers; called with the session lock AND the session
  // serial role held (enforced by the clang thread-safety analysis —
  // the CI lint job builds with -Wthread-safety).
  JsonValue HandleRegister(const JsonValue& request)
      CAESAR_REQUIRES(sessions_mutex_, TenantSession::serial_role);
  JsonValue HandleIngest(const JsonValue& request)
      CAESAR_REQUIRES(sessions_mutex_, TenantSession::serial_role);
  JsonValue HandleFlush(const JsonValue& request)
      CAESAR_REQUIRES(sessions_mutex_, TenantSession::serial_role);
  JsonValue HandlePoll(const JsonValue& request)
      CAESAR_REQUIRES(sessions_mutex_, TenantSession::serial_role);
  JsonValue HandleStats(const JsonValue& request)
      CAESAR_REQUIRES(sessions_mutex_, TenantSession::serial_role);
  JsonValue HandleTeardown(const JsonValue& request)
      CAESAR_REQUIRES(sessions_mutex_, TenantSession::serial_role);
  JsonValue HandleList()
      CAESAR_REQUIRES(sessions_mutex_, TenantSession::serial_role);
  JsonValue HandlePing();

  // Looks up a session or returns null and fills *error with I421.
  TenantSession* FindTenant(const JsonValue& request, JsonValue* error)
      CAESAR_REQUIRES(sessions_mutex_);

  const ServerOptions options_;

  // Destroyed after sessions_ (declared first): engines borrow the pool.
  std::shared_ptr<ShardedExecutor> pool_;

  mutable std::mutex sessions_mutex_;
  std::map<std::string, std::unique_ptr<TenantSession>> sessions_
      CAESAR_GUARDED_BY(sessions_mutex_);

  int listen_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> stop_{false};
  std::mutex lifecycle_mutex_;
  bool stopped_ CAESAR_GUARDED_BY(lifecycle_mutex_) = false;  // Stop() ran
  std::condition_variable stop_cv_;

  std::thread accept_thread_;
  std::thread drain_thread_;
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::mutex conns_mutex_;
  std::vector<int> conn_fds_ CAESAR_GUARDED_BY(conns_mutex_);
  std::vector<std::thread> conn_threads_ CAESAR_GUARDED_BY(conns_mutex_);
};

}  // namespace caesar

#endif  // CAESAR_SERVER_SERVER_H_
