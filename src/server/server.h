// caesard's network core: a loopback/TCP listener hosting many tenant
// sessions (server/session.h) over one shared worker pool, speaking the
// wire protocol of server/wire.h + server/protocol.h.
//
// Concurrency model, chosen for determinism over raw socket throughput:
//
//   * one accept thread, one handler thread per connection;
//   * ONE global session lock — every request handler serializes on it.
//     This is what the shared ShardedExecutor
//     contract requires (two engines must never Execute at once), and
//     it makes multi-tenant interleavings linearizable: each tenant's
//     engine sees exactly the per-tenant event order the sockets carried.
//     Parallelism lives *inside* an engine's Run (the pool's workers),
//     not across tenants.
//   * no background drain: each request runs what it made runnable. An
//     ingest runs the tenant's complete ticks before it replies, flush and
//     teardown force everything through, and the derived events ride that
//     same reply. Nothing is buffered between requests but the pending
//     input, so a socket-fed tenant is byte-comparable to one batch
//     Engine::Run over the same rows.

#ifndef CAESAR_SERVER_SERVER_H_
#define CAESAR_SERVER_SERVER_H_

#include <atomic>
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

  // Width of the shared worker pool all tenant engines dispatch to.
  // 0 or 1 = serial engines, no pool.
  int executor_workers = 0;

  // Admission bounds. max_pending_events is the per-tenant default and
  // also the hard cap on what a register request may ask for.
  size_t max_tenants = 64;
  size_t max_pending_events = 1u << 16;

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

  // Binds, listens, and spawns the accept thread.
  Status Start();

  // Requests shutdown (also triggered by the wire "shutdown" command once
  // its reply is written); safe from any thread, returns immediately.
  void RequestStop() { stop_.store(true); }
  bool stop_requested() const { return stop_.load(); }

  // Tears everything down: unblocks the accept loop and every connection,
  // joins all threads, destroys sessions before the pool. Idempotent.
  void Stop();

  // Listening port (after Start; resolves an ephemeral bind).
  int port() const { return port_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  // Clears the fd slot so Stop never shuts down a recycled descriptor.
  void MarkConnectionDone(size_t slot);

  // Handles one raw payload: parse, shape-check, route. Never throws,
  // never crashes on hostile bytes — always returns a coded document.
  // Sets *shutdown on a wire "shutdown": the caller requests the stop only
  // after writing the reply, since Stop() shuts every connection down.
  JsonValue Handle(std::string_view payload, bool* shutdown);

  // Command handlers; called with the session lock AND the session
  // serial role held (enforced by the clang thread-safety analysis —
  // the CI lint job builds with -Wthread-safety).
  JsonValue HandleRegister(const JsonValue& request)
      CAESAR_REQUIRES(sessions_mutex_, TenantSession::serial_role);
  JsonValue HandleIngest(const JsonValue& request)
      CAESAR_REQUIRES(sessions_mutex_, TenantSession::serial_role);
  JsonValue HandleFlush(const JsonValue& request)
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

  std::mutex sessions_mutex_;
  std::map<std::string, std::unique_ptr<TenantSession>> sessions_
      CAESAR_GUARDED_BY(sessions_mutex_);

  int listen_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> stop_{false};
  std::mutex lifecycle_mutex_;
  bool stopped_ CAESAR_GUARDED_BY(lifecycle_mutex_) = false;  // Stop() ran

  std::thread accept_thread_;

  std::mutex conns_mutex_;
  std::vector<int> conn_fds_ CAESAR_GUARDED_BY(conns_mutex_);
  std::vector<std::thread> conn_threads_ CAESAR_GUARDED_BY(conns_mutex_);
};

}  // namespace caesar

#endif  // CAESAR_SERVER_SERVER_H_
