// One tenant hosted by caesard: an Engine (over the server's shared worker
// pool), its model's TypeRegistry, and the one buffer that adapts socket
// push to the engine's batch Run —
//
//   pending_  events accepted off the wire but not yet run. Drain runs
//             the prefix the engine's watermark says is complete
//             (Engine::RunnablePrefix): nothing admissible that is still
//             pending or may still arrive can sort before its newest
//             event, so the tenant's Runs concatenate to exactly one Run
//             over the same arrivals — under every ingest policy. A
//             reorder tenant's derivations therefore arrive up to
//             reorder_slack ticks later than a strict tenant's.
//
// Derived events are not buffered: Drain hands them to the request that
// ran them, which ships them on its reply.
//
// Sessions are not thread-safe; the server serializes access (one global
// session lock), which also honors the shared-executor contract that two
// engines never dispatch to the pool concurrently.

#ifndef CAESAR_SERVER_SESSION_H_
#define CAESAR_SERVER_SESSION_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "event/event.h"
#include "event/schema.h"
#include "plan/translator.h"
#include "runtime/engine.h"

namespace caesar {

// The serialization contract above, made checkable: a phantom capability
// (the clang thread-safety "role" idiom — no runtime state, no blocking)
// standing for "the right to touch a session's buffer". The server
// acquires it together with its global session lock; TenantSession's
// buffer-touching methods require it, so a future code path that reaches
// a session without the lock fails the -Wthread-safety CI build instead
// of racing at runtime.
class CAESAR_CAPABILITY("role") SessionSerialRole {
 public:
  void Acquire() CAESAR_ACQUIRE() {}
  void Release() CAESAR_RELEASE() {}
};

// RAII role acquisition; compiles to nothing, exists for the analysis.
class CAESAR_SCOPED_CAPABILITY SessionSerialGuard {
 public:
  explicit SessionSerialGuard(SessionSerialRole& role) CAESAR_ACQUIRE(role)
      : role_(role) {
    role_.Acquire();
  }
  ~SessionSerialGuard() CAESAR_RELEASE() { role_.Release(); }

  SessionSerialGuard(const SessionSerialGuard&) = delete;
  SessionSerialGuard& operator=(const SessionSerialGuard&) = delete;

 private:
  SessionSerialRole& role_;
};

// Per-tenant knobs, decoded from the register request's "options" object
// (server/protocol.h).
struct SessionConfig {
  // The tenant's engine defaults: engine-level metrics and statistics on,
  // so `stats` has something to report.
  SessionConfig() {
    engine.metrics = MetricsGranularity::kEngine;
    engine.gather_statistics = true;
  }

  // The tenant's engine, including the worker pool it dispatches to (the
  // server's shared pool; null = the engine owns a one-participant pool).
  // TenantSession::Create sets tenant, num_threads and analysis itself.
  EngineOptions engine;
  PlanOptions plan;

  // Backpressure bound: an ingest that would push pending_ beyond this
  // many events is rejected whole with I420 (no partial admission, no
  // silent drops).
  size_t max_pending_events = 1u << 16;
};

// A registered tenant. Construction is the admission gate: the model must
// survive the strict parse AND the strict analyzer (caesar-lint's gate,
// AnalysisMode::kStrict) before an engine exists.
class TenantSession {
 public:
  static Result<std::unique_ptr<TenantSession>> Create(
      const std::string& name, std::string_view model_text,
      const SessionConfig& config);

  const std::string& name() const { return name_; }
  const TypeRegistry& registry() const { return *registry_; }

  // Every tenant shares one role: the server's single session lock
  // serializes ALL sessions at once, so one capability is the honest
  // model (a per-session role would claim finer locking than exists).
  static SessionSerialRole serial_role;

  size_t pending_events() const CAESAR_REQUIRES(serial_role) {
    return pending_.size();
  }
  size_t max_pending_events() const { return max_pending_events_; }
  int64_t total_accepted() const CAESAR_REQUIRES(serial_role) {
    return total_accepted_;
  }

  // Appends to pending_, whole batch or nothing: OutOfRange (the server
  // maps it to I420) when the batch would overflow the bound.
  Status Ingest(EventBatch events) CAESAR_REQUIRES(serial_role);

  // Runs the engine over the runnable prefix of pending_ (see file
  // comment) and appends its derived events to *derived. With `flush`
  // everything is forced through, leaving pending_ empty.
  // A failed Run (e.g. strict-policy rejection of disordered input)
  // discards the rejected events — exactly what a library caller does
  // with a batch Run rejects — and returns the engine's Status.
  Status Drain(bool flush, EventBatch* derived) CAESAR_REQUIRES(serial_role);

  // Statistics export for this tenant (the report carries the tenant
  // label). `prometheus` picks the text exposition format over JSON;
  // `deterministic` drops wall-clock and thread-layout fields so exports
  // are byte-comparable to an in-process run.
  std::string ExportStats(bool prometheus, bool deterministic) const;

  const Engine& engine() const { return *engine_; }

 private:
  TenantSession(std::string name, std::unique_ptr<TypeRegistry> registry,
                std::unique_ptr<Engine> engine, size_t max_pending_events)
      : name_(std::move(name)),
        registry_(std::move(registry)),
        engine_(std::move(engine)),
        max_pending_events_(max_pending_events) {}

  std::string name_;
  // The model and plan reference the registry by pointer; it must outlive
  // the engine, so the session owns it on the heap.
  std::unique_ptr<TypeRegistry> registry_;
  std::unique_ptr<Engine> engine_;
  size_t max_pending_events_;

  EventBatch pending_ CAESAR_GUARDED_BY(serial_role);
  int64_t total_accepted_ CAESAR_GUARDED_BY(serial_role) = 0;
};

}  // namespace caesar

#endif  // CAESAR_SERVER_SESSION_H_
