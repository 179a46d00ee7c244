#include "server/session.h"

#include <utility>

#include "query/model.h"
#include "query/parser.h"
#include "runtime/observability.h"
#include "runtime/statistics.h"

namespace caesar {

SessionSerialRole TenantSession::serial_role;

Result<std::unique_ptr<TenantSession>> TenantSession::Create(
    const std::string& name, std::string_view model_text,
    const SessionConfig& config) {
  auto registry = std::make_unique<TypeRegistry>();

  ParseModelOptions parse_options;
  parse_options.source_name = name;
  Result<CaesarModel> model =
      ParseModel(model_text, registry.get(), parse_options);
  if (!model.ok()) return model.status();

  EngineOptions engine_options = config.engine;
  engine_options.tenant = name;
  engine_options.num_threads = 1;  // serial unless the pool overrides
  // The strict analyzer is the admission gate: error-severity lint
  // diagnostics reject registration before any engine state exists.
  engine_options.analysis = AnalysisMode::kStrict;

  Result<std::unique_ptr<Engine>> engine =
      Engine::Create(model.value(), config.plan, std::move(engine_options));
  if (!engine.ok()) return engine.status();

  return std::unique_ptr<TenantSession>(
      new TenantSession(name, std::move(registry), std::move(engine).value(),
                        config.max_pending_events));
}

Status TenantSession::Ingest(EventBatch events) {
  if (pending_.size() + events.size() > max_pending_events_) {
    return Status::OutOfRange(
        "pending buffer full: " + std::to_string(pending_.size()) +
        " buffered + " + std::to_string(events.size()) + " offered > limit " +
        std::to_string(max_pending_events_));
  }
  total_accepted_ += static_cast<int64_t>(events.size());
  for (EventPtr& event : events) pending_.push_back(std::move(event));
  return Status::Ok();
}

Status TenantSession::Drain(bool flush, EventBatch* derived) {
  if (pending_.empty()) return Status::Ok();
  const size_t runnable =
      flush ? pending_.size() : engine_->RunnablePrefix(pending_);
  if (runnable == 0) return Status::Ok();

  EventBatch batch(pending_.begin(),
                   pending_.begin() + static_cast<ptrdiff_t>(runnable));
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<ptrdiff_t>(runnable));
  return engine_->Run(batch, derived).status();
}

std::string TenantSession::ExportStats(bool prometheus,
                                       bool deterministic) const {
  StatisticsReport report = engine_->CollectStatistics();
  ExportOptions options;
  options.deterministic = deterministic;
  return prometheus ? StatisticsToPrometheus(report, options)
                    : StatisticsToJson(report, options);
}

}  // namespace caesar
