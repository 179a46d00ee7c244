#include "server/protocol.h"

#include <cmath>
#include <utility>

namespace caesar {
namespace {

// Wire name for events whose type id the registry cannot resolve
// (quarantined garbage re-exported in a reply's derived rows).
constexpr const char* kUnknownTypeName = "__unknown__";

}  // namespace

const char* ServerCmdName(ServerCmd cmd) {
  switch (cmd) {
    case ServerCmd::kPing:
      return "ping";
    case ServerCmd::kRegister:
      return "register";
    case ServerCmd::kIngest:
      return "ingest";
    case ServerCmd::kFlush:
      return "flush";
    case ServerCmd::kStats:
      return "stats";
    case ServerCmd::kTeardown:
      return "teardown";
    case ServerCmd::kList:
      return "list";
    case ServerCmd::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

bool ParseServerCmd(std::string_view name, ServerCmd* out) {
  static constexpr ServerCmd kAll[] = {
      ServerCmd::kPing,     ServerCmd::kRegister, ServerCmd::kIngest,
      ServerCmd::kFlush,    ServerCmd::kStats,    ServerCmd::kTeardown,
      ServerCmd::kList,     ServerCmd::kShutdown,
  };
  for (ServerCmd cmd : kAll) {
    if (name == ServerCmdName(cmd)) {
      *out = cmd;
      return true;
    }
  }
  return false;
}

JsonValue EncodeEventRow(const Event& event, const TypeRegistry& registry) {
  JsonValue row = JsonValue::Array();
  const bool known =
      event.type_id() >= 0 && event.type_id() < registry.num_types();
  row.Append(JsonValue::String(known ? registry.type(event.type_id()).name
                                     : kUnknownTypeName));
  row.Append(JsonValue::Int(event.start_time()));
  if (event.end_time() != event.start_time()) {
    row.Append(JsonValue::Int(event.end_time()));
  }
  JsonValue values = JsonValue::Array();
  for (const Value& v : event.values()) {
    switch (v.type()) {
      case ValueType::kNull:
        values.Append(JsonValue::Null());
        break;
      case ValueType::kInt:
        values.Append(JsonValue::Int(v.AsInt()));
        break;
      case ValueType::kDouble:
        values.Append(JsonValue::Double(v.AsDouble()));
        break;
      case ValueType::kString:
        values.Append(JsonValue::String(v.AsString()));
        break;
    }
  }
  row.Append(std::move(values));
  return row;
}

JsonValue EncodeEventBatch(const EventBatch& events,
                           const TypeRegistry& registry) {
  JsonValue rows = JsonValue::Array();
  for (const EventPtr& event : events) {
    rows.Append(EncodeEventRow(*event, registry));
  }
  return rows;
}

namespace {

// Strict integral timestamp: ints pass through; doubles only if exactly
// integral (JSON clients often cannot emit int64 distinctly).
bool ReadTimestamp(const JsonValue& v, Timestamp* out) {
  if (v.is_int()) {
    *out = v.int_value();
    return true;
  }
  if (v.is_double()) {
    const double d = v.double_value();
    if (!std::isfinite(d) || d != std::floor(d)) return false;
    *out = static_cast<Timestamp>(d);
    return true;
  }
  return false;
}

}  // namespace

Status DecodeEventRow(const JsonValue& row, const TypeRegistry& registry,
                      EventPtr* out) {
  if (!row.is_array() || row.items().size() < 3 || row.items().size() > 4) {
    return Status::InvalidArgument(
        "event row must be [type, time, [values...]] or "
        "[type, start, end, [values...]]");
  }
  const auto& items = row.items();
  if (!items[0].is_string()) {
    return Status::InvalidArgument("event row type name must be a string");
  }
  Timestamp start = 0;
  Timestamp end = 0;
  if (!ReadTimestamp(items[1], &start)) {
    return Status::InvalidArgument("event row time must be an integer");
  }
  const bool interval = items.size() == 4;
  if (interval) {
    if (!ReadTimestamp(items[2], &end)) {
      return Status::InvalidArgument("event row end time must be an integer");
    }
  } else {
    end = start;
  }
  const JsonValue& wire_values = items[interval ? 3 : 2];
  if (!wire_values.is_array()) {
    return Status::InvalidArgument("event row values must be an array");
  }
  std::vector<Value> values;
  values.reserve(wire_values.items().size());
  for (const JsonValue& v : wire_values.items()) {
    switch (v.kind()) {
      case JsonValue::Kind::kNull:
        values.emplace_back();
        break;
      case JsonValue::Kind::kInt:
        values.emplace_back(v.int_value());
        break;
      case JsonValue::Kind::kDouble:
        values.emplace_back(v.double_value());
        break;
      case JsonValue::Kind::kString:
        values.emplace_back(v.string_value());
        break;
      default:
        return Status::InvalidArgument(
            "event values must be null, number, or string");
    }
  }
  // Unknown names map to an out-of-range id on purpose: the engine's own
  // ingest policy then quarantines the event (kUnknownType), identical to
  // a library caller handing in a corrupt type id.
  TypeId type_id = registry.Lookup(items[0].string_value());
  if (type_id == kInvalidTypeId) type_id = registry.num_types();
  *out = interval
             ? MakeComplexEvent(type_id, start, end, std::move(values))
             : MakeEvent(type_id, start, std::move(values));
  return Status::Ok();
}

JsonValue OkResponse() {
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  return response;
}

JsonValue ErrorResponse(const char* code, const std::string& message) {
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(false));
  response.Set("code", JsonValue::String(code));
  response.Set("error", JsonValue::String(message));
  return response;
}

}  // namespace caesar
