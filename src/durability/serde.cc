#include "durability/serde.h"

namespace caesar {

void WriteValue(StateWriter* w, const Value& value) {
  w->U8(static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      w->I64(value.AsInt());
      break;
    case ValueType::kDouble:
      w->F64(value.AsDouble());
      break;
    case ValueType::kString:
      w->Str(value.AsString());
      break;
  }
}

Value ReadValue(StateReader* r) {
  switch (static_cast<ValueType>(r->U8())) {
    case ValueType::kNull:
      return Value();
    case ValueType::kInt:
      return Value(r->I64());
    case ValueType::kDouble:
      return Value(r->F64());
    case ValueType::kString:
      return Value(r->Str());
  }
  return Value();
}

void WriteEvent(StateWriter* w, const Event& event) {
  w->I64(event.type_id());
  w->I64(event.start_time());
  w->I64(event.end_time());
  w->U32(static_cast<uint32_t>(event.num_values()));
  for (const Value& value : event.values()) WriteValue(w, value);
}

size_t EncodedEventSize(const Event& event) {
  size_t bytes = 8 + 8 + 8 + 4;  // type, start, end, value count
  for (const Value& value : event.values()) {
    bytes += 1;  // type tag
    switch (value.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
      case ValueType::kDouble:
        bytes += 8;
        break;
      case ValueType::kString:
        bytes += 4 + value.AsString().size();
        break;
    }
  }
  return bytes;
}

EventPtr ReadEvent(StateReader* r) {
  TypeId type_id = static_cast<TypeId>(r->I64());
  Timestamp start = r->I64();
  Timestamp end = r->I64();
  uint32_t n = r->U32();
  // A corrupt count would otherwise allocate unbounded scratch before the
  // sticky error flag surfaces: each value consumes at least one byte.
  if (!r->ok() || n > r->remaining()) return nullptr;
  std::vector<Value> values;
  values.reserve(n);
  for (uint32_t i = 0; i < n; ++i) values.push_back(ReadValue(r));
  if (!r->ok()) return nullptr;
  return MakeComplexEvent(type_id, start, end, std::move(values));
}

}  // namespace caesar
