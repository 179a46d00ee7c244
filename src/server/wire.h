// Wire layer of the caesard socket protocol: a minimal JSON document
// model (parser + deterministic serializer) and the two message framings
// the daemon speaks on one port, distinguished per message by the first
// byte:
//
//   binary frames   0xC5 magic + u32 little-endian payload length + payload
//   newline-JSON    one JSON document per '\n'-terminated line (debug mode;
//                   `nc 127.0.0.1 PORT` works)
//
// The payload of both framings is the same JSON request/response document
// (server/protocol.h), so the framings are freely mixable on a connection
// and a reply always uses the framing of its request.
//
// Everything here is deliberately self-contained (no external JSON
// dependency): the parser is a bounded recursive-descent reader hardened
// for the protocol fuzz leg (depth cap, frame-size cap upstream), and the
// serializer is deterministic — equal documents render byte-identically,
// which the socket-vs-batch differential tests rely on.

#ifndef CAESAR_SERVER_WIRE_H_
#define CAESAR_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace caesar {

// ---------------------------------------------------------------------------
// JSON documents
// ---------------------------------------------------------------------------

// A parsed JSON value. Objects preserve insertion order (deterministic
// Dump) and keep the first entry on duplicate keys.
class JsonValue {
 public:
  enum class Kind : int8_t {
    kNull = 0,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  JsonValue() : kind_(Kind::kNull) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v) {
    JsonValue j;
    j.kind_ = Kind::kBool;
    j.bool_ = v;
    return j;
  }
  static JsonValue Int(int64_t v) {
    JsonValue j;
    j.kind_ = Kind::kInt;
    j.int_ = v;
    return j;
  }
  static JsonValue Double(double v) {
    JsonValue j;
    j.kind_ = Kind::kDouble;
    j.double_ = v;
    return j;
  }
  static JsonValue String(std::string v) {
    JsonValue j;
    j.kind_ = Kind::kString;
    j.string_ = std::move(v);
    return j;
  }
  static JsonValue Array() {
    JsonValue j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static JsonValue Object() {
    JsonValue j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Accessors require the matching kind (callers check first; the
  // protocol layer rejects shape mismatches with coded errors).
  bool bool_value() const { return bool_; }
  int64_t int_value() const { return int_; }
  double double_value() const { return double_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& entries() const {
    return entries_;
  }

  // Object lookup; null if absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  // Builders (no-ops on the wrong kind are programming errors; they abort
  // in debug via the kind switch in Dump).
  void Append(JsonValue value) { items_.push_back(std::move(value)); }
  void Set(std::string key, JsonValue value) {
    entries_.emplace_back(std::move(key), std::move(value));
  }

  // Deterministic serialization: no whitespace, object entries in
  // insertion order, doubles via round-trip "%.17g" (trailing-zero
  // trimmed), strings escaped exactly like the parser expects.
  std::string Dump() const;

 private:
  void DumpTo(std::string* out) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> entries_;
};

// Parses exactly one JSON document spanning all of `text` (trailing
// whitespace allowed, trailing garbage rejected). Depth-capped; errors
// carry a byte offset.
Result<JsonValue> ParseJson(std::string_view text);

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

// First byte of a binary frame. 0xC5 is not valid leading UTF-8 for any
// JSON document, so the two framings are unambiguous per message.
inline constexpr uint8_t kFrameMagic = 0xC5;

// Hard cap on one message's payload, both framings (admission control at
// the transport: a hostile length prefix must not allocate gigabytes).
inline constexpr uint32_t kMaxWirePayload = 16u << 20;  // 16 MiB

// write(2) the whole buffer, retrying on EINTR/short writes. MSG_NOSIGNAL
// semantics: a closed peer returns a Status, never raises SIGPIPE.
Status WriteAllToSocket(int fd, std::string_view data);

// One message, binary framing: magic + u32 LE length + payload.
Status WriteBinaryFrame(int fd, std::string_view payload);

// One message, newline-JSON framing. `payload` must not contain '\n'
// (JsonValue::Dump never emits one).
Status WriteJsonLine(int fd, std::string_view payload);

// Buffered reader for one connection; speaks both framings.
class MessageReader {
 public:
  // Caps single-message size at `max_payload` bytes.
  explicit MessageReader(int fd, uint32_t max_payload = kMaxWirePayload)
      : fd_(fd), max_payload_(max_payload) {}

  // Reads the next message. On success either *eof is true (clean EOF at
  // a message boundary) or *payload holds the message and *binary records
  // its framing. A torn frame, oversized length, or mid-frame EOF returns
  // a Status — the connection is then unusable and should be closed.
  Status Next(std::string* payload, bool* binary, bool* eof);

 private:
  // Ensures the buffer holds >= need unconsumed bytes; *eof reports a
  // clean EOF with an empty buffer.
  Status Fill(size_t need, bool* eof);

  int fd_;
  uint32_t max_payload_;
  std::string buffer_;
  size_t pos_ = 0;
};

}  // namespace caesar

#endif  // CAESAR_SERVER_WIRE_H_
