// Binary state serialization for durability artifacts (WAL records and
// checkpoints). Fixed-width little-endian encoding, no alignment, no
// varints: the format must be byte-identical across runs so that durability
// counters (wal_bytes) stay deterministic and the differential harness can
// hold crash recovery to byte equality.
//
// StateWriter appends into an owned string; StateReader consumes a view
// with a sticky error flag — a truncated or corrupted payload turns every
// subsequent read into a zero value and leaves ok() false, so callers check
// once at the end instead of after every field.

#ifndef CAESAR_DURABILITY_SERDE_H_
#define CAESAR_DURABILITY_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "event/event.h"
#include "event/value.h"

namespace caesar {

class StateWriter {
 public:
  StateWriter() = default;
  // Writes into `buffer`, cleared first: a caller encoding one record after
  // another hands the same buffer back and reuses its capacity.
  explicit StateWriter(std::string buffer) : out_(std::move(buffer)) {
    out_.clear();
  }

  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  // One fixed-width little-endian block per field; the shifts fold into
  // a single store on little-endian hosts.
  void U32(uint32_t v) {
    char le[4];
    for (int i = 0; i < 4; ++i) le[i] = static_cast<char>(v >> (8 * i));
    out_.append(le, sizeof(le));
  }
  void U64(uint64_t v) {
    char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<char>(v >> (8 * i));
    out_.append(le, sizeof(le));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  // Bit-pattern encoding: doubles (incrementally maintained aggregate sums,
  // the virtual clock) must round-trip bit-exact, not via decimal text.
  void F64(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  // Capacity hint for a payload of known size.
  void Reserve(size_t bytes) { out_.reserve(bytes); }

  size_t size() const { return out_.size(); }
  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

  uint8_t U8() {
    uint8_t v = 0;
    Take(&v, 1);
    return v;
  }
  bool Bool() { return U8() != 0; }
  uint32_t U32() {
    unsigned char raw[4] = {};
    Take(raw, 4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(raw[i]) << (8 * i);
    return v;
  }
  uint64_t U64() {
    unsigned char raw[8] = {};
    Take(raw, 8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(raw[i]) << (8 * i);
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    uint64_t bits = U64();
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return std::string();
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  // One Status for the whole decode; `what` names the artifact.
  Status CheckFullyConsumed(const std::string& what) const {
    if (!ok_) return Status::DataLoss(what + ": truncated or corrupt payload");
    if (!AtEnd()) {
      return Status::DataLoss(what + ": " + std::to_string(remaining()) +
                              " trailing byte(s) after payload");
    }
    return Status::Ok();
  }

 private:
  bool Take(void* dst, size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    __builtin_memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Values and events: the payload vocabulary shared by WAL records (admitted
// and quarantined events) and checkpoints (partials, runs, aggregates).
// EventPtr identity is not preserved — events are immutable values, so a
// shared pointer deserializes into a fresh allocation with equal content.
void WriteValue(StateWriter* w, const Value& value);
Value ReadValue(StateReader* r);
void WriteEvent(StateWriter* w, const Event& event);
// Bytes WriteEvent appends for `event`.
size_t EncodedEventSize(const Event& event);
EventPtr ReadEvent(StateReader* r);

}  // namespace caesar

#endif  // CAESAR_DURABILITY_SERDE_H_
