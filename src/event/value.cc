#include "event/value.h"

#include <cmath>
#include <functional>
#include <sstream>

#include "common/logging.h"

namespace caesar {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

bool Value::Equals(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    if (type() == ValueType::kInt && other.type() == ValueType::kInt) {
      return AsInt() == other.AsInt();
    }
    return ToDouble() == other.ToDouble();
  }
  if (type() != other.type()) return false;
  switch (type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kString:
      return AsString() == other.AsString();
    default:
      return false;  // Unreachable: numeric handled above.
  }
}

int Value::Compare(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    if (type() == ValueType::kInt && other.type() == ValueType::kInt) {
      int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = ToDouble(), b = other.ToDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  CAESAR_CHECK(type() == ValueType::kString &&
               other.type() == ValueType::kString)
      << "incomparable value types: " << ValueTypeName(type()) << " vs "
      << ValueTypeName(other.type());
  return AsString().compare(other.AsString());
}

size_t Value::Hash() const {
  constexpr int64_t kExactInt = int64_t{1} << 53;
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt:
      if (AsInt() >= -kExactInt && AsInt() <= kExactInt) {
        return std::hash<int64_t>{}(AsInt());
      }
      [[fallthrough]];
    case ValueType::kDouble: {
      // Equal numerics must hash equal, and Equals compares an int with a
      // double through ToDouble(). Ints within +-2^53 convert exactly, so
      // they keep the plain integer hash above; every other numeric hashes
      // its double, as the int64 it equals when that double is integral
      // and in int64 range (-0.0 included).
      const double d = ToDouble();
      if (d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d)) {
        return std::hash<int64_t>{}(static_cast<int64_t>(d));
      }
      return std::hash<double>{}(d);
    }
    case ValueType::kString:
      return std::hash<std::string>{}(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      return os << "null";
    case ValueType::kInt:
      return os << value.AsInt();
    case ValueType::kDouble:
      return os << value.AsDouble();
    case ValueType::kString:
      return os << '"' << value.AsString() << '"';
  }
  return os;
}

}  // namespace caesar
