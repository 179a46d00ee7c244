// Value: the dynamically typed attribute cell used by events and the
// expression evaluator. Supports int64, double, and string payloads plus a
// null state; numeric comparisons coerce int64 <-> double.

#ifndef CAESAR_EVENT_VALUE_H_
#define CAESAR_EVENT_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <variant>

namespace caesar {

// Attribute type tags; also used by schemas and the expression type checker.
enum class ValueType : int8_t { kNull = 0, kInt, kDouble, kString };

const char* ValueTypeName(ValueType type);

// A single attribute value.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  ValueType type() const {
    switch (data_.index()) {
      case 1:
        return ValueType::kInt;
      case 2:
        return ValueType::kDouble;
      case 3:
        return ValueType::kString;
      default:
        return ValueType::kNull;
    }
  }

  bool is_null() const { return data_.index() == 0; }
  bool is_numeric() const {
    return type() == ValueType::kInt || type() == ValueType::kDouble;
  }

  // Accessors abort (via std::get) if the type does not match.
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  // Numeric value as double regardless of int/double representation.
  // Requires is_numeric().
  double ToDouble() const {
    return type() == ValueType::kInt ? static_cast<double>(AsInt())
                                     : AsDouble();
  }

  // Equality: numeric values compare by value across int/double; other types
  // compare only within the same type (null == null).
  bool Equals(const Value& other) const;

  // Three-way comparison for ordered types. Requires comparable types
  // (both numeric or both string); callers type-check first.
  int Compare(const Value& other) const;

  // Hash suitable for grouping and partition keys; agrees with Equals, so
  // Value(int64_t{1}) and Value(1.0) hash alike.
  size_t Hash() const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

inline bool operator==(const Value& a, const Value& b) { return a.Equals(b); }
inline bool operator!=(const Value& a, const Value& b) { return !a.Equals(b); }

std::ostream& operator<<(std::ostream& os, const Value& value);

}  // namespace caesar

#endif  // CAESAR_EVENT_VALUE_H_
