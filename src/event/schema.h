// Event schemas and the event type registry.
//
// Per the paper (Section 2): "An event type E is defined by a schema which
// specifies the set of event attributes and the domains of their values."
// Types are interned in a TypeRegistry and referenced by dense integer ids
// so the hot path never compares type names.

#ifndef CAESAR_EVENT_SCHEMA_H_
#define CAESAR_EVENT_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "event/value.h"

namespace caesar {

// Dense id of an interned event type. kInvalidTypeId marks "unresolved".
using TypeId = int32_t;
inline constexpr TypeId kInvalidTypeId = -1;

// One named, typed attribute of an event schema.
struct Attribute {
  std::string name;
  ValueType type;
};

// Ordered attribute list with by-name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attributes);

  int num_attributes() const { return static_cast<int>(attributes_.size()); }
  const Attribute& attribute(int i) const { return attributes_[i]; }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  // Index of the attribute named `name`, or -1 if absent.
  int IndexOf(const std::string& name) const;

  std::string ToString() const;

 private:
  std::vector<Attribute> attributes_;
  std::unordered_map<std::string, int> index_;
};

// A named event type with its schema.
struct EventType {
  TypeId id = kInvalidTypeId;
  std::string name;
  Schema schema;
};

// Interns event types; shared by the model, plans, and the runtime.
class TypeRegistry {
 public:
  // Registers a new type. Fails with AlreadyExists if the name is taken.
  Result<TypeId> Register(const std::string& name,
                          std::vector<Attribute> attributes);

  // Registers if absent; returns the existing id when the name is known
  // (the existing schema wins, and `attributes` are not copied).
  TypeId RegisterOrGet(const std::string& name,
                       const std::vector<Attribute>& attributes);

  // Id lookup by name; kInvalidTypeId if unknown.
  TypeId Lookup(const std::string& name) const;

  // Requires a valid id.
  const EventType& type(TypeId id) const;

  int num_types() const { return static_cast<int>(types_.size()); }

 private:
  std::vector<std::unique_ptr<EventType>> types_;
  std::unordered_map<std::string, TypeId> by_name_;
};

}  // namespace caesar

#endif  // CAESAR_EVENT_SCHEMA_H_
