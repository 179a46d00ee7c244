#include "event/schema.h"

#include <sstream>

#include "common/logging.h"

namespace caesar {

Schema::Schema(std::vector<Attribute> attributes)
    : attributes_(std::move(attributes)) {
  for (int i = 0; i < num_attributes(); ++i) {
    auto [it, inserted] = index_.emplace(attributes_[i].name, i);
    CAESAR_CHECK(inserted) << "duplicate attribute name: "
                           << attributes_[i].name;
  }
}

int Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (int i = 0; i < num_attributes(); ++i) {
    if (i > 0) os << ", ";
    os << attributes_[i].name << ":" << ValueTypeName(attributes_[i].type);
  }
  os << ")";
  return os.str();
}

Result<TypeId> TypeRegistry::Register(const std::string& name,
                                      std::vector<Attribute> attributes) {
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("event type already registered: " + name);
  }
  TypeId id = static_cast<TypeId>(types_.size());
  auto type = std::make_unique<EventType>();
  type->id = id;
  type->name = name;
  type->schema = Schema(std::move(attributes));
  types_.push_back(std::move(type));
  by_name_.emplace(name, id);
  return id;
}

TypeId TypeRegistry::RegisterOrGet(const std::string& name,
                                   const std::vector<Attribute>& attributes) {
  TypeId existing = Lookup(name);
  if (existing != kInvalidTypeId) return existing;
  Result<TypeId> result = Register(name, attributes);
  CAESAR_CHECK(result.ok());
  return result.value();
}

TypeId TypeRegistry::Lookup(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidTypeId : it->second;
}

const EventType& TypeRegistry::type(TypeId id) const {
  CAESAR_CHECK_GE(id, 0);
  CAESAR_CHECK_LT(id, num_types());
  return *types_[id];
}

}  // namespace caesar
