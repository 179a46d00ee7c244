#include "plan/plan.h"

#include <sstream>

namespace caesar {

OpChain OpChain::Clone() const {
  OpChain clone;
  clone.ops.reserve(ops.size());
  for (const auto& op : ops) clone.ops.push_back(op->Clone());
  return clone;
}

std::string OpChain::DebugString() const {
  std::ostringstream os;
  for (size_t i = 0; i < ops.size(); ++i) {
    os << "  " << i + 1 << ". " << ops[i]->DebugString() << "\n";
  }
  return os.str();
}

CompiledQuery CompiledQuery::Clone() const {
  CompiledQuery clone;
  clone.query_index = query_index;
  clone.name = name;
  clone.deriving = deriving;
  clone.contexts = contexts;
  clone.anchors = anchors;
  clone.input_types = input_types;
  clone.output_type = output_type;
  clone.guards.reserve(guards.size());
  for (const OpChain& guard : guards) clone.guards.push_back(guard.Clone());
  clone.chain = chain.Clone();
  return clone;
}

std::string CompiledQuery::DebugString() const {
  std::ostringstream os;
  os << (deriving ? "[deriving] " : "[processing] ") << name << "\n";
  for (const OpChain& guard : guards) {
    os << " guard:\n" << guard.DebugString();
  }
  os << chain.DebugString();
  return os.str();
}

ExecutablePlan ExecutablePlan::Clone() const {
  ExecutablePlan clone;
  clone.registry = registry;
  clone.num_contexts = num_contexts;
  clone.default_context = default_context;
  clone.context_names = context_names;
  clone.partition_by = partition_by;
  clone.deriving.reserve(deriving.size());
  for (const CompiledQuery& query : deriving) {
    clone.deriving.push_back(query.Clone());
  }
  clone.processing.reserve(processing.size());
  for (const CompiledQuery& query : processing) {
    clone.processing.push_back(query.Clone());
  }
  return clone;
}

std::string ExecutablePlan::DebugString() const {
  std::ostringstream os;
  for (const CompiledQuery& query : deriving) os << query.DebugString();
  for (const CompiledQuery& query : processing) os << query.DebugString();
  return os.str();
}

}  // namespace caesar
