#include "plan/plan.h"

#include <sstream>

namespace caesar {

std::string OpChain::DebugString() const {
  std::ostringstream os;
  for (size_t i = 0; i < ops.size(); ++i) {
    os << "  " << i + 1 << ". " << ops[i]->DebugString() << "\n";
  }
  return os.str();
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

std::string ExecutablePlan::DebugString() const {
  std::ostringstream os;
  for (const CompiledQuery& query : deriving) os << query.DebugString();
  for (const CompiledQuery& query : processing) os << query.DebugString();
  return os.str();
}

}  // namespace caesar
