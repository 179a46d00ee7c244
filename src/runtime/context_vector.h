// The context bit vector (Section 6.2 of the paper): per stream partition,
// one bit per context type recording whether a window of that type currently
// holds, plus the time stamp of the last update and, per context, the
// activation time of the current window (needed by the context-window
// operator to scope complex events to the current window).
//
// "The entries are sorted alphabetically by context names to allow for
// constant time access" — we go one step further and use dense integer
// context ids assigned by the model; lookups are array indexing.

#ifndef CAESAR_RUNTIME_CONTEXT_VECTOR_H_
#define CAESAR_RUNTIME_CONTEXT_VECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "event/event.h"
#include "query/model.h"  // kMaxContexts

namespace caesar {

class StateWriter;
class StateReader;

// Current context windows of one stream partition.
class ContextBitVector {
 public:
  // `num_contexts` context types; `default_context` initially holds
  // (the paper's c_d holds when no other context does, e.g. at startup).
  ContextBitVector(int num_contexts, int default_context);

  int num_contexts() const { return num_contexts_; }
  int default_context() const { return default_context_; }

  // True if a window of context `c` currently holds. O(1).
  bool IsActive(int c) const { return (bits_ >> c) & 1; }

  // True if any context in the mask holds.
  bool AnyActive(uint64_t mask) const { return (bits_ & mask) != 0; }

  // Start time of the current window of `c`; meaningful only when active.
  Timestamp ActiveSince(int c) const { return since_[c]; }

  // Time stamp of the last update (W.time).
  Timestamp time() const { return time_; }

  // Context initiation CI_c: starts a window of `c` at `now` (no-op when one
  // already holds, per the operator definition) and removes the default
  // context window if present (and c is not the default itself).
  // Returns true if the window was newly initiated.
  bool Initiate(int c, Timestamp now);

  // Context termination CT_c: ends the window of `c`; if no window remains,
  // the default context window begins. Returns true if a window was ended.
  bool Terminate(int c, Timestamp now);

  // Number of currently active context windows.
  int ActiveCount() const { return __builtin_popcountll(bits_); }

  uint64_t bits() const { return bits_; }

  // Monotone counter bumped on every Initiate/Terminate that changed the
  // vector; lets the runtime detect window transitions cheaply.
  uint64_t version() const { return version_; }

  std::string ToString() const;

  // Checkpoint serialization (durability/serde.h). Configuration
  // (num_contexts, default_context) comes from the model, not the bytes;
  // Load validates the window count against it.
  void Save(StateWriter* w) const;
  Status Load(StateReader* r);

 private:
  int num_contexts_;
  int default_context_;
  uint64_t bits_ = 0;
  Timestamp time_ = 0;
  uint64_t version_ = 0;
  std::vector<Timestamp> since_;
};

}  // namespace caesar

#endif  // CAESAR_RUNTIME_CONTEXT_VECTOR_H_
