#include "durability/durability.h"

namespace caesar {

const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kOff:
      return "off";
    case DurabilityMode::kWal:
      return "wal";
    case DurabilityMode::kWalCheckpoint:
      return "wal+checkpoint";
  }
  return "?";
}

Status DurabilityOptions::Validate() const {
  if (mode == DurabilityMode::kOff) return Status::Ok();
  if (dir.empty()) {
    return Status::InvalidArgument(
        "DurabilityOptions::dir must be set when durability is on");
  }
  if (checkpoint_interval_ticks < 1) {
    return Status::InvalidArgument(
        "DurabilityOptions::checkpoint_interval_ticks must be >= 1, got " +
        std::to_string(checkpoint_interval_ticks));
  }
  if (segment_bytes < 1) {
    return Status::InvalidArgument(
        "DurabilityOptions::segment_bytes must be >= 1");
  }
  return Status::Ok();
}

}  // namespace caesar
