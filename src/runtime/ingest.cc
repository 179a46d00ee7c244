#include "runtime/ingest.h"

#include "durability/serde.h"

namespace caesar {

const char* IngestPolicyName(IngestPolicy policy) {
  switch (policy) {
    case IngestPolicy::kStrict:
      return "strict";
    case IngestPolicy::kDrop:
      return "drop";
    case IngestPolicy::kReorder:
      return "reorder";
  }
  return "?";
}

const char* QuarantineReasonName(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kOutOfOrder:
      return "out_of_order";
    case QuarantineReason::kLateBeyondSlack:
      return "late_beyond_slack";
    case QuarantineReason::kUnknownType:
      return "unknown_type";
    case QuarantineReason::kNegativeTime:
      return "negative_time";
    case QuarantineReason::kInvertedInterval:
      return "inverted_interval";
  }
  return "?";
}

DiagCode QuarantineDiagCode(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kOutOfOrder:
      return DiagCode::kI401OutOfOrder;
    case QuarantineReason::kLateBeyondSlack:
      return DiagCode::kI402LateBeyondSlack;
    case QuarantineReason::kUnknownType:
      return DiagCode::kI403UnknownType;
    case QuarantineReason::kNegativeTime:
      return DiagCode::kI404NegativeTime;
    case QuarantineReason::kInvertedInterval:
      return DiagCode::kI405InvertedInterval;
  }
  return DiagCode::kI401OutOfOrder;
}

void QuarantineSink::Add(EventPtr event, QuarantineReason reason,
                         uint64_t partition_key) {
  ++total_;
  ++counts_[static_cast<int>(reason)];
  ++by_partition_[partition_key];
  if (entries_.size() < capacity_) {
    entries_.push_back({std::move(event), reason, partition_key});
  }
}

void QuarantineSink::Save(StateWriter* w) const {
  w->I64(total_);
  w->U32(kNumQuarantineReasons);
  for (int64_t c : counts_) w->I64(c);
  w->U32(static_cast<uint32_t>(entries_.size()));
  for (const QuarantineEntry& e : entries_) {
    WriteEvent(w, *e.event);
    w->U8(static_cast<uint8_t>(e.reason));
    w->U64(e.partition_key);
  }
  w->U32(static_cast<uint32_t>(by_partition_.size()));
  for (const auto& [key, count] : by_partition_) {
    w->U64(key);
    w->I64(count);
  }
}

Status QuarantineSink::Load(StateReader* r) {
  total_ = r->I64();
  if (r->U32() != kNumQuarantineReasons || !r->ok()) {
    return Status::DataLoss("quarantine reason set does not match");
  }
  for (int64_t& c : counts_) c = r->I64();
  uint32_t n_entries = r->U32();
  entries_.clear();
  for (uint32_t i = 0; r->ok() && i < n_entries; ++i) {
    EventPtr event = ReadEvent(r);
    uint8_t reason = r->U8();
    uint64_t key = r->U64();
    if (!r->ok() || event == nullptr || reason >= kNumQuarantineReasons) {
      return Status::DataLoss("malformed quarantine entry");
    }
    entries_.push_back(
        {std::move(event), static_cast<QuarantineReason>(reason), key});
  }
  uint32_t n_partitions = r->U32();
  by_partition_.clear();
  for (uint32_t i = 0; r->ok() && i < n_partitions; ++i) {
    uint64_t key = r->U64();
    by_partition_[key] = r->I64();
  }
  return r->ok() ? Status::Ok()
                 : Status::DataLoss("truncated quarantine state");
}

}  // namespace caesar
