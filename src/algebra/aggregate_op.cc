#include "algebra/aggregate_op.h"

#include <algorithm>
#include <iterator>
#include <map>

#include "common/logging.h"
#include "durability/serde.h"

namespace caesar {

namespace {

size_t HashKey(const std::vector<Value>& key) {
  size_t hash = 0xcbf29ce484222325ULL;
  for (const Value& value : key) {
    hash = (hash ^ value.Hash()) * 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

AggregateOp::AggregateOp(std::shared_ptr<const AggregateOpConfig> config)
    : Operator(Kind::kAggregate), config_(std::move(config)) {
  CAESAR_CHECK_GT(config_->window_length, 0);
  CAESAR_CHECK(!config_->aggregates.empty());
}

std::unique_ptr<OperatorState> AggregateOp::NewState() const {
  return std::make_unique<State>();
}

void AggregateOp::Process(const EventBatch& input, EventBatch* output,
                          OpExecContext* ctx, OperatorState* state) const {
  const auto& cfg = *config_;
  auto& groups = static_cast<State*>(state)->groups_;
  for (const EventPtr& event : input) {
    if (event->type_id() != cfg.input_type) continue;
    ctx->CountWork(1);

    // Group lookup / creation.
    std::vector<Value> key;
    key.reserve(cfg.group_by.size());
    for (int attr : cfg.group_by) key.push_back(event->value(attr));
    size_t hash = HashKey(key);
    std::vector<State::Group>& bucket = groups[hash];
    State::Group* group = nullptr;
    for (State::Group& candidate : bucket) {
      if (candidate.key == key) {
        group = &candidate;
        break;
      }
    }
    if (group == nullptr) {
      bucket.emplace_back();
      group = &bucket.back();
      group->key = std::move(key);
    }

    // Insert the sample and evict expired ones.
    group->times.push_back(event->time());
    for (const auto& agg : cfg.aggregates) {
      double v = 0.0;
      if (agg.attr_index >= 0) {
        const Value& value = event->value(agg.attr_index);
        v = value.is_numeric() ? value.ToDouble() : 0.0;
      }
      group->values.push_back(v);
    }
    State::Evict(group, event->time() - cfg.window_length);

    // Emit when HAVING passes.
    std::vector<Value> outputs = ComputeOutputs(*group);
    EventPtr result = MakeEvent(cfg.output_type, event->time(),
                                std::move(outputs));
    if (cfg.having != nullptr) {
      ctx->CountWork(1);
      if (!cfg.having->EvalBool(&result)) continue;
    }
    output->push_back(std::move(result));
  }
}

void AggregateOp::State::Evict(Group* group, Timestamp horizon) {
  std::vector<Timestamp>& times = group->times;
  size_t expired = 0;
  while (expired < times.size() && times[expired] <= horizon) ++expired;
  if (expired == 0) return;
  const size_t width = group->values.size() / times.size();
  times.erase(times.begin(), times.begin() + expired);
  group->values.erase(group->values.begin(),
                      group->values.begin() + expired * width);
}

size_t AggregateOp::State::num_groups() const {
  size_t n = 0;
  for (const auto& [hash, bucket] : groups_) n += bucket.size();
  return n;
}

// One fold per aggregate over the live window, oldest sample first. The
// window is never empty here: it holds at least the sample just inserted.
std::vector<Value> AggregateOp::ComputeOutputs(
    const State::Group& group) const {
  const auto& cfg = *config_;
  const size_t width = cfg.aggregates.size();
  const size_t count = group.times.size();
  const std::vector<double>& values = group.values;
  std::vector<Value> outputs = group.key;
  outputs.reserve(group.key.size() + width);
  for (size_t a = 0; a < width; ++a) {
    const AggregateFunc func = cfg.aggregates[a].func;
    switch (func) {
      case AggregateFunc::kCount:
        outputs.push_back(Value(static_cast<int64_t>(count)));
        break;
      case AggregateFunc::kSum:
      case AggregateFunc::kAvg: {
        double sum = 0.0;
        for (size_t i = a; i < values.size(); i += width) sum += values[i];
        outputs.push_back(Value(func == AggregateFunc::kSum
                                    ? sum
                                    : sum / static_cast<double>(count)));
        break;
      }
      case AggregateFunc::kMin:
      case AggregateFunc::kMax: {
        double best = values[a];
        for (size_t i = a + width; i < values.size(); i += width) {
          best = func == AggregateFunc::kMin ? std::min(best, values[i])
                                             : std::max(best, values[i]);
        }
        outputs.push_back(Value(best));
        break;
      }
    }
  }
  return outputs;
}

void AggregateOp::State::Reset() { groups_.clear(); }

void AggregateOp::State::Save(StateWriter* w) const {
  // Buckets are emitted in hash order (the unordered_map's own order is
  // not byte-stable); within a bucket, vector order is preserved.
  std::map<size_t, const std::vector<Group>*> ordered;
  for (const auto& [hash, bucket] : groups_) ordered[hash] = &bucket;
  w->U32(static_cast<uint32_t>(ordered.size()));
  for (const auto& [hash, bucket] : ordered) {
    w->U64(hash);
    w->U32(static_cast<uint32_t>(bucket->size()));
    for (const Group& group : *bucket) {
      w->U32(static_cast<uint32_t>(group.key.size()));
      for (const Value& v : group.key) WriteValue(w, v);
      w->U32(static_cast<uint32_t>(group.times.size()));
      w->U32(static_cast<uint32_t>(group.values.size()));
      for (Timestamp time : group.times) w->I64(time);
      for (double v : group.values) w->F64(v);
    }
  }
}

Status AggregateOp::State::Load(StateReader* r) {
  groups_.clear();
  uint32_t n_buckets = r->U32();
  for (uint32_t b = 0; r->ok() && b < n_buckets; ++b) {
    uint64_t hash = r->U64();
    uint32_t n_groups = r->U32();
    std::vector<Group>& bucket = groups_[static_cast<size_t>(hash)];
    for (uint32_t g = 0; r->ok() && g < n_groups; ++g) {
      Group group;
      uint32_t n_key = r->U32();
      for (uint32_t i = 0; r->ok() && i < n_key; ++i) {
        group.key.push_back(ReadValue(r));
      }
      uint32_t n_samples = r->U32();
      uint32_t n_values = r->U32();
      if (n_samples == 0 ? n_values != 0 : n_values % n_samples != 0) {
        return Status::DataLoss("malformed aggregate group");
      }
      for (uint32_t i = 0; r->ok() && i < n_samples; ++i) {
        group.times.push_back(r->I64());
      }
      for (uint32_t i = 0; r->ok() && i < n_values; ++i) {
        group.values.push_back(r->F64());
      }
      bucket.push_back(std::move(group));
    }
  }
  return r->ok() ? Status::Ok()
                 : Status::DataLoss("truncated aggregate state");
}

void AggregateOp::State::ExpireBefore(Timestamp t) {
  for (auto it = groups_.begin(); it != groups_.end();) {
    std::vector<Group>& bucket = it->second;
    for (Group& group : bucket) Evict(&group, t - 1);
    std::erase_if(bucket,
                  [](const Group& group) { return group.times.empty(); });
    it = bucket.empty() ? groups_.erase(it) : std::next(it);
  }
}

std::string AggregateOp::DebugString() const {
  return "Aggregate: " + config_->description;
}

}  // namespace caesar
