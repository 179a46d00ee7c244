#include "algebra/aggregate_op.h"

#include <algorithm>
#include <iterator>
#include <limits>
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
      group->sums.assign(cfg.aggregates.size(), 0.0);
    }

    // Insert the sample and evict expired ones.
    State::Sample sample;
    sample.time = event->time();
    sample.values.reserve(cfg.aggregates.size());
    for (const auto& agg : cfg.aggregates) {
      double v = 0.0;
      if (agg.attr_index >= 0) {
        const Value& value = event->value(agg.attr_index);
        v = value.is_numeric() ? value.ToDouble() : 0.0;
      }
      sample.values.push_back(v);
    }
    for (size_t a = 0; a < cfg.aggregates.size(); ++a) {
      group->sums[a] += sample.values[a];
    }
    group->samples.push_back(std::move(sample));
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
  while (!group->samples.empty() && group->samples.front().time <= horizon) {
    const Sample& old = group->samples.front();
    for (size_t a = 0; a < group->sums.size(); ++a) {
      group->sums[a] -= old.values[a];
    }
    group->samples.pop_front();
  }
}

std::vector<Value> AggregateOp::ComputeOutputs(
    const State::Group& group) const {
  const auto& cfg = *config_;
  std::vector<Value> outputs = group.key;
  outputs.reserve(group.key.size() + cfg.aggregates.size());
  int64_t count = static_cast<int64_t>(group.samples.size());
  for (size_t a = 0; a < cfg.aggregates.size(); ++a) {
    switch (cfg.aggregates[a].func) {
      case AggregateFunc::kCount:
        outputs.push_back(Value(count));
        break;
      case AggregateFunc::kSum:
        outputs.push_back(Value(group.sums[a]));
        break;
      case AggregateFunc::kAvg:
        outputs.push_back(
            Value(count == 0 ? 0.0 : group.sums[a] / count));
        break;
      case AggregateFunc::kMin:
      case AggregateFunc::kMax: {
        double best = cfg.aggregates[a].func == AggregateFunc::kMin
                          ? std::numeric_limits<double>::infinity()
                          : -std::numeric_limits<double>::infinity();
        for (const State::Sample& sample : group.samples) {
          best = cfg.aggregates[a].func == AggregateFunc::kMin
                     ? std::min(best, sample.values[a])
                     : std::max(best, sample.values[a]);
        }
        outputs.push_back(Value(count == 0 ? 0.0 : best));
        break;
      }
    }
  }
  return outputs;
}

void AggregateOp::State::Reset() { groups_.clear(); }

void AggregateOp::State::Save(StateWriter* w) const {
  // Buckets are emitted in hash order (the unordered_map's own order is
  // not byte-stable); within a bucket, vector order is preserved. Sums are
  // saved bit-exact so incremental AVG/SUM keep their exact rounding
  // history across a recovery.
  std::map<size_t, const std::vector<Group>*> ordered;
  for (const auto& [hash, bucket] : groups_) ordered[hash] = &bucket;
  w->U32(static_cast<uint32_t>(ordered.size()));
  for (const auto& [hash, bucket] : ordered) {
    w->U64(hash);
    w->U32(static_cast<uint32_t>(bucket->size()));
    for (const Group& group : *bucket) {
      w->U32(static_cast<uint32_t>(group.key.size()));
      for (const Value& v : group.key) WriteValue(w, v);
      w->U32(static_cast<uint32_t>(group.samples.size()));
      for (const Sample& sample : group.samples) {
        w->I64(sample.time);
        w->U32(static_cast<uint32_t>(sample.values.size()));
        for (double v : sample.values) w->F64(v);
      }
      w->U32(static_cast<uint32_t>(group.sums.size()));
      for (double v : group.sums) w->F64(v);
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
      for (uint32_t i = 0; r->ok() && i < n_samples; ++i) {
        Sample sample;
        sample.time = r->I64();
        uint32_t n_values = r->U32();
        for (uint32_t v = 0; r->ok() && v < n_values; ++v) {
          sample.values.push_back(r->F64());
        }
        group.samples.push_back(std::move(sample));
      }
      uint32_t n_sums = r->U32();
      for (uint32_t i = 0; r->ok() && i < n_sums; ++i) {
        group.sums.push_back(r->F64());
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
                  [](const Group& group) { return group.samples.empty(); });
    it = bucket.empty() ? groups_.erase(it) : std::next(it);
  }
}

std::string AggregateOp::DebugString() const {
  return "Aggregate: " + config_->description;
}

}  // namespace caesar
