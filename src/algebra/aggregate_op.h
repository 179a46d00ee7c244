// Sliding-window grouped aggregation (extension to the paper's six-operator
// algebra; see query/model.h for why the Linear Road context deriving
// queries need it — e.g. "over 50 cars per minute with an average speed
// below 40 mph" in Section 1).
//
// For each input event, the sample joins the group identified by the
// group-by attributes, samples older than `window_length` are evicted, and —
// if the HAVING predicate passes (or is absent) — one output event is
// emitted with the group key and the aggregate values. Each aggregate is
// one left-to-right fold over the group's live samples, the rule of the
// reference interpreter (oracle/oracle.cc), so the two agree bit for bit.

#ifndef CAESAR_ALGEBRA_AGGREGATE_OP_H_
#define CAESAR_ALGEBRA_AGGREGATE_OP_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/operator.h"
#include "expr/compiled.h"
#include "query/model.h"

namespace caesar {

// Immutable configuration, shared by every partition that runs the query.
struct AggregateOpConfig {
  TypeId input_type = kInvalidTypeId;
  TypeId output_type = kInvalidTypeId;
  std::vector<int> group_by;  // attribute indices of the input schema
  struct Agg {
    AggregateFunc func;
    int attr_index = -1;  // -1 for COUNT(*)
  };
  std::vector<Agg> aggregates;
  Timestamp window_length = 0;
  // HAVING predicate compiled against the output schema (group-by columns
  // followed by aggregate columns); may be null.
  std::shared_ptr<const CompiledExpr> having;
  std::string description;
};

class AggregateOp : public Operator {
 public:
  // One partition's groups.
  class State : public OperatorState {
   public:
    void Reset() override;
    // Evicts the samples older than `t` and erases each group (and hash
    // bucket) that this leaves empty: a group is empty exactly when its
    // newest sample is older than `t`. A later event of that key starts a
    // new group, keyed by its own representation (int 1 vs double 1.0).
    void ExpireBefore(Timestamp t) override;
    void Save(StateWriter* w) const override;
    Status Load(StateReader* r) override;

    size_t num_groups() const;

   private:
    friend class AggregateOp;
    // The live window, oldest first: sample i has time times[i] and one
    // value per aggregate (0 for COUNT) from values[i * width].
    struct Group {
      std::vector<Value> key;
      std::vector<Timestamp> times;
      std::vector<double> values;
    };

    static void Evict(Group* group, Timestamp horizon);

    std::unordered_map<size_t, std::vector<Group>> groups_;  // by key hash
  };

  explicit AggregateOp(std::shared_ptr<const AggregateOpConfig> config);

  std::unique_ptr<OperatorState> NewState() const override;
  void Process(const EventBatch& input, EventBatch* output,
               OpExecContext* ctx, OperatorState* state) const override;
  std::string DebugString() const override;
  double UnitCost() const override { return 2.0; }

  const AggregateOpConfig& config() const { return *config_; }

 private:
  std::vector<Value> ComputeOutputs(const State::Group& group) const;

  std::shared_ptr<const AggregateOpConfig> config_;
};

}  // namespace caesar

#endif  // CAESAR_ALGEBRA_AGGREGATE_OP_H_
