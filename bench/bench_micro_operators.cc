// Micro-benchmarks of the CAESAR algebra operators and runtime primitives
// (google-benchmark): per-event costs of filter, projection, sequence
// matching (with and without pushed predicates, and a keyed leading
// negation over a varying number of distinct keys), sliding aggregation, the
// context bit vector, and expression evaluation. These numbers ground the
// cost model's relative unit costs.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

#include "algebra/aggregate_op.h"
#include "algebra/basic_ops.h"
#include "algebra/context_ops.h"
#include "algebra/pattern_op.h"
#include "common/rng.h"
#include "compile/compiled_pattern_op.h"
#include "compile/compiler.h"
#include "expr/compiled.h"
#include "expr/parser.h"
#include "runtime/context_vector.h"

namespace caesar {
namespace {

// Shared fixture data: a Reading(seg, value, sec) stream.
class OperatorBench {
 public:
  OperatorBench() : contexts_(4, 0) {
    type_ = registry_.RegisterOrGet("R", {{"seg", ValueType::kInt},
                                          {"value", ValueType::kInt},
                                          {"sec", ValueType::kInt}});
    ctx_.contexts = &contexts_;
    ctx_.ops_counter = &ops_;
    Rng rng(7);
    for (Timestamp t = 0; t < 4096; ++t) {
      batch_.push_back(MakeEvent(
          type_, t, {Value(int64_t{1}), Value(rng.Uniform(0, 9)), Value(t)}));
      ticks_.push_back({batch_.back()});
    }
  }

  std::shared_ptr<const CompiledExpr> Predicate(const std::string& text,
                                                const BindingSet& bindings) {
    auto expr = ParseExpr(text);
    auto compiled = Compile(expr.value(), bindings);
    return std::shared_ptr<const CompiledExpr>(std::move(compiled).value());
  }

  BindingSet OneVar(const char* name) {
    BindingSet bindings;
    bindings.Add({name, type_, &registry_.type(type_).schema});
    return bindings;
  }

  TypeRegistry registry_;
  TypeId type_;
  ContextBitVector contexts_;
  uint64_t ops_ = 0;
  OpExecContext ctx_;
  EventBatch batch_;
  // batch_ one event (one tick) per batch, as the engine feeds a pattern.
  std::vector<EventBatch> ticks_;
};

OperatorBench& Fixture() {
  static OperatorBench* fixture = new OperatorBench();
  return *fixture;
}

void BM_FilterOp(benchmark::State& state) {
  OperatorBench& fx = Fixture();
  FilterOp filter(fx.Predicate("r.value > 4", fx.OneVar("r")));
  for (auto _ : state) {
    EventBatch out;
    filter.Process(fx.batch_, &out, &fx.ctx_, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * fx.batch_.size());
}
BENCHMARK(BM_FilterOp);

void BM_ProjectionOp(benchmark::State& state) {
  OperatorBench& fx = Fixture();
  TypeId out_type = fx.registry_.RegisterOrGet(
      "Out", {{"value", ValueType::kInt}});
  ProjectionOp projection(out_type, {fx.Predicate("r.value", fx.OneVar("r"))});
  for (auto _ : state) {
    EventBatch out;
    projection.Process(fx.batch_, &out, &fx.ctx_, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * fx.batch_.size());
}
BENCHMARK(BM_ProjectionOp);

// SEQ(R a, R b) WITHIN 32, compiled once; each iteration runs the operator
// on a fresh state, one tick per Process call as the engine does, so runs
// expire as the stream moves on.
std::shared_ptr<const CompiledAutomaton> MakeSeq(OperatorBench& fx,
                                                 bool pushed) {
  BindingSet bindings;
  bindings.Add({"a", fx.type_, &fx.registry_.type(fx.type_).schema});
  bindings.Add({"b", fx.type_, &fx.registry_.type(fx.type_).schema});
  auto config = std::make_shared<PatternOpConfig>();
  config->positions.push_back({fx.type_, false, {}});
  PatternOpConfig::Position second;
  second.type_id = fx.type_;
  if (pushed) {
    second.predicates.push_back(fx.Predicate("a.value = b.value", bindings));
  }
  config->positions.push_back(std::move(second));
  config->within = 32;
  config->output_type = fx.registry_.RegisterOrGet(
      "$bench_seq", {{"a.seg", ValueType::kInt},
                     {"a.value", ValueType::kInt},
                     {"a.sec", ValueType::kInt},
                     {"b.seg", ValueType::kInt},
                     {"b.value", ValueType::kInt},
                     {"b.sec", ValueType::kInt}});
  config->description = "SEQ(R a, R b)";
  return CompilePattern(config);
}

void BM_SeqPatternPushedPredicates(benchmark::State& state) {
  OperatorBench& fx = Fixture();
  const auto automaton = MakeSeq(fx, /*pushed=*/true);
  const CompiledPatternOp seq(automaton);
  for (auto _ : state) {
    CompiledPatternOp::State runs(automaton.get());
    EventBatch out;
    for (const EventBatch& tick : fx.ticks_) {
      seq.Process(tick, &out, &fx.ctx_, &runs);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * fx.batch_.size());
}
BENCHMARK(BM_SeqPatternPushedPredicates);

void BM_SeqPatternUnpushed(benchmark::State& state) {
  OperatorBench& fx = Fixture();
  const auto automaton = MakeSeq(fx, /*pushed=*/false);
  const CompiledPatternOp seq(automaton);
  for (auto _ : state) {
    CompiledPatternOp::State runs(automaton.get());
    EventBatch out;
    for (const EventBatch& tick : fx.ticks_) {
      seq.Process(tick, &out, &fx.ctx_, &runs);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * fx.batch_.size());
}
BENCHMARK(BM_SeqPatternUnpushed);

// SEQ(NOT R a, R b) WITHIN 64 WHERE a.value = b.value over a stream whose
// `value` takes range(0) distinct keys, fed one tick (one event) per
// Process call as the engine does: every b probes the ~64 buffered
// reports, of which about one in range(0) shares its key.
void BM_SeqPatternLeadingNegation(benchmark::State& state) {
  OperatorBench& fx = Fixture();
  BindingSet bindings;
  bindings.Add({"a", fx.type_, &fx.registry_.type(fx.type_).schema});
  bindings.Add({"b", fx.type_, &fx.registry_.type(fx.type_).schema});
  auto config = std::make_shared<PatternOpConfig>();
  config->positions.push_back(
      {fx.type_, true, {fx.Predicate("a.value = b.value", bindings)}});
  config->positions.push_back({fx.type_, false, {}});
  config->within = 64;
  config->output_type = fx.type_;
  config->description = "SEQ(NOT R a, R b)";
  const auto automaton = CompilePattern(config);
  Rng rng(11);
  std::vector<EventBatch> ticks;
  for (Timestamp t = 0; t < 4096; ++t) {
    ticks.push_back({MakeEvent(fx.type_, t,
                               {Value(int64_t{1}),
                                Value(rng.Uniform(0, state.range(0) - 1)),
                                Value(t)})});
  }
  const CompiledPatternOp seq(automaton);
  for (auto _ : state) {
    CompiledPatternOp::State runs(automaton.get());
    EventBatch out;
    for (const EventBatch& tick : ticks) {
      seq.Process(tick, &out, &fx.ctx_, &runs);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * ticks.size());
}
BENCHMARK(BM_SeqPatternLeadingNegation)->Arg(1)->Arg(16)->Arg(256);

// One group over the fixture stream (one event per tick), so the live
// window holds `window` samples and each output folds over all of them.
void BM_AggregateOp(benchmark::State& state) {
  OperatorBench& fx = Fixture();
  auto config = std::make_shared<AggregateOpConfig>();
  config->input_type = fx.type_;
  config->group_by = {0};
  config->aggregates = {{AggregateFunc::kCount, -1}, {AggregateFunc::kAvg, 1}};
  config->window_length = state.range(0);
  config->output_type = fx.registry_.RegisterOrGet(
      "$bench_agg", {{"seg", ValueType::kInt},
                     {"cnt", ValueType::kInt},
                     {"avg", ValueType::kDouble}});
  config->description = "bench";
  const AggregateOp agg(config);
  for (auto _ : state) {
    AggregateOp::State groups;
    EventBatch out;
    agg.Process(fx.batch_, &out, &fx.ctx_, &groups);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * fx.batch_.size());
}
BENCHMARK(BM_AggregateOp)->Arg(16)->Arg(64)->Arg(256);

void BM_ContextWindowProbe(benchmark::State& state) {
  OperatorBench& fx = Fixture();
  ContextWindowOp window({1}, "bench");
  fx.contexts_.Initiate(1, 0);
  for (auto _ : state) {
    EventBatch out;
    window.Process(fx.batch_, &out, &fx.ctx_, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * fx.batch_.size());
}
BENCHMARK(BM_ContextWindowProbe);

void BM_ContextBitVectorTransitions(benchmark::State& state) {
  ContextBitVector vector(16, 0);
  Timestamp t = 0;
  for (auto _ : state) {
    vector.Initiate(3, ++t);
    vector.Initiate(5, ++t);
    benchmark::DoNotOptimize(vector.IsActive(5));
    vector.Terminate(3, ++t);
    vector.Terminate(5, ++t);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_ContextBitVectorTransitions);

void BM_ExpressionEval(benchmark::State& state) {
  OperatorBench& fx = Fixture();
  auto predicate =
      fx.Predicate("r.value * 2 + 1 > 5 AND r.seg = 1", fx.OneVar("r"));
  EventPtr event = fx.batch_[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(predicate->EvalBool(&event));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpressionEval);

}  // namespace
}  // namespace caesar

// Custom main instead of BENCHMARK_MAIN(): peel off --metrics-out before
// google-benchmark sees the (unrecognized) flag. The micro-benchmarks call
// operators directly without an Engine, so the emitted metrics file carries
// an empty runs array — schema-valid, like bench_fig11a_optimizer.
int main(int argc, char** argv) {
  std::string metrics_out;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--metrics-out=";
    if (arg.rfind(prefix, 0) == 0) {
      metrics_out = arg.substr(prefix.size());
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  caesar::bench::MetricsSink sink("bench_micro_operators", metrics_out);
  sink.Write();
  return 0;
}
