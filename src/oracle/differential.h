// Differential-testing harness: runs a generated (model, stream) pair
// through the reference interpreter (oracle.h) and through the engine under
// every configuration leg — plan shape (plain / push-down / optimizer
// without and with window grouping) × worker threads (1/2/4/8) × ingest
// policy (strict on the clean stream, reorder on the disordered one) ×
// metrics granularity (off / operator) — and compares the derived streams
// tick by tick. Every leg is re-run on plans compiled with the absint pass
// off (PlanOptions::absint) and must reproduce its own byte stream.
//
// Canonicalization: within one tick the engine's output order is a plan
// property (per-query plans emit in chain order, grouped plans in grouped
// order), so equality is per-tick *multiset* equality of rendered events.
// Everything else — tick set, event payloads, counts — must match exactly.
//
// The context-independent BaselinePlan is deliberately not a leg: its
// private context guards re-derive contexts per query and diverge by design
// on models whose deriving queries are themselves context-gated (that
// divergence is the paper's Fig. 9 point, not a bug).
//
// Repro files: every divergence can be written as a small line-based file
// (seed + generator knobs + leg + query/event masks) that regenerates the
// failing case deterministically; ShrinkRepro greedily drops queries and
// event ranges while the divergence persists. tests/corpus/ checks in
// minimized specs that are replayed on every ctest run.

#ifndef CAESAR_ORACLE_DIFFERENTIAL_H_
#define CAESAR_ORACLE_DIFFERENTIAL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "event/event.h"
#include "event/schema.h"
#include "oracle/generator.h"
#include "oracle/oracle.h"
#include "query/model.h"

namespace caesar {

// One engine configuration to compare against the oracle.
struct EngineLeg {
  int plan_shape = 0;  // 0 plain, 1 push-down, 2 optimizer, 3 opt+grouping
  int threads = 1;
  bool reorder = false;          // strict/clean vs reorder/disordered
  bool operator_metrics = false;

  std::string Name() const;  // e.g. "shared/t4/reorder/m1"
};

// All 64 legs: 4 plan shapes x {1,2,4,8} threads x {strict, reorder} x
// {metrics off, operator metrics}.
std::vector<EngineLeg> FullMatrix();
// 8 representative legs covering every value of every dimension at least
// once (for the in-tree quick tests).
std::vector<EngineLeg> QuickMatrix();

// Derived stream canonical form: per tick, the multiset of rendered events.
using TickCanon = std::map<Timestamp, std::multiset<std::string>>;
TickCanon CanonicalByTick(const EventBatch& events,
                          const TypeRegistry& registry);

struct DivergenceReport {
  bool diverged = false;
  std::string leg;     // first diverging leg
  std::string detail;  // first differing tick, counts, sample events
};

struct DifferentialOptions {
  OracleOptions oracle;
  bool full_matrix = true;    // FullMatrix vs QuickMatrix
  std::string only_leg;       // non-empty: compare just this leg
};

// Compares the oracle's derived stream (over `clean`) against every engine
// leg. Strict legs consume `clean`; reorder legs consume `disordered` with
// `reorder_slack`. An engine-side Run error counts as a divergence on that
// leg. A non-ok Status means the harness itself could not set the case up
// (e.g. the model does not translate).
Result<DivergenceReport> CompareCase(const CaesarModel& model,
                                     const EventBatch& clean,
                                     const EventBatch& disordered,
                                     Timestamp reorder_slack,
                                     const DifferentialOptions& options = {});

// Crash-recovery leg: runs the optimizer plan over `clean` in tick-aligned
// batches with durability on, kills the engine at a seed-chosen crash point
// (WAL append, group commit, checkpoint write, or checkpoint publication),
// rebuilds it with Engine::Recover, re-submits the batches after
// durable_batch_seq(), and requires the remaining derived stream to be
// byte-identical to an uninterrupted durability-off run — plus equal ingest
// degradation counters. Divergences report as leg "recovery".
// Scratch WAL/checkpoint directories live under the system temp dir and are
// removed on success.
Result<DivergenceReport> CompareCrashRecovery(
    const CaesarModel& model, const EventBatch& clean, uint64_t seed,
    const DifferentialOptions& options = {});

// ---- Replayable repro files ------------------------------------------

// A divergence repro: everything needed to regenerate the failing case.
// `queries`/`events` are masks over the generated model/clean stream
// (empty = keep all); `events` holds inclusive index ranges.
struct ReproSpec {
  uint64_t seed = 0;
  GeneratorOptions generator;
  std::string leg;                                   // empty = all legs
  std::vector<int> queries;                          // kept query indices
  std::vector<std::pair<int64_t, int64_t>> events;   // kept clean ranges
  std::string expect = "diverge";                    // or "match"
  std::string bug;   // oracle fault injection: skip_negation,
                     // ignore_window_start, drop_having; empty = none
  std::string note;
};

std::string FormatRepro(const ReproSpec& spec);
Result<ReproSpec> ParseRepro(const std::string& text);
Status WriteRepro(const ReproSpec& spec, const std::string& path);
Result<ReproSpec> ReadRepro(const std::string& path);

// The case a ReproSpec denotes, regenerated and masked.
struct MaterializedCase {
  explicit MaterializedCase(TypeRegistry* registry) : model(registry) {}
  CaesarModel model;
  EventBatch clean;
  EventBatch disordered;
  Timestamp reorder_slack = 0;
  int num_queries = 0;  // after masking
  int num_events = 0;   // clean events after masking
  std::string summary;
};

Result<MaterializedCase> Materialize(const ReproSpec& spec,
                                     TypeRegistry* registry);

// Regenerates the case and compares (honoring spec.leg and spec.bug).
Result<DivergenceReport> ReplayRepro(const ReproSpec& spec,
                                     bool full_matrix = true);

// Greedy shrink: drop queries to a fixpoint, then remove event ranges in
// halving chunk sizes, keeping every candidate that still diverges.
// Candidates that fail to materialize or translate are skipped.
Result<ReproSpec> ShrinkRepro(const ReproSpec& spec, bool full_matrix = true);

// ---- Fuzz loop --------------------------------------------------------

struct FuzzOptions {
  uint64_t seed = 1;
  int iters = 100;
  double budget_seconds = 0;  // stop after this much wall time (0 = off)
  bool full_matrix = true;
  std::string bug;            // oracle fault injection for sensitivity runs
  GeneratorOptions generator;

  // Lint leg (analysis/analyzer.h): every generated model must analyze
  // clean — no error- or warning-severity diagnostics (notes are
  // expected; e.g. the non-groupable helper window). A lint hit counts as
  // a divergence on leg "lint".
  bool lint = true;

  // Sensitivity variant of the lint leg: apply this named model mutation
  // (generator.h ModelMutationNames) to each generated model and require
  // the analyzer to report the mutation's paired diagnostic code. Skips
  // the engine/oracle comparison (the mutated model is not meant to run).
  std::string model_mutation;

  // Adds the CompareCrashRecovery leg to every iteration that survives the
  // matrix comparison (kill at a seed-chosen crash point, recover, demand
  // byte-identical remaining output).
  bool crash_recovery = false;
};

struct FuzzResult {
  int iterations_run = 0;
  bool diverged = false;
  DivergenceReport report;  // first divergence
  ReproSpec repro;          // shrunken repro for it
};

// Runs GenerateCase(seed + i) for i in [0, iters), comparing each across
// the matrix; stops at the first divergence and shrinks it.
Result<FuzzResult> RunFuzz(const FuzzOptions& options);

}  // namespace caesar

#endif  // CAESAR_ORACLE_DIFFERENTIAL_H_
