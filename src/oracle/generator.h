// Seeded random generator of well-formed CAESAR models and matching event
// streams, for differential testing against the reference interpreter
// (oracle.h).
//
// Every generated model follows the repo's synthetic-workload shape (cf.
// workloads/synthetic.cc): a monotone integer signal `pos = t` drives 2-6
// context types — overlapping user windows with one-shot
// INITIATE/TERMINATE bounds on the signal, optionally a SWITCH pair and a
// helper-derived window — plus a workload of context processing queries:
// SEQ patterns (with join predicates and negation), sliding-window
// aggregates with HAVING over a double attribute of mixed magnitudes,
// projections, and consumers of derived types.
//
// The generator deliberately stays inside the fragment where every engine
// plan shape is provably equivalent to the reference semantics:
//
//  - SEQ and aggregate patterns read raw input types only; derived types
//    are consumed through single-position event matches. (Multi-position
//    patterns over complex events make the plan shapes differ on events
//    whose occurrence interval starts before the window.)
//  - Window bounds are distinct values of the monotone signal, each
//    crossed exactly once and in sorted order — the soundness
//    precondition of the window-grouping transform (a cyclic signal would
//    re-trigger interior bounds out of order and legitimately diverge on
//    grouped plans). It also means no tick both terminates and
//    re-initiates the same context.
//  - Threshold-bounded (groupable) deriving queries carry no DERIVE
//    clause: grouping keeps one deriving query per bound value, so a
//    DERIVE on a deduplicated bound would be dropped. Derive-with-action
//    coverage rides on the non-groupable `hot` window instead.
//  - A partition sees one Sig event per tick (plus identical duplicates),
//    so every leg folds an aggregate window in time order whatever the
//    arrival order of equal-time events; double sums are not associative.
//
// Streams: `clean` is the canonical time-ordered stream (it may contain
// duplicates — those are part of the semantics). DisorderStream applies a
// bounded per-event arrival delay (a reorder ingest with slack >= the
// bound restores the clean sequence up to equal-time arrival order, which
// the generated fragment is insensitive to), and InjectJunk adds malformed
// rows and beyond-slack stragglers that the ingest layer must quarantine
// without touching the derived stream.

#ifndef CAESAR_ORACLE_GENERATOR_H_
#define CAESAR_ORACLE_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "event/event.h"
#include "event/schema.h"
#include "query/model.h"

namespace caesar {

struct GeneratorOptions {
  int min_segments = 1;
  int max_segments = 3;
  Timestamp min_duration = 60;
  Timestamp max_duration = 140;

  // Arrival-delay bound for DisorderStream (engine reorder slack must be
  // >= this for lossless re-sequencing).
  Timestamp max_delay = 3;

  double duplicate_rate = 0.04;   // clean-stream duplicate events
  double malformed_rate = 0.02;   // InjectJunk: malformed rows
  double late_rate = 0.01;        // InjectJunk: beyond-slack stragglers

  // Guarantee at least one negated SEQ query (for the planted-bug
  // sensitivity check).
  bool force_negation = false;
};

// One generated (model, stream) pair plus feature flags used for corpus
// selection and reporting.
struct GeneratedCase {
  explicit GeneratedCase(TypeRegistry* registry) : model(registry) {}

  CaesarModel model;
  EventBatch clean;        // canonical time-ordered stream
  Timestamp max_delay = 0; // the bound DisorderStream was parameterized with

  bool has_negation = false;
  bool has_leading_negation = false;
  bool has_aggregate = false;
  bool has_switch = false;
  bool has_consumer = false;
  bool has_helper = false;
  bool multi_window = false;
  bool has_shared_bound = false;

  std::string summary;  // one line, human-readable
};

// Generates the case for `seed`. The caller should pass a fresh
// TypeRegistry per case: query labels are seed-independent, so two cases
// sharing a registry could collide on derived-type schemas.
Result<GeneratedCase> GenerateCase(uint64_t seed, TypeRegistry* registry,
                                   const GeneratorOptions& options = {});

// Model with only the queries whose indices appear in `keep` (same
// relative order); contexts, default, and partitioning are preserved.
// Used by the shrinker; the result may fail to translate (e.g. a kept
// consumer lost its producer), which callers treat as an invalid
// shrink candidate.
Result<CaesarModel> RestrictQueries(const CaesarModel& model,
                                    const std::vector<int>& keep);

// Applies a bounded per-event arrival delay drawn from [0, max_delay] and
// stable-sorts by (time + delay, original index). Deterministic in
// (clean, seed).
EventBatch DisorderStream(const EventBatch& clean, uint64_t seed,
                          Timestamp max_delay);

// Named model mutations for the lint oracle (tools/caesar_lint
// --inject-bug, and the fuzz harness's lint leg): each breaks a
// well-formed model in a way the static analyzer must flag with the paired
// diagnostic code, while the unmutated model lints clean.
std::vector<std::string> ModelMutationNames();

// Applies the named mutation to a copy of `model` and sets *expected_code
// to the diagnostic code ("C001", "W204", ...) the linter must report.
// Fails on unknown mutation names, or with FailedPrecondition when the
// model lacks the shape the mutation needs (e.g. no groupable window to
// invert); callers treat that as "skip".
Result<CaesarModel> MutateModel(const CaesarModel& model,
                                const std::string& mutation,
                                std::string* expected_code);

// Inserts malformed rows (unknown type id, negative occurrence time,
// inverted interval) and beyond-slack stragglers into `stream`. None of
// the injected events can be admitted by a reorder ingest with the given
// slack, so the derived stream is unchanged. Deterministic in
// (stream, seed).
EventBatch InjectJunk(const EventBatch& stream, uint64_t seed,
                      const TypeRegistry& registry, TypeId clone_type,
                      Timestamp slack, double malformed_rate,
                      double late_rate);

}  // namespace caesar

#endif  // CAESAR_ORACLE_GENERATOR_H_
