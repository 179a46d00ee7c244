#include "oracle/differential.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "analysis/analyzer.h"
#include "optimizer/optimizer.h"
#include "optimizer/window_grouping.h"
#include "plan/translator.h"
#include "runtime/engine.h"

namespace caesar {
namespace {

constexpr const char* kShapeNames[] = {"plain", "push", "opt", "shared"};

std::string DescribeDiff(const TickCanon& expected, const TickCanon& actual) {
  std::set<Timestamp> ticks;
  for (const auto& [t, lines] : expected) ticks.insert(t);
  for (const auto& [t, lines] : actual) ticks.insert(t);
  const std::multiset<std::string> empty;
  for (Timestamp t : ticks) {
    auto ei = expected.find(t);
    auto ai = actual.find(t);
    const auto& e = ei == expected.end() ? empty : ei->second;
    const auto& a = ai == actual.end() ? empty : ai->second;
    if (e == a) continue;
    std::ostringstream os;
    os << "first differing tick " << t << ": oracle derives " << e.size()
       << " event(s), engine derives " << a.size();
    std::vector<std::string> only_oracle, only_engine;
    std::set_difference(e.begin(), e.end(), a.begin(), a.end(),
                        std::back_inserter(only_oracle));
    std::set_difference(a.begin(), a.end(), e.begin(), e.end(),
                        std::back_inserter(only_engine));
    int shown = 0;
    for (const std::string& line : only_oracle) {
      if (shown++ >= 3) {
        os << "\n  oracle-only: ... (" << only_oracle.size() << " total)";
        break;
      }
      os << "\n  oracle-only: " << line;
    }
    shown = 0;
    for (const std::string& line : only_engine) {
      if (shown++ >= 3) {
        os << "\n  engine-only: ... (" << only_engine.size() << " total)";
        break;
      }
      os << "\n  engine-only: " << line;
    }
    return os.str();
  }
  return "derived streams differ";
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = Trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<std::pair<int64_t, int64_t>> CompressRanges(
    const std::vector<int64_t>& sorted) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (int64_t v : sorted) {
    if (!out.empty() && v == out.back().second + 1) {
      out.back().second = v;
    } else {
      out.emplace_back(v, v);
    }
  }
  return out;
}

// Byte-exact rendering for the byte-identity checks (stronger than the
// per-tick multiset canon used against the oracle: emission *order* must
// agree too).
std::string RenderDerived(const EventBatch& events,
                          const TypeRegistry& registry) {
  std::ostringstream os;
  for (const EventPtr& event : events) {
    os << event->time() << " " << event->ToString(registry) << "\n";
  }
  return os.str();
}

std::string DescribeByteDiff(const std::string& expected,
                             const std::string& actual) {
  std::istringstream a(expected), b(actual);
  std::string line_a, line_b;
  int line = 0;
  while (true) {
    const bool has_a = static_cast<bool>(std::getline(a, line_a));
    const bool has_b = static_cast<bool>(std::getline(b, line_b));
    ++line;
    if (!has_a && !has_b) break;
    if (has_a != has_b || line_a != line_b) {
      std::ostringstream os;
      os << "output is not byte-identical at line " << line
         << ":\n  expected: " << (has_a ? line_a : "<end>")
         << "\n  actual:   " << (has_b ? line_b : "<end>");
      return os.str();
    }
  }
  return "output is not byte-identical";
}

// The four plan shapes of EngineLeg::plan_shape, with the absint pass on or
// off. Shape 2 is the optimizer's plan without window grouping, which is
// exactly the push-down translation; shape 3 adds window grouping.
Result<std::vector<ExecutablePlan>> BuildPlans(const CaesarModel& model,
                                               const CaesarModel& grouped,
                                               Timestamp default_within,
                                               bool absint) {
  PlanOptions plain;
  plain.push_down_context_windows = false;
  plain.push_predicates_into_pattern = false;
  PlanOptions pushed;
  for (PlanOptions* options : {&plain, &pushed}) {
    options->default_within = default_within;
    options->absint = absint;
  }
  std::vector<ExecutablePlan> plans;
  for (const auto& [shape_model, options] :
       {std::pair{&model, &plain}, std::pair{&model, &pushed},
        std::pair{&model, &pushed}, std::pair{&grouped, &pushed}}) {
    CAESAR_ASSIGN_OR_RETURN(ExecutablePlan plan,
                            TranslateModel(*shape_model, *options));
    plans.push_back(std::move(plan));
  }
  return plans;
}

Status ApplyBug(const std::string& bug, OracleOptions* oracle) {
  if (bug.empty()) return Status::Ok();
  if (bug == "skip_negation") {
    oracle->bug_skip_negation = true;
  } else if (bug == "ignore_window_start") {
    oracle->bug_ignore_window_start = true;
  } else if (bug == "drop_having") {
    oracle->bug_drop_having = true;
  } else {
    return Status::InvalidArgument("unknown oracle bug: " + bug);
  }
  return Status::Ok();
}

}  // namespace

std::string EngineLeg::Name() const {
  std::ostringstream os;
  os << kShapeNames[plan_shape] << "/t" << threads << "/"
     << (reorder ? "reorder" : "strict") << "/"
     << (operator_metrics ? "m1" : "m0");
  return os.str();
}

std::vector<EngineLeg> FullMatrix() {
  std::vector<EngineLeg> legs;
  for (int shape = 0; shape < 4; ++shape) {
    for (int threads : {1, 2, 4, 8}) {
      for (bool reorder : {false, true}) {
        for (bool metrics : {false, true}) {
          legs.push_back({shape, threads, reorder, metrics});
        }
      }
    }
  }
  return legs;
}

std::vector<EngineLeg> QuickMatrix() {
  return {
      {0, 1, false, false}, {1, 2, false, false}, {2, 4, true, false},
      {3, 8, true, true},   {1, 4, true, false},  {3, 1, false, true},
      {2, 2, false, false}, {0, 8, true, false},
  };
}

TickCanon CanonicalByTick(const EventBatch& events,
                          const TypeRegistry& registry) {
  TickCanon canon;
  for (const EventPtr& event : events) {
    canon[event->time()].insert(event->ToString(registry));
  }
  return canon;
}

Result<DivergenceReport> CompareCase(const CaesarModel& model,
                                     const EventBatch& clean,
                                     const EventBatch& disordered,
                                     Timestamp reorder_slack,
                                     const DifferentialOptions& options) {
  // The oracle runs first so derived/composite types are interned in its
  // registration order; the translations below then find them already
  // present (identical schemas) and resolve single-pass.
  CAESAR_ASSIGN_OR_RETURN(
      EventBatch expected, RunReferenceModel(model, clean, options.oracle));
  const TickCanon expected_canon =
      CanonicalByTick(expected, *model.registry());

  CAESAR_ASSIGN_OR_RETURN(CaesarModel grouped, ApplyWindowGrouping(model));
  CAESAR_ASSIGN_OR_RETURN(
      std::vector<ExecutablePlan> plans,
      BuildPlans(model, grouped, options.oracle.default_within, true));
  CAESAR_ASSIGN_OR_RETURN(
      std::vector<ExecutablePlan> noabsint_plans,
      BuildPlans(model, grouped, options.oracle.default_within, false));

  DivergenceReport report;
  const std::vector<EngineLeg> legs =
      options.full_matrix ? FullMatrix() : QuickMatrix();

  auto run_leg = [&](const EngineLeg& leg, const ExecutablePlan& plan,
                     const std::string& name,
                     EventBatch* derived) -> Result<bool> {
    EngineOptions eo;
    eo.num_threads = leg.threads;
    eo.gc_interval = options.oracle.gc_interval;
    eo.gc_horizon = options.oracle.gc_horizon;
    eo.metrics = leg.operator_metrics ? MetricsGranularity::kOperator
                                      : MetricsGranularity::kOff;
    eo.ingest_policy =
        leg.reorder ? IngestPolicy::kReorder : IngestPolicy::kStrict;
    eo.reorder_slack = leg.reorder ? reorder_slack : 0;
    CAESAR_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                            Engine::Create(plan, eo));
    auto run = engine->Run(leg.reorder ? disordered : clean, derived);
    if (!run.ok()) {
      report.diverged = true;
      report.leg = name;
      report.detail = "engine Run failed: " + run.status().ToString();
      return false;
    }
    return true;
  };

  for (const EngineLeg& leg : legs) {
    if (!options.only_leg.empty() && leg.Name() != options.only_leg) continue;
    EventBatch derived;
    CAESAR_ASSIGN_OR_RETURN(
        bool ok, run_leg(leg, plans[leg.plan_shape], leg.Name(), &derived));
    if (!ok) return report;
    const TickCanon actual_canon = CanonicalByTick(derived, *model.registry());
    if (actual_canon != expected_canon) {
      report.diverged = true;
      report.leg = leg.Name();
      report.detail = DescribeDiff(expected_canon, actual_canon);
      return report;
    }
    // The absint pass (pruning + re-ranking) must be a pure optimization:
    // the same leg on automata compiled without it has to produce the
    // identical byte stream, emission order included.
    const std::string noabsint_leg = leg.Name() + "/noabsint";
    EventBatch noabsint_derived;
    CAESAR_ASSIGN_OR_RETURN(
        bool noabsint_ok, run_leg(leg, noabsint_plans[leg.plan_shape],
                                  noabsint_leg, &noabsint_derived));
    if (!noabsint_ok) return report;
    const std::string bytes = RenderDerived(derived, *model.registry());
    const std::string noabsint_bytes =
        RenderDerived(noabsint_derived, *model.registry());
    if (noabsint_bytes != bytes) {
      report.diverged = true;
      report.leg = noabsint_leg;
      report.detail = DescribeByteDiff(bytes, noabsint_bytes);
      return report;
    }
  }
  return report;
}

Result<DivergenceReport> CompareCrashRecovery(
    const CaesarModel& model, const EventBatch& clean, uint64_t seed,
    const DifferentialOptions& options) {
  DivergenceReport report;
  if (clean.empty()) return report;

  OptimizerOptions opt;
  opt.default_within = options.oracle.default_within;
  CAESAR_ASSIGN_OR_RETURN(ExecutablePlan plan, OptimizeModel(model, opt));

  // Tick-aligned batches: one Run = one WAL batch, and events of one time
  // stamp never straddle a commit.
  std::vector<EventBatch> batches;
  {
    int distinct = 0;
    Timestamp prev = 0;
    bool counted_any = false;
    for (const EventPtr& event : clean) {
      if (!counted_any || event->time() != prev) {
        ++distinct;
        prev = event->time();
        counted_any = true;
      }
    }
    const int per_batch = std::max(1, distinct / 6);
    EventBatch current;
    int in_batch = 0;
    bool any = false;
    for (const EventPtr& event : clean) {
      if (!any || event->time() != prev) {
        if (in_batch == per_batch) {
          batches.push_back(std::move(current));
          current.clear();
          in_batch = 0;
        }
        ++in_batch;
        prev = event->time();
        any = true;
      }
      current.push_back(event);
    }
    if (!current.empty()) batches.push_back(std::move(current));
  }

  constexpr const char* kPoints[] = {"wal_append", "wal_commit",
                                     "checkpoint_write", "checkpoint_publish"};
  const std::string point = kPoints[seed % 4];

  const std::string leg = "recovery";

  EngineOptions base;
  base.gc_interval = options.oracle.gc_interval;
  base.gc_horizon = options.oracle.gc_horizon;

  // Uninterrupted reference, durability off.
  std::vector<std::string> expected;
  Engine reference(plan, base);
  for (const EventBatch& batch : batches) {
    EventBatch derived;
    auto run = reference.Run(batch, &derived);
    if (!run.ok()) {
      report.diverged = true;
      report.leg = leg;
      report.detail = "reference Run failed: " + run.status().ToString();
      return report;
    }
    expected.push_back(RenderDerived(derived, *model.registry()));
  }

  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() /
      ("caesar_diff_recovery_" + std::to_string(::getpid()) + "_" +
       std::to_string(seed));
  std::filesystem::remove_all(scratch);
  auto durable = [&](const std::string& suffix) {
    EngineOptions eo = base;
    eo.durability.mode = DurabilityMode::kWalCheckpoint;
    eo.durability.dir = (scratch / suffix).string();
    eo.durability.fsync = FsyncPolicy::kNone;
    eo.durability.checkpoint_interval_ticks = 8;
    return eo;
  };

  // Probe pass: count how often the crash point is reachable (and check
  // that logging alone does not perturb the output).
  int64_t occurrences = 0;
  {
    EngineOptions eo = durable("probe");
    eo.durability.crash_hook = [&occurrences, &point](std::string_view p) {
      if (p == point) ++occurrences;
      return false;
    };
    Engine probe(plan, eo);
    for (size_t b = 0; b < batches.size(); ++b) {
      EventBatch derived;
      auto run = probe.Run(batches[b], &derived);
      if (!run.ok()) {
        report.diverged = true;
        report.leg = leg;
        report.detail = "durable Run failed: " + run.status().ToString();
        return report;
      }
      const std::string bytes = RenderDerived(derived, *model.registry());
      if (bytes != expected[b]) {
        report.diverged = true;
        report.leg = leg;
        report.detail = "WAL-on output differs from durability-off, batch " +
                        std::to_string(b) + ": " +
                        DescribeByteDiff(expected[b], bytes);
        return report;
      }
    }
  }
  if (occurrences == 0) {
    // Stream too short for this crash point (e.g. no checkpoint cadence
    // hit); nothing to kill.
    std::filesystem::remove_all(scratch);
    return report;
  }

  // Crash pass: kill at a seed-chosen occurrence.
  const int64_t nth = static_cast<int64_t>((seed / 4) % occurrences);
  bool crashed = false;
  {
    EngineOptions eo = durable("crash");
    int64_t seen = 0;
    eo.durability.crash_hook = [&seen, &point, nth](std::string_view p) {
      return p == point && seen++ == nth;
    };
    Engine victim(plan, eo);
    for (const EventBatch& batch : batches) {
      if (!victim.Run(batch, nullptr).ok()) {
        crashed = true;
        break;
      }
    }
  }
  if (!crashed) {
    report.diverged = true;
    report.leg = leg;
    report.detail = "crash hook at " + point + " occurrence " +
                    std::to_string(nth) + " never fired";
    return report;
  }

  // Recovery pass: rebuild, re-submit the non-durable suffix, compare.
  auto recovered = Engine::Recover(plan, durable("crash"));
  if (!recovered.ok()) {
    report.diverged = true;
    report.leg = leg;
    report.detail = "Engine::Recover failed: " +
                    recovered.status().ToString();
    return report;
  }
  Engine& engine = *recovered.value();
  const uint64_t resume = engine.durable_batch_seq();
  if (resume > batches.size()) {
    report.diverged = true;
    report.leg = leg;
    report.detail = "durable_batch_seq " + std::to_string(resume) +
                    " beyond the " + std::to_string(batches.size()) +
                    " submitted batches";
    return report;
  }
  for (size_t b = resume; b < batches.size(); ++b) {
    EventBatch derived;
    auto run = engine.Run(batches[b], &derived);
    if (!run.ok()) {
      report.diverged = true;
      report.leg = leg;
      report.detail = "post-recovery Run failed on batch " +
                      std::to_string(b) + ": " + run.status().ToString();
      return report;
    }
    const std::string bytes = RenderDerived(derived, *model.registry());
    if (bytes != expected[b]) {
      report.diverged = true;
      report.leg = leg;
      report.detail = "recovered output differs on batch " +
                      std::to_string(b) + " (crash at " + point +
                      " occurrence " + std::to_string(nth) + "): " +
                      DescribeByteDiff(expected[b], bytes);
      return report;
    }
  }
  const IngestMetrics& want = reference.ingest_metrics();
  const IngestMetrics& got = engine.ingest_metrics();
  if (want.admitted != got.admitted || want.reordered != got.reordered ||
      want.dropped_late != got.dropped_late ||
      want.quarantined != got.quarantined ||
      want.max_observed_lateness != got.max_observed_lateness ||
      reference.quarantine().total() != engine.quarantine().total()) {
    report.diverged = true;
    report.leg = leg;
    report.detail = "recovered degradation counters differ (crash at " +
                    point + " occurrence " + std::to_string(nth) + ")";
    return report;
  }
  std::filesystem::remove_all(scratch);
  return report;
}

std::string FormatRepro(const ReproSpec& spec) {
  std::ostringstream os;
  os << "# caesar differential repro; replay with"
     << " tools/fuzz_differential --replay <this file>\n";
  if (!spec.note.empty()) os << "# " << spec.note << "\n";
  os << "seed = " << spec.seed << "\n";
  os << "min_segments = " << spec.generator.min_segments << "\n";
  os << "max_segments = " << spec.generator.max_segments << "\n";
  os << "min_duration = " << spec.generator.min_duration << "\n";
  os << "max_duration = " << spec.generator.max_duration << "\n";
  os << "max_delay = " << spec.generator.max_delay << "\n";
  os << "duplicate_rate = " << spec.generator.duplicate_rate << "\n";
  os << "malformed_rate = " << spec.generator.malformed_rate << "\n";
  os << "late_rate = " << spec.generator.late_rate << "\n";
  os << "force_negation = " << (spec.generator.force_negation ? 1 : 0)
     << "\n";
  os << "leg = " << (spec.leg.empty() ? "*" : spec.leg) << "\n";
  if (spec.queries.empty()) {
    os << "queries = *\n";
  } else {
    os << "queries = ";
    for (size_t i = 0; i < spec.queries.size(); ++i) {
      if (i) os << ",";
      os << spec.queries[i];
    }
    os << "\n";
  }
  if (spec.events.empty()) {
    os << "events = *\n";
  } else {
    os << "events = ";
    for (size_t i = 0; i < spec.events.size(); ++i) {
      if (i) os << ",";
      os << spec.events[i].first << "-" << spec.events[i].second;
    }
    os << "\n";
  }
  os << "expect = " << spec.expect << "\n";
  if (!spec.bug.empty()) os << "bug = " << spec.bug << "\n";
  return os.str();
}

Result<ReproSpec> ParseRepro(const std::string& text) {
  ReproSpec spec;
  std::stringstream ss(text);
  std::string line;
  int lineno = 0;
  while (std::getline(ss, line)) {
    ++lineno;
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("repro line " + std::to_string(lineno) +
                                ": expected key = value");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    try {
      if (key == "seed") {
        spec.seed = std::stoull(value);
      } else if (key == "min_segments") {
        spec.generator.min_segments = static_cast<int>(std::stoll(value));
      } else if (key == "max_segments") {
        spec.generator.max_segments = static_cast<int>(std::stoll(value));
      } else if (key == "min_duration") {
        spec.generator.min_duration = std::stoll(value);
      } else if (key == "max_duration") {
        spec.generator.max_duration = std::stoll(value);
      } else if (key == "max_delay") {
        spec.generator.max_delay = std::stoll(value);
      } else if (key == "duplicate_rate") {
        spec.generator.duplicate_rate = std::stod(value);
      } else if (key == "malformed_rate") {
        spec.generator.malformed_rate = std::stod(value);
      } else if (key == "late_rate") {
        spec.generator.late_rate = std::stod(value);
      } else if (key == "force_negation") {
        spec.generator.force_negation = std::stoll(value) != 0;
      } else if (key == "leg") {
        spec.leg = value == "*" ? "" : value;
      } else if (key == "queries") {
        if (value != "*") {
          for (const std::string& item : SplitCommas(value)) {
            // Accept the same "lo-hi" range syntax as events; a bare
            // std::stoll would silently read "0-1" as 0 and drop queries.
            size_t dash = item.find('-', 1);
            if (dash == std::string::npos) {
              spec.queries.push_back(static_cast<int>(std::stoll(item)));
            } else {
              const int lo = static_cast<int>(std::stoll(item.substr(0, dash)));
              const int hi =
                  static_cast<int>(std::stoll(item.substr(dash + 1)));
              if (lo > hi) {
                return Status::ParseError("repro: inverted query range '" +
                                          item + "'");
              }
              for (int q = lo; q <= hi; ++q) spec.queries.push_back(q);
            }
          }
        }
      } else if (key == "events") {
        if (value != "*") {
          for (const std::string& item : SplitCommas(value)) {
            size_t dash = item.find('-');
            if (dash == std::string::npos) {
              int64_t v = std::stoll(item);
              spec.events.emplace_back(v, v);
            } else {
              const int64_t lo = std::stoll(item.substr(0, dash));
              const int64_t hi = std::stoll(item.substr(dash + 1));
              if (lo > hi) {
                return Status::ParseError("repro: inverted event range '" +
                                          item + "'");
              }
              spec.events.emplace_back(lo, hi);
            }
          }
        }
      } else if (key == "expect") {
        if (value != "match" && value != "diverge") {
          return Status::ParseError("repro: expect must be match or diverge");
        }
        spec.expect = value;
      } else if (key == "bug") {
        spec.bug = value;
      } else {
        return Status::ParseError("repro line " + std::to_string(lineno) +
                                  ": unknown key '" + key + "'");
      }
    } catch (const std::exception&) {
      return Status::ParseError("repro line " + std::to_string(lineno) +
                                ": bad value '" + value + "' for '" + key +
                                "'");
    }
  }
  return spec;
}

Status WriteRepro(const ReproSpec& spec, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write repro file: " + path);
  out << FormatRepro(spec);
  return out.good() ? Status::Ok()
                    : Status::Internal("short write: " + path);
}

Result<ReproSpec> ReadRepro(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read repro file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseRepro(buffer.str());
}

Result<MaterializedCase> Materialize(const ReproSpec& spec,
                                     TypeRegistry* registry) {
  CAESAR_ASSIGN_OR_RETURN(GeneratedCase gen,
                          GenerateCase(spec.seed, registry, spec.generator));
  MaterializedCase out(registry);
  if (spec.queries.empty()) {
    out.model = gen.model;
  } else {
    CAESAR_ASSIGN_OR_RETURN(out.model,
                            RestrictQueries(gen.model, spec.queries));
  }
  if (spec.events.empty()) {
    out.clean = gen.clean;
  } else {
    const int64_t n = static_cast<int64_t>(gen.clean.size());
    for (const auto& [lo, hi] : spec.events) {
      for (int64_t i = std::max<int64_t>(lo, 0);
           i <= std::min<int64_t>(hi, n - 1); ++i) {
        out.clean.push_back(gen.clean[i]);
      }
    }
  }
  out.reorder_slack = spec.generator.max_delay;
  out.disordered = InjectJunk(
      DisorderStream(out.clean, spec.seed, spec.generator.max_delay),
      spec.seed, *registry, registry->Lookup("Sig"), out.reorder_slack,
      spec.generator.malformed_rate, spec.generator.late_rate);
  out.num_queries = out.model.num_queries();
  out.num_events = static_cast<int>(out.clean.size());
  out.summary = gen.summary;
  return out;
}

Result<DivergenceReport> ReplayRepro(const ReproSpec& spec,
                                     bool full_matrix) {
  TypeRegistry registry;
  CAESAR_ASSIGN_OR_RETURN(MaterializedCase m, Materialize(spec, &registry));
  DifferentialOptions options;
  options.full_matrix = full_matrix;
  options.only_leg = spec.leg;
  CAESAR_RETURN_IF_ERROR(ApplyBug(spec.bug, &options.oracle));
  return CompareCase(m.model, m.clean, m.disordered, m.reorder_slack,
                     options);
}

Result<ReproSpec> ShrinkRepro(const ReproSpec& spec, bool full_matrix) {
  auto diverges = [&](const ReproSpec& candidate) {
    auto report = ReplayRepro(candidate, full_matrix);
    return report.ok() && report.value().diverged;
  };

  TypeRegistry registry;
  CAESAR_ASSIGN_OR_RETURN(MaterializedCase base, Materialize(spec, &registry));

  ReproSpec cur = spec;
  if (cur.queries.empty()) {
    for (int i = 0; i < base.num_queries; ++i) cur.queries.push_back(i);
  }

  // Phase 1: drop queries to a fixpoint. Candidates that orphan a consumer
  // fail to translate and are simply rejected by `diverges`.
  bool progress = true;
  while (progress && cur.queries.size() > 1) {
    progress = false;
    for (size_t i = 0; i < cur.queries.size() && cur.queries.size() > 1;) {
      ReproSpec candidate = cur;
      candidate.queries.erase(candidate.queries.begin() + i);
      if (diverges(candidate)) {
        cur = std::move(candidate);
        progress = true;
      } else {
        ++i;
      }
    }
  }

  // Phase 2: remove events. On legs without window grouping any subset of
  // the stream is a valid case, so ddmin-style chunk removal applies. On
  // grouping legs ("shared" plan shape, or no pinned leg) the grouped plan
  // is only equivalent to the base model when the monotone signal crosses
  // every window bound (see generator.h) — dropping an interior bound tick
  // manufactures a divergence that is a precondition violation, not a bug.
  // There the shrink is restricted to drops that preserve bound coverage:
  // whole partitions, suffix ticks, non-signal events, and duplicates.
  std::vector<int64_t> kept;
  if (cur.events.empty()) {
    for (int64_t i = 0; i < base.num_events; ++i) kept.push_back(i);
  } else {
    for (const auto& [lo, hi] : cur.events) {
      for (int64_t i = lo; i <= hi; ++i) kept.push_back(i);
    }
  }
  const bool grouping_leg = cur.leg.empty() || cur.leg.rfind("shared", 0) == 0;
  if (!grouping_leg) {
    size_t chunk = kept.size() / 2;
    if (chunk == 0) chunk = 1;
    while (true) {
      size_t i = 0;
      while (i < kept.size() && kept.size() > 1) {
        const size_t len = std::min(chunk, kept.size() - i);
        if (len >= kept.size()) break;
        std::vector<int64_t> candidate_kept;
        candidate_kept.reserve(kept.size() - len);
        candidate_kept.insert(candidate_kept.end(), kept.begin(),
                              kept.begin() + i);
        candidate_kept.insert(candidate_kept.end(), kept.begin() + i + len,
                              kept.end());
        ReproSpec candidate = cur;
        candidate.events = CompressRanges(candidate_kept);
        if (diverges(candidate)) {
          kept = std::move(candidate_kept);
          cur.events = std::move(candidate.events);
        } else {
          i += len;
        }
      }
      if (chunk == 1) break;
      chunk /= 2;
    }
  } else {
    TypeRegistry shrink_registry;
    CAESAR_ASSIGN_OR_RETURN(
        GeneratedCase gen,
        GenerateCase(spec.seed, &shrink_registry, spec.generator));
    const TypeId sig_id = shrink_registry.Lookup("Sig");
    auto try_kept = [&](std::vector<int64_t> candidate_kept) {
      if (candidate_kept.empty() || candidate_kept.size() == kept.size()) {
        return false;
      }
      ReproSpec candidate = cur;
      candidate.events = CompressRanges(candidate_kept);
      if (!diverges(candidate)) return false;
      kept = std::move(candidate_kept);
      cur.events = CompressRanges(kept);
      return true;
    };
    // (a) Whole partitions (per-partition execution is independent).
    std::set<int64_t> segments;
    for (int64_t i : kept) segments.insert(gen.clean[i]->value(0).AsInt());
    for (int64_t seg : segments) {
      std::vector<int64_t> candidate;
      for (int64_t i : kept) {
        if (gen.clean[i]->value(0).AsInt() != seg) candidate.push_back(i);
      }
      try_kept(std::move(candidate));
    }
    // (b) Suffix ticks: every bound <= the new maximum stays covered.
    for (bool progress = true; progress;) {
      progress = false;
      std::set<Timestamp> ticks;
      for (int64_t i : kept) ticks.insert(gen.clean[i]->time());
      std::vector<Timestamp> ordered(ticks.begin(), ticks.end());
      size_t chunk = ordered.size() / 2;
      if (chunk == 0) break;
      while (chunk >= 1) {
        if (ordered.size() > chunk) {
          const Timestamp cutoff = ordered[ordered.size() - chunk - 1];
          std::vector<int64_t> candidate;
          for (int64_t i : kept) {
            if (gen.clean[i]->time() <= cutoff) candidate.push_back(i);
          }
          if (try_kept(std::move(candidate))) {
            ordered.resize(ordered.size() - chunk);
            progress = true;
            continue;
          }
        }
        if (chunk == 1) break;
        chunk /= 2;
      }
    }
    // (c) Non-signal events (bounds are thresholds on the signal type) —
    // all at once, then individually.
    {
      std::vector<int64_t> sig_only, probes;
      for (int64_t i : kept) {
        (gen.clean[i]->type_id() == sig_id ? sig_only : probes).push_back(i);
      }
      if (!probes.empty() && !try_kept(std::move(sig_only))) {
        for (int64_t p : probes) {
          std::vector<int64_t> candidate;
          for (int64_t i : kept) {
            if (i != p) candidate.push_back(i);
          }
          try_kept(std::move(candidate));
        }
      }
    }
    // (d) Duplicates (identical payload at the same tick; the first copy
    // keeps the tick covered).
    {
      std::set<std::string> seen;
      std::vector<int64_t> dups, firsts;
      for (int64_t i : kept) {
        const std::string line = gen.clean[i]->ToString(shrink_registry);
        (seen.insert(line).second ? firsts : dups).push_back(i);
      }
      if (!dups.empty()) try_kept(std::move(firsts));
    }
  }
  if (cur.events.empty()) cur.events = CompressRanges(kept);
  return cur;
}

namespace {

// The fuzz harness's lint leg: a clean generated model must produce no
// error/warning diagnostics; a mutated one must produce the mutation's
// paired code. Returns a "diverged" report on leg "lint" when the analyzer
// misbehaves either way.
Result<DivergenceReport> RunLintLeg(const ReproSpec& spec,
                                    const std::string& model_mutation) {
  DivergenceReport report;
  TypeRegistry registry;
  CAESAR_ASSIGN_OR_RETURN(MaterializedCase c, Materialize(spec, &registry));
  AnalyzerOptions analyzer_options;
  analyzer_options.source_name = "<generated>";
  analyzer_options.include_notes = false;
  if (model_mutation.empty()) {
    std::vector<Diagnostic> diags = AnalyzeModel(c.model, analyzer_options);
    if (HasErrorsOrWarnings(diags)) {
      report.diverged = true;
      report.leg = "lint";
      report.detail = "generated model does not lint clean: " +
                      FormatDiagnostic(diags.front());
    }
    return report;
  }
  std::string expected_code;
  Result<CaesarModel> mutated =
      MutateModel(c.model, model_mutation, &expected_code);
  if (!mutated.ok()) {
    // The case lacks the shape this mutation needs; nothing to check.
    if (mutated.status().code() == StatusCode::kFailedPrecondition) {
      return report;
    }
    return mutated.status();
  }
  std::vector<Diagnostic> diags =
      AnalyzeModel(mutated.value(), analyzer_options);
  bool flagged = false;
  for (const Diagnostic& diag : diags) {
    if (DiagCodeName(diag.code) == expected_code) flagged = true;
  }
  if (!flagged) {
    report.diverged = true;
    report.leg = "lint";
    report.detail = "mutation '" + model_mutation +
                    "' not flagged with expected diagnostic " + expected_code +
                    " (got " + std::to_string(diags.size()) +
                    " diagnostics)";
  }
  return report;
}

}  // namespace

Result<FuzzResult> RunFuzz(const FuzzOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  FuzzResult result;
  for (int i = 0; i < options.iters; ++i) {
    ReproSpec spec;
    spec.seed = options.seed + static_cast<uint64_t>(i);
    spec.generator = options.generator;
    spec.bug = options.bug;
    if (options.lint || !options.model_mutation.empty()) {
      CAESAR_ASSIGN_OR_RETURN(DivergenceReport lint_report,
                              RunLintLeg(spec, options.model_mutation));
      if (lint_report.diverged) {
        result.iterations_run = i + 1;
        result.diverged = true;
        result.report = lint_report;
        result.repro = spec;
        result.repro.expect = "diverge";
        result.repro.note = "leg lint";
        return result;
      }
      if (!options.model_mutation.empty()) {
        // Sensitivity-only run: the mutated model is not meant to execute.
        result.iterations_run = i + 1;
        continue;
      }
    }
    CAESAR_ASSIGN_OR_RETURN(
        DivergenceReport report,
        ReplayRepro(spec, options.full_matrix));
    result.iterations_run = i + 1;
    if (report.diverged) {
      result.diverged = true;
      result.report = report;
      // Pin the diverging leg before shrinking: one engine run per
      // candidate instead of a whole matrix sweep.
      spec.leg = report.leg;
      auto shrunk = ShrinkRepro(spec, options.full_matrix);
      result.repro = shrunk.ok() ? std::move(shrunk).value() : spec;
      result.repro.expect = "diverge";
      result.repro.note = "leg " + report.leg;
      return result;
    }
    if (options.crash_recovery) {
      TypeRegistry recovery_registry;
      CAESAR_ASSIGN_OR_RETURN(MaterializedCase c,
                              Materialize(spec, &recovery_registry));
      CAESAR_ASSIGN_OR_RETURN(
          DivergenceReport recovery,
          CompareCrashRecovery(c.model, c.clean, spec.seed));
      if (recovery.diverged) {
        result.diverged = true;
        result.report = recovery;
        // Recovery legs are not matrix legs, so ShrinkRepro cannot pin
        // them; record the unshrunken case.
        result.repro = spec;
        result.repro.expect = "diverge";
        result.repro.note = "leg " + recovery.leg;
        return result;
      }
    }
    if (options.budget_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= options.budget_seconds) break;
    }
  }
  return result;
}

}  // namespace caesar
