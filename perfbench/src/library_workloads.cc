// The three in-process workloads: Linear Road serial, Linear Road on the
// worker pool with the write-ahead log, and PAM with dense SEQ state. Each
// is a closed loop of Engine::Run calls over a base stream replayed in
// shifted passes until the run's time is up. Every pass hands the engine
// the same calls with the same input (see kRepeatQuantile).

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>

#include "durability/manager.h"
#include "optimizer/optimizer.h"
#include "runtime/engine.h"
#include "workloads.h"
#include "workloads/linear_road.h"
#include "workloads/pamap.h"

namespace caesar {
namespace perfbench {
namespace {

// Setup repetitions before the first event and at each pass boundary.
constexpr int kSetupReps = 5;

struct Spec {
  bool linear_road = true;
  int threads = 1;
  bool wal = false;
  Timestamp ticks_per_run = 1;   // ticks handed over per Run call
  Timestamp pass_ticks = 1800;   // length of the replayed base stream
  Timestamp prefix_ticks = 600;  // oracle-checked prefix of the first pass
};

std::optional<Spec> SpecFor(const std::string& name) {
  Spec spec;
  if (name == "lr-serial") return spec;
  if (name == "lr-parallel-wal") {
    spec.threads =
        static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    spec.wal = true;
    spec.ticks_per_run = 10;
    return spec;
  }
  if (name == "pam-seq") {
    spec.linear_road = false;
    spec.prefix_ticks = 450;
    return spec;
  }
  return std::nullopt;
}

// Model and one pass of input, both from the seed.
struct Input {
  std::unique_ptr<TypeRegistry> registry = std::make_unique<TypeRegistry>();
  std::optional<CaesarModel> model;
  EventBatch base;
};

Input MakeInput(const Spec& spec, uint64_t seed) {
  Input input;
  if (spec.linear_road) {
    LinearRoadConfig config;
    config.num_xways = 24;
    config.num_segments = 12;
    config.duration = spec.pass_ticks;
    config.seed = seed;
    input.base = GenerateLinearRoadStream(config, input.registry.get());
    LinearRoadModelConfig model_config;
    model_config.processing_replicas = 3;
    auto model = MakeLinearRoadModel(model_config, input.registry.get());
    if (model.ok()) input.model.emplace(std::move(model).value());
  } else {
    PamapConfig config;
    config.num_subjects = 200;
    config.duration = spec.pass_ticks;
    // The generator's default phase density is per 4,500-tick run.
    config.exercise_phases_per_subject =
        3.0 * static_cast<double>(spec.pass_ticks) / 4500.0;
    config.seed = seed;
    input.base = GeneratePamapStream(config, input.registry.get());
    PamapModelConfig model_config;
    model_config.active_queries = 16;
    auto model = MakePamapModel(model_config, input.registry.get());
    if (model.ok()) input.model.emplace(std::move(model).value());
  }
  return input;
}

EngineOptions OptionsFor(const Spec& spec, const BenchConfig& config,
                         const std::string& wal_tag) {
  EngineOptions options;
  options.num_threads = spec.threads;
  if (spec.wal) {
    options.durability.mode = DurabilityMode::kWal;
    options.durability.fsync = FsyncPolicy::kBatch;
    options.durability.dir = config.out_dir + "/wal-" +
                             std::to_string(getpid()) + "-" + wal_tag;
  }
  return options;
}

void RemoveDir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

struct SetupTimes {
  std::vector<double> plan_ms;
  std::vector<double> create_ms;
  std::vector<double> total_s;
};

// Model in hand to ready for the first event: OptimizeModel +
// Engine::Create, `reps` times; returns the last engine built.
std::unique_ptr<Engine> TimedSetup(const CaesarModel& model,
                                   const EngineOptions& options, int reps,
                                   SetupTimes* times, SpanLog* spans) {
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep < reps; ++rep) {
    engine.reset();
    const int64_t start = NowNs();
    Result<ExecutablePlan> plan = OptimizeModel(model, OptimizerOptions{});
    const int64_t planned = NowNs();
    if (!plan.ok()) return nullptr;
    auto created = Engine::Create(std::move(plan).value(), options);
    const int64_t ready = NowNs();
    if (!created.ok()) return nullptr;
    engine = std::move(created).value();
    spans->Add("optimizer.plan", rep, start, planned - start);
    spans->Add("runtime.create", rep, planned, ready - planned);
    times->plan_ms.push_back(NsToMillis(planned - start));
    times->create_ms.push_back(NsToMillis(ready - planned));
    times->total_s.push_back(NsToSeconds(ready - start));
  }
  return engine;
}

// The oracle-checked prefix of the first pass through a fresh engine.
struct Prefix {
  int64_t runs = 0;
  int64_t failed = 0;
  std::vector<int64_t> counts;  // derived events per Run call
  EventBatch derived;
};

Prefix RunPrefix(Engine* engine, const Input& input, const Spec& spec) {
  Prefix prefix;
  EventBatch out;
  for (const Unit& unit : SliceUnits(input.base, spec.ticks_per_run, 0)) {
    if (unit.first_tick >= spec.prefix_ticks) break;
    out.clear();
    ++prefix.runs;
    if (!engine->Run(unit.events, &out).ok()) ++prefix.failed;
    prefix.counts.push_back(static_cast<int64_t>(out.size()));
    prefix.derived.insert(prefix.derived.end(), out.begin(), out.end());
  }
  return prefix;
}

// A section: sums over all its Run calls, plus the wall and CPU time of
// each call position of a pass, once per timed pass.
struct Section {
  int64_t events = 0;
  int64_t events_per_pass = 0;
  int64_t runs = 0;
  int64_t failed = 0;
  int64_t wall_ns = 0;
  int64_t timed_wall_ns = 0;
  int64_t run_ns = 0;  // inside Engine::Run
  double peak_mib = 0;
  std::vector<std::vector<double>> call_ms;      // [call][timed pass]
  std::vector<std::vector<double>> call_cpu_ms;  // [call][timed pass]
  std::vector<double> pass_events_per_s;
  RunStats totals;
  // Derived events per Run call of the first pass: every engine of one
  // workload must derive the counts the oracle-checked engine derived.
  std::vector<int64_t> first_pass_counts;
};

// Closed loop: hands `engine` one unit at a time, the next only after the
// previous Run returned, in whole passes. Pass k replays the base stream
// shifted by k * pass_ticks; the shifted copy is built with the clock
// stopped, and `between_passes` runs there too. Pass 0 warms the engine up
// untimed (its cold start is paid once per engine, not per event); passes
// 1.. are timed until `seconds` have passed.
//
// Memory is the peak over passes 0 and 1, measured from before the first
// event: the engine's state is steady after one pass (the GC horizon is
// shorter than a pass), and later passes rebuild the replayed input, whose
// allocations are not the engine's.
Section RunSection(Engine* engine, const Input& input, const Spec& spec,
                   double seconds, bool measure_memory, SpanLog* spans,
                   const std::function<void()>& between_passes) {
  Section section;
  const std::vector<Unit> base_units =
      SliceUnits(input.base, spec.ticks_per_run, 0);
  std::vector<Unit> shifted =
      SliceUnits(input.base, spec.ticks_per_run, spec.pass_ticks);
  section.events_per_pass = static_cast<int64_t>(input.base.size());
  section.call_ms.resize(shifted.size());
  section.call_cpu_ms.resize(shifted.size());
  if (measure_memory) ResetPeakRss();
  const double rss_before = StatusMiB(0, "VmRSS");

  EventBatch out;
  for (int64_t pass = 0;
       pass <= 1 || NsToSeconds(section.timed_wall_ns) < seconds; ++pass) {
    if (pass >= 2) {
      between_passes();
      shifted.clear();
      const int32_t span = spans->Begin("bench.shift_pass", pass);
      shifted = SliceUnits(input.base, spec.ticks_per_run,
                           pass * spec.pass_ticks);
      spans->End(span);
    }
    const std::vector<Unit>& units = pass == 0 ? base_units : shifted;
    const int64_t start = NowNs();
    for (size_t i = 0; i < units.size(); ++i) {
      const Unit& unit = units[i];
      out.clear();
      const int32_t span = spans->Begin("engine.run", unit.first_tick);
      const int64_t cpu = ProcessCpuNs();
      const int64_t call = NowNs();
      Result<RunStats> stats = engine->Run(unit.events, &out);
      const int64_t elapsed = NowNs() - call;
      const int64_t cpu_elapsed = ProcessCpuNs() - cpu;
      spans->End(span);
      if (pass == 0) {
        section.first_pass_counts.push_back(static_cast<int64_t>(out.size()));
      } else {
        section.call_ms[i].push_back(NsToMillis(elapsed));
        section.call_cpu_ms[i].push_back(NsToMillis(cpu_elapsed));
      }
      ++section.runs;
      section.events += static_cast<int64_t>(unit.events.size());
      section.run_ns += elapsed;
      if (!stats.ok()) {
        ++section.failed;
        continue;
      }
      AccumulateRunStats(stats.value(), &section.totals);
    }
    const int64_t pass_ns = NowNs() - start;
    section.wall_ns += pass_ns;
    if (pass == 0) continue;
    section.timed_wall_ns += pass_ns;
    section.pass_events_per_s.push_back(
        static_cast<double>(section.events_per_pass) / NsToSeconds(pass_ns));
    if (pass == 1 && measure_memory) {
      section.peak_mib = StatusMiB(0, "VmHWM") - rss_before;
    }
  }
  return section;
}

// The end-to-end figures of a section, from the lower quartile of each
// call position's per-pass repeats.
struct Estimate {
  double events_per_s = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double cpu_us_per_event = 0;
};

Estimate Estimated(const Section& section) {
  Estimate estimate;
  std::vector<double> call_ms;
  double pass_ms = 0;
  double pass_cpu_ms = 0;
  for (size_t i = 0; i < section.call_ms.size(); ++i) {
    call_ms.push_back(Quantile(section.call_ms[i], kRepeatQuantile));
    pass_ms += call_ms.back();
    pass_cpu_ms += Quantile(section.call_cpu_ms[i], kRepeatQuantile);
  }
  const double events = static_cast<double>(section.events_per_pass);
  if (pass_ms > 0) estimate.events_per_s = events / (pass_ms * 1e-3);
  estimate.latency_p50_ms = Quantile(call_ms, 0.50);
  estimate.latency_p99_ms = Quantile(call_ms, 0.99);
  estimate.cpu_us_per_event =
      PerEvent(pass_cpu_ms * 1e3, section.events_per_pass);
  return estimate;
}

// Standalone WAL probe on the workload's own ticks: AppendTick per tick and
// one CommitBatch per Run-sized batch, as the engine issues them.
void ProbeDurability(const Input& input, const Spec& spec,
                     const EngineOptions& options, SpanLog* spans,
                     Report* report) {
  DurabilityOptions durability = options.durability;
  durability.dir += "-probe";
  auto manager = DurabilityManager::Open(durability);
  if (!manager.ok()) return;
  const std::string snapshot(64, '\0');
  int64_t append_ns = 0;
  int64_t ticks = 0;
  std::vector<double> commit_ms;
  for (const Unit& unit : SliceUnits(input.base, spec.ticks_per_run, 0)) {
    const EventBatch& events = unit.events;
    for (size_t i = 0; i < events.size();) {
      size_t j = i;
      while (j < events.size() && events[j]->time() == events[i]->time()) ++j;
      const int64_t start = NowNs();
      if (!manager.value()->AppendTick(events[i]->time(), events.data() + i,
                                       j - i).ok()) {
        return;
      }
      append_ns += NowNs() - start;
      ++ticks;
      i = j;
    }
    const int64_t start = NowNs();
    if (!manager.value()->CommitBatch(snapshot).ok()) return;
    const int64_t elapsed = NowNs() - start;
    spans->Add("durability.commit", unit.first_tick, start, elapsed);
    commit_ms.push_back(NsToMillis(elapsed));
  }
  report->Layer("durability.append_us_per_tick",
                ticks > 0 ? static_cast<double>(append_ns) * 1e-3 /
                                static_cast<double>(ticks)
                          : 0.0,
                "us");
  report->Layer("durability.commit_ms_p50", Median(commit_ms), "ms");
}

void Fail(Report* report) {
  ++report->failed;
  report->correct = false;
}

// Oracle gate on the prefix; a mismatch counts as a failed operation and
// makes the run incorrect.
void CheckPrefix(const Input& input, const Spec& spec, const Prefix& prefix,
                 Report* report) {
  report->attempted += prefix.runs + 1;
  report->failed += prefix.failed;
  std::string detail;
  if (!MatchesOracle(*input.model, PrefixOf(input.base, spec.prefix_ticks),
                     prefix.derived, &detail)) {
    Fail(report);
    std::fprintf(stderr, "perfbench: derived stream differs from the oracle "
                 "on the first %lld ticks: %s\n",
                 static_cast<long long>(spec.prefix_ticks), detail.c_str());
  }
}

// A timed section keeps no outputs; its first pass must derive, Run call
// by Run call, as many events as the oracle-checked prefix.
void CheckSection(const Prefix& checked, const Section& section,
                  const char* label, Report* report) {
  report->attempted += section.runs + 1;
  report->failed += section.failed;
  const std::vector<int64_t>& counts = section.first_pass_counts;
  if (counts.size() < checked.counts.size() ||
      !std::equal(checked.counts.begin(), checked.counts.end(),
                  counts.begin())) {
    Fail(report);
    std::fprintf(stderr, "perfbench: the %s section derived other event "
                 "counts than the oracle-checked prefix\n", label);
  }
}

}  // namespace

bool IsLibraryWorkload(const std::string& name) {
  return SpecFor(name).has_value();
}

int RunLibraryWorkload(const BenchConfig& config, Report* report) {
  const Spec spec = *SpecFor(config.workload);
  SpanLog spans(config.trace);
  Input input = MakeInput(spec, config.seed);
  if (!input.model.has_value() || input.base.empty()) {
    std::fprintf(stderr, "perfbench: cannot build the %s model or stream\n",
                 config.workload.c_str());
    return 1;
  }

  // The oracle gate runs on a separate engine, so the timed engine keeps
  // no outputs and its memory is its own.
  Prefix checked;
  {
    SetupTimes ignored;
    const EngineOptions check_options = OptionsFor(spec, config, "check");
    std::unique_ptr<Engine> check =
        TimedSetup(*input.model, check_options, 1, &ignored, &spans);
    if (check == nullptr) return 1;
    checked = RunPrefix(check.get(), input, spec);
    check.reset();
    RemoveDir(check_options.durability.dir);
  }
  CheckPrefix(input, spec, checked, report);

  // Untraced: setup, then the timed section that yields the end-to-end
  // metrics. Setup repeats at every pass boundary, so its samples spread
  // over the run like the timed calls. A traced run gives the untraced
  // section half the time and a second, instrumented engine the other half.
  const EngineOptions options = OptionsFor(spec, config, "main");
  SetupTimes setup;
  std::unique_ptr<Engine> engine =
      TimedSetup(*input.model, options, kSetupReps, &setup, &spans);
  if (engine == nullptr) {
    std::fprintf(stderr, "perfbench: setup failed\n");
    return 1;
  }
  const EngineOptions spare_options = OptionsFor(spec, config, "spare");
  auto repeat_setup = [&] {
    TimedSetup(*input.model, spare_options, kSetupReps, &setup, &spans);
  };
  const double share = config.trace ? 0.5 : 1.0;
  SpanLog untraced_spans(false);
  const Section main =
      RunSection(engine.get(), input, spec, config.seconds * share, true,
                 &untraced_spans, repeat_setup);
  engine.reset();
  CheckSection(checked, main, "timed", report);

  const Estimate estimate = Estimated(main);
  report->E2e("events_per_s", estimate.events_per_s, "1/s");
  report->E2e("latency_p50_ms", estimate.latency_p50_ms, "ms");
  report->E2e("latency_p99_ms", estimate.latency_p99_ms, "ms");
  report->E2e("setup_s", Quantile(setup.total_s, kRepeatQuantile), "s");
  report->E2e("mem_peak_mb", main.peak_mib, "MB");
  report->E2e("cpu_us_per_event", estimate.cpu_us_per_event, "us/event");
  std::fprintf(stderr, "perfbench: %s: %lld Run calls, %lld events, "
               "%.3f s, %lld derived; events/s per timed pass:",
               config.workload.c_str(), static_cast<long long>(main.runs),
               static_cast<long long>(main.events), NsToSeconds(main.wall_ns),
               static_cast<long long>(main.totals.derived_events));
  for (double rate : main.pass_events_per_s) {
    std::fprintf(stderr, " %.0f", rate);
  }
  std::fprintf(stderr, "\n");

  if (config.trace) {
    report->Layer("optimizer.plan_ms", Median(setup.plan_ms), "ms");
    report->Layer("runtime.create_ms", Median(setup.create_ms), "ms");

    EngineOptions traced_options = OptionsFor(spec, config, "traced");
    traced_options.gather_statistics = true;
    traced_options.metrics = MetricsGranularity::kOperator;
    SetupTimes ignored;
    std::unique_ptr<Engine> traced_engine =
        TimedSetup(*input.model, traced_options, 1, &ignored, &spans);
    if (traced_engine == nullptr) return 1;
    const Section traced =
        RunSection(traced_engine.get(), input, spec, config.seconds * share,
                   false, &spans, [] {});
    CheckSection(checked, traced, "traced", report);
    const StatisticsReport stats = traced_engine->CollectStatistics();
    ReportRuntimeMetrics(traced.events, NsToSeconds(traced.run_ns),
                         traced.totals, stats, report);
    ReportOperatorMetrics(stats, traced.events, report);
    traced_engine.reset();
    RemoveDir(traced_options.durability.dir);

    if (spec.wal) {
      ProbeDurability(input, spec, options, &spans, report);
      RemoveDir(options.durability.dir + "-probe");
    }

    report->Layer("trace.overhead_share",
                  1.0 - Estimated(traced).events_per_s / estimate.events_per_s,
                  "ratio");
    const double accounted = stats.ticks.ingest_seconds.sum() +
                             traced.totals.cpu_seconds +
                             stats.ticks.gc_pause_seconds.sum();
    report->Layer("trace.unaccounted_share",
                  1.0 - accounted / NsToSeconds(traced.wall_ns), "ratio");
    const std::string trace_path = config.out_dir + "/trace-" +
                                   config.workload + "-" +
                                   std::to_string(config.seed) + ".json";
    if (!spans.WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    }
  }
  RemoveDir(options.durability.dir);
  RemoveDir(spare_options.durability.dir);
  return 0;
}

}  // namespace perfbench
}  // namespace caesar
