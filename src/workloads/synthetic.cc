#include "workloads/synthetic.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/rng.h"
#include "expr/parser.h"

namespace caesar {

std::vector<SyntheticConfig::Window> LayOutWindows(int count, Timestamp length,
                                                   Timestamp overlap,
                                                   Timestamp first_start) {
  std::vector<SyntheticConfig::Window> windows;
  Timestamp start = first_start;
  for (int i = 0; i < count; ++i) {
    windows.push_back({start, start + length});
    start += length - overlap;
  }
  return windows;
}

std::vector<SyntheticConfig::Window> PlaceWindows(int count, Timestamp length,
                                                  Timestamp duration,
                                                  int placement) {
  std::vector<SyntheticConfig::Window> windows;
  if (count <= 0) return windows;
  Timestamp usable = duration - length;
  for (int i = 0; i < count; ++i) {
    double fraction = count == 1 ? 0.5 : static_cast<double>(i) / (count - 1);
    if (placement > 0) {
      fraction = 0.6 + 0.4 * fraction;  // clustered towards the end
    } else if (placement < 0) {
      fraction = 0.4 * fraction;  // clustered towards the start
    }
    Timestamp start = static_cast<Timestamp>(fraction * usable);
    windows.push_back({start, start + length});
  }
  // Placement clustering may make neighbours touch; nudge overlapping
  // windows apart so they stay non-overlapping (this helper is for the
  // suspension experiments, not the sharing ones).
  std::sort(windows.begin(), windows.end(),
            [](const SyntheticConfig::Window& a,
               const SyntheticConfig::Window& b) { return a.start < b.start; });
  for (size_t i = 1; i < windows.size(); ++i) {
    if (windows[i].start < windows[i - 1].end) {
      Timestamp shift = windows[i - 1].end - windows[i].start;
      windows[i].start += shift;
      windows[i].end += shift;
    }
  }
  return windows;
}

TypeId RegisterSyntheticTypes(TypeRegistry* registry) {
  return registry->RegisterOrGet("Tick", {{"seg", ValueType::kInt},
                                          {"pos", ValueType::kInt},
                                          {"load", ValueType::kInt},
                                          {"sec", ValueType::kInt}});
}

EventBatch GenerateSyntheticStream(const SyntheticConfig& config,
                                   TypeRegistry* registry) {
  TypeId tick = RegisterSyntheticTypes(registry);
  Rng rng(config.seed);
  EventBatch events;
  events.reserve(config.duration * config.num_partitions *
                 config.events_per_tick);
  for (Timestamp t = 0; t < config.duration; ++t) {
    double fraction =
        config.ramp_start_fraction +
        (1.0 - config.ramp_start_fraction) *
            (static_cast<double>(t) / std::max<Timestamp>(1, config.duration));
    int per_tick = std::max(
        1, static_cast<int>(config.events_per_tick * fraction + 0.5));
    for (int seg = 0; seg < config.num_partitions; ++seg) {
      for (int e = 0; e < per_tick; ++e) {
        events.push_back(MakeEvent(
            tick, t,
            {Value(int64_t{seg}), Value(t),
             Value(rng.Uniform(0, config.load_cardinality - 1)), Value(t)}));
      }
    }
  }
  return events;
}

Result<CaesarModel> MakeSyntheticModel(const SyntheticConfig& config,
                                       TypeRegistry* registry) {
  RegisterSyntheticTypes(registry);
  CaesarModel model(registry);
  CAESAR_RETURN_IF_ERROR(model.AddContext("idle"));
  for (size_t w = 0; w < config.windows.size(); ++w) {
    CAESAR_RETURN_IF_ERROR(model.AddContext("w" + std::to_string(w)));
  }
  model.SetPartitionBy({"seg"});

  // Exact-crossing bound: `pos` is monotone and hits every tick value, so
  // equality fires exactly once per window bound (a `>` threshold would keep
  // re-initiating the window after its termination). Equality constraints
  // are single thresholds, so the windows stay groupable.
  auto threshold = [](Timestamp bound) {
    Result<ExprPtr> expr = ParseExpr("s.pos = " + std::to_string(bound));
    CAESAR_CHECK(expr.ok());
    return std::move(expr).value();
  };

  for (size_t w = 0; w < config.windows.size(); ++w) {
    std::string name = "w" + std::to_string(w);
    {
      Query query;
      query.name = "start_" + name;
      query.action = ContextAction::kInitiate;
      query.target_context = name;
      PatternSpec pattern;
      pattern.items = {{"Tick", "s", false}};
      query.pattern = std::move(pattern);
      query.where = threshold(config.windows[w].start);
      // Bound detection is always armed: it belongs to the default context
      // and every window (contexts may overlap arbitrarily, so the
      // initiator must see the signal regardless of the current context).
      query.contexts = {"idle"};
      for (size_t v = 0; v < config.windows.size(); ++v) {
        if (v != w) query.contexts.push_back("w" + std::to_string(v));
      }
      CAESAR_RETURN_IF_ERROR(model.AddQuery(std::move(query)).status());
    }
    {
      Query query;
      query.name = "end_" + name;
      query.action = ContextAction::kTerminate;
      query.target_context = name;
      PatternSpec pattern;
      pattern.items = {{"Tick", "s", false}};
      query.pattern = std::move(pattern);
      query.where = threshold(config.windows[w].end);
      query.contexts = {name};
      CAESAR_RETURN_IF_ERROR(model.AddQuery(std::move(query)).status());
    }
  }

  // Workload queries (see SyntheticConfig::QueryAssignment).
  auto make_query = [&](int q, const std::string& name_suffix,
                        const std::string& type_suffix,
                        std::vector<std::string> contexts) {
    Query query;
    query.name = "match_" + name_suffix;
    DeriveSpec derive;
    derive.event_type = "Match" + type_suffix;
    derive.args = {MakeAttrRef("a", "sec"), MakeAttrRef("b", "sec"),
                   MakeAttrRef("b", "load")};
    derive.attr_names = {"first_sec", "second_sec", "load"};
    query.derive = std::move(derive);
    PatternSpec pattern;
    pattern.kind = PatternSpec::Kind::kSeq;
    pattern.items = {{"Tick", "a", false}, {"Tick", "b", false}};
    pattern.within = config.query_within;
    query.pattern = std::move(pattern);
    // Distinct join predicate per query index so queries differ in work.
    Result<ExprPtr> where = ParseExpr("a.load = b.load AND b.load >= " +
                                      std::to_string(q % 4));
    CAESAR_CHECK(where.ok());
    query.where = std::move(where).value();
    query.contexts = std::move(contexts);
    return query;
  };

  switch (config.assignment) {
    case SyntheticConfig::QueryAssignment::kAllWindows: {
      std::vector<std::string> all_windows;
      for (size_t w = 0; w < config.windows.size(); ++w) {
        all_windows.push_back("w" + std::to_string(w));
      }
      for (int q = 0; q < config.queries_per_window; ++q) {
        CAESAR_RETURN_IF_ERROR(
            model
                .AddQuery(make_query(q, std::to_string(q), std::to_string(q),
                                     all_windows))
                .status());
      }
      break;
    }
    case SyntheticConfig::QueryAssignment::kPerWindowCopies:
    case SyntheticConfig::QueryAssignment::kPerWindowDistinct: {
      bool copies = config.assignment ==
                    SyntheticConfig::QueryAssignment::kPerWindowCopies;
      for (size_t w = 0; w < config.windows.size(); ++w) {
        std::string window = "w" + std::to_string(w);
        for (int q = 0; q < config.queries_per_window; ++q) {
          std::string type_suffix =
              copies ? std::to_string(q)
                     : std::to_string(w) + "_" + std::to_string(q);
          CAESAR_RETURN_IF_ERROR(
              model
                  .AddQuery(make_query(q, window + "_" + std::to_string(q),
                                       type_suffix, {window}))
                  .status());
        }
      }
      break;
    }
  }
  CAESAR_RETURN_IF_ERROR(model.Normalize());
  return model;
}

double WindowCoverage(const SyntheticConfig& config) {
  if (config.duration <= 0) return 0.0;
  std::vector<SyntheticConfig::Window> sorted = config.windows;
  std::sort(sorted.begin(), sorted.end(),
            [](const SyntheticConfig::Window& a,
               const SyntheticConfig::Window& b) { return a.start < b.start; });
  Timestamp covered = 0;
  Timestamp cursor = 0;
  for (const auto& window : sorted) {
    Timestamp start = std::max(window.start, cursor);
    Timestamp end = std::min(window.end, config.duration);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
    cursor = std::max(cursor, std::min(window.end, config.duration));
  }
  return static_cast<double>(covered) / static_cast<double>(config.duration);
}

}  // namespace caesar
