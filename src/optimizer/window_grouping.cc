#include "optimizer/window_grouping.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "optimizer/overlap_analysis.h"

namespace caesar {

namespace {

bool Overlaps(const WindowSpec& a, const WindowSpec& b) {
  return a.start_key < b.end_key && b.start_key < a.end_key;
}

std::vector<std::string> DropDuplicates(std::vector<std::string> queries) {
  std::vector<std::string> result;
  std::set<std::string> seen;
  for (std::string& query : queries) {
    if (seen.insert(query).second) result.push_back(std::move(query));
  }
  return result;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) joined += "+";
    joined += names[i];
  }
  return joined;
}

}  // namespace

Result<std::vector<GroupedWindow>> GroupContextWindows(
    std::vector<WindowSpec> windows) {
  for (const WindowSpec& window : windows) {
    if (!(window.start_key < window.end_key)) {
      return Status::InvalidArgument("window " + window.context +
                                     " has start >= end");
    }
  }
  std::vector<GroupedWindow> grouped;

  // Line 4: windows that overlap no other window remain unchanged.
  std::vector<WindowSpec> overlapping;
  for (size_t i = 0; i < windows.size(); ++i) {
    bool any = false;
    for (size_t j = 0; j < windows.size(); ++j) {
      if (i != j && Overlaps(windows[i], windows[j])) {
        any = true;
        break;
      }
    }
    if (any) {
      overlapping.push_back(windows[i]);
    } else {
      GroupedWindow unchanged;
      unchanged.name = windows[i].context;
      unchanged.start_key = windows[i].start_key;
      unchanged.end_key = windows[i].end_key;
      unchanged.queries = DropDuplicates(windows[i].queries);
      unchanged.originals = {windows[i].context};
      grouped.push_back(std::move(unchanged));
    }
  }

  // Line 5: sort by start.
  std::sort(overlapping.begin(), overlapping.end(),
            [](const WindowSpec& a, const WindowSpec& b) {
              if (a.start_key != b.start_key) return a.start_key < b.start_key;
              return a.end_key < b.end_key;
            });

  // Line 6: merge identical windows (same bounds), unioning workloads.
  std::vector<WindowSpec> merged;
  std::vector<std::vector<std::string>> merged_originals;
  for (WindowSpec& window : overlapping) {
    if (!merged.empty() && merged.back().start_key == window.start_key &&
        merged.back().end_key == window.end_key) {
      merged.back().queries.insert(merged.back().queries.end(),
                                   window.queries.begin(),
                                   window.queries.end());
      merged_originals.back().push_back(window.context);
    } else {
      merged_originals.push_back({window.context});
      merged.push_back(std::move(window));
    }
  }

  // Lines 8-19: sweep the window bounds; each interval between subsequent
  // bounds with a non-empty active workload becomes a grouped window.
  std::set<double> bounds;
  for (const WindowSpec& window : merged) {
    bounds.insert(window.start_key);
    bounds.insert(window.end_key);
  }
  bool have_previous = false;
  double previous = 0.0;
  std::vector<size_t> active;  // indices into `merged`
  int counter = 0;
  for (double next : bounds) {
    if (have_previous && !active.empty()) {
      GroupedWindow window;
      window.start_key = previous;
      window.end_key = next;
      std::vector<std::string> originals;
      for (size_t w : active) {
        window.queries.insert(window.queries.end(),
                              merged[w].queries.begin(),
                              merged[w].queries.end());
        originals.insert(originals.end(), merged_originals[w].begin(),
                         merged_originals[w].end());
      }
      window.originals = DropDuplicates(std::move(originals));
      // Lines 20-22: drop duplicate queries.
      window.queries = DropDuplicates(std::move(window.queries));
      window.name = JoinNames(window.originals) + "#" + std::to_string(++counter);
      grouped.push_back(std::move(window));
    }
    // Update the active set: windows ending here leave, starting here enter.
    std::erase_if(active,
                  [&](size_t w) { return merged[w].end_key == next; });
    for (size_t w = 0; w < merged.size(); ++w) {
      if (merged[w].start_key == next) active.push_back(w);
    }
    previous = next;
    have_previous = true;
  }
  CAESAR_CHECK(active.empty());
  return grouped;
}

namespace {

// Signature identifying structurally identical queries for workload
// deduplication (name and CONTEXT clause excluded).
std::string QuerySignature(const Query& query) {
  std::ostringstream os;
  os << ContextActionName(query.action) << "|" << query.target_context << "|"
     << (query.derivation_helper ? "helper|" : "|");
  if (query.derive.has_value()) os << query.derive->ToString();
  os << "|";
  if (query.pattern.has_value()) os << query.pattern->ToString();
  os << "|";
  if (query.where != nullptr) os << query.where->ToString();
  return os.str();
}

}  // namespace

Result<CaesarModel> ApplyWindowGrouping(const CaesarModel& model) {
  // 1. Analyzable contexts (single-threshold bounds; see overlap_analysis).
  std::map<std::string, WindowBounds> groupable;
  for (WindowBounds& bounds : ExtractWindowBounds(model)) {
    // A SWITCH-initiated context is not groupable: its initiating query is
    // simultaneously the terminator of the switch's *source* context, which
    // lies outside any overlap cluster (a switch chain makes the windows
    // adjacent, not overlapping). Consuming that query into a synthesized
    // group entry would silently drop the source's termination. The exit
    // side is fine — a terminating SWITCH is re-emitted with its target
    // kept — so switch sources remain groupable.
    if (model.query(bounds.initiator_query).action == ContextAction::kSwitch) {
      continue;
    }
    std::string name = bounds.context;
    groupable.emplace(std::move(name), std::move(bounds));
  }

  // 2. Overlap clusters among groupable contexts sharing a bound attribute.
  std::vector<std::string> names;
  for (const auto& [name, bounds] : groupable) names.push_back(name);
  std::map<std::string, int> cluster_of;
  {
    // Union-find over pairwise overlaps.
    std::vector<int> parent(names.size());
    for (size_t i = 0; i < names.size(); ++i) parent[i] = static_cast<int>(i);
    std::function<int(int)> find = [&](int x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (size_t i = 0; i < names.size(); ++i) {
      for (size_t j = i + 1; j < names.size(); ++j) {
        const WindowRelation relation =
            Relate(groupable[names[i]], groupable[names[j]]);
        if (relation != WindowRelation::kUnknown &&
            relation != WindowRelation::kDisjoint) {
          parent[find(static_cast<int>(i))] = find(static_cast<int>(j));
        }
      }
    }
    for (size_t i = 0; i < names.size(); ++i) {
      cluster_of[names[i]] = find(static_cast<int>(i));
    }
  }
  std::map<int, std::vector<std::string>> clusters;
  for (const auto& [name, root] : cluster_of) clusters[root].push_back(name);

  // Contexts being replaced (members of clusters of size >= 2).
  std::set<std::string> replaced;
  for (const auto& [root, members] : clusters) {
    if (members.size() >= 2) {
      replaced.insert(members.begin(), members.end());
    }
  }
  if (replaced.empty()) return model;  // nothing to share

  // 3. Run Listing 1 per cluster and build the rewritten model.
  CaesarModel rewritten(model.registry());
  rewritten.SetPartitionBy(model.partition_by());
  // Keep all untouched contexts (default first so it stays default).
  CAESAR_RETURN_IF_ERROR(rewritten.AddContext(model.default_context()));
  for (const ContextType& context : model.contexts()) {
    if (context.name == model.default_context() ||
        replaced.count(context.name) > 0) {
      continue;
    }
    CAESAR_RETURN_IF_ERROR(rewritten.AddContext(context.name));
  }

  // original context -> grouped windows covering it.
  std::map<std::string, std::vector<std::string>> covering;
  // Queries to skip (bound-defining queries of replaced contexts are
  // re-synthesized).
  std::set<int> consumed_queries;

  // Pass 1: group every cluster and register the grouped contexts, so that
  // `covering` is complete before any query is synthesized (a cluster's
  // entry gate may reference contexts replaced by *another* cluster).
  struct ClusterPlan {
    std::vector<GroupedWindow> grouped;
    std::map<double, int> bound_query;  // bound -> bound-defining query
    std::map<double, std::vector<int>> switch_exits;
  };
  std::vector<ClusterPlan> plans;
  for (const auto& [root, members] : clusters) {
    if (members.size() < 2) continue;
    ClusterPlan plan;
    std::vector<WindowSpec> specs;
    for (const std::string& member : members) {
      WindowSpec spec;
      spec.context = member;
      spec.start_key = groupable[member].start_key;
      spec.end_key = groupable[member].end_key;
      specs.push_back(std::move(spec));
    }
    CAESAR_ASSIGN_OR_RETURN(plan.grouped,
                            GroupContextWindows(std::move(specs)));
    std::sort(plan.grouped.begin(), plan.grouped.end(),
              [](const GroupedWindow& a, const GroupedWindow& b) {
                return a.start_key < b.start_key;
              });
    for (const GroupedWindow& window : plan.grouped) {
      CAESAR_RETURN_IF_ERROR(rewritten.AddContext(window.name));
      for (const std::string& original : window.originals) {
        covering[original].push_back(window.name);
      }
    }

    for (const std::string& member : members) {
      const WindowBounds& bounds = groupable[member];
      plan.bound_query[bounds.start_key] = bounds.initiator_query;
      plan.bound_query[bounds.end_key] = bounds.terminator_query;
      consumed_queries.insert(bounds.initiator_query);
      consumed_queries.insert(bounds.terminator_query);
    }

    // Terminating SWITCH queries by end bound. Beyond deactivating its
    // member, such a query initiates a context *outside* the cluster — a
    // side effect the synthesized chain must preserve. The exit path below
    // keeps the target only when the switch lands on the cluster's last
    // bound; everywhere else a carry INITIATE is synthesized.
    for (const std::string& member : members) {
      const WindowBounds& bounds = groupable[member];
      if (model.query(bounds.terminator_query).action ==
          ContextAction::kSwitch) {
        std::vector<int>& at = plan.switch_exits[bounds.end_key];
        if (std::find(at.begin(), at.end(), bounds.terminator_query) ==
            at.end()) {
          at.push_back(bounds.terminator_query);
        }
      }
    }
    plans.push_back(std::move(plan));
  }

  // Pass 2: synthesize the chain queries per cluster.
  for (ClusterPlan& plan : plans) {
    const std::vector<GroupedWindow>& grouped = plan.grouped;
    std::map<double, int>& bound_query = plan.bound_query;
    std::map<double, std::vector<int>>& switch_exits = plan.switch_exits;

    // Carry INITIATEs for consumed terminating SWITCHes whose target
    // activation the chain rewrite would otherwise drop. `gates` must
    // contain a context that is active at the bound regardless of whether
    // the chain transition for this bound was already applied to the
    // current event (queries run in model order within a tick).
    auto add_switch_carries =
        [&](double bound, int copied_query,
            std::vector<std::string> gates) -> Status {
      auto it = switch_exits.find(bound);
      if (it == switch_exits.end()) return Status::Ok();
      for (int qi : it->second) {
        const Query& sw = model.query(qi);
        if (qi == copied_query) continue;  // target kept by the exit copy
        if (covering.count(sw.target_context) > 0) continue;  // in-cluster
        Query carry = sw;
        carry.name = sw.name + "_carry";
        carry.action = ContextAction::kInitiate;
        carry.contexts = gates;
        // The bound-defining copy at this bound already re-emits the
        // query's DERIVE clause (if that copy is this very query).
        if (qi == bound_query[bound]) carry.derive.reset();
        CAESAR_RETURN_IF_ERROR(rewritten.AddQuery(std::move(carry)).status());
      }
      return Status::Ok();
    };

    // Synthesize the new context deriving queries (Fig. 7 bottom).
    for (size_t w = 0; w < grouped.size(); ++w) {
      const GroupedWindow& window = grouped[w];
      // Entry bound.
      {
        const Query& original = model.query(bound_query[window.start_key]);
        Query entry = original;
        entry.name = "enter_" + window.name;
        entry.target_context = window.name;
        if (w == 0) {
          // First window: enters from the initiator's own contexts. Those
          // may themselves have been replaced by grouped windows of another
          // (or this) cluster; remap them.
          std::vector<std::string> contexts;
          for (const std::string& context : entry.contexts) {
            auto it = covering.find(context);
            if (it == covering.end()) {
              contexts.push_back(context);
            } else {
              contexts.insert(contexts.end(), it->second.begin(),
                              it->second.end());
            }
          }
          entry.contexts = DropDuplicates(std::move(contexts));
        } else {
          // Interior bound: switch from the previous grouped window.
          entry.action = ContextAction::kSwitch;
          entry.contexts = {grouped[w - 1].name};
        }
        CAESAR_RETURN_IF_ERROR(rewritten.AddQuery(std::move(entry)).status());
        if (w > 0) {
          // A consumed SWITCH landing on this interior bound lost its
          // target (the entry copy above was re-targeted at the chain), so
          // every switch at this bound needs a carry. Gate on both chain
          // neighbors: whichever side of the entry transition the current
          // event sees, one of them is active.
          CAESAR_RETURN_IF_ERROR(add_switch_carries(
              window.start_key, /*copied_query=*/-1,
              {grouped[w - 1].name, window.name}));
        }
      }
      // Exit bound of the last window (interior exits are the next
      // window's entry switch).
      if (w + 1 == grouped.size()) {
        const Query& original = model.query(bound_query[window.end_key]);
        // Carries first, while the window is still active for their gate.
        CAESAR_RETURN_IF_ERROR(add_switch_carries(
            window.end_key,
            original.action == ContextAction::kSwitch
                ? bound_query[window.end_key]
                : -1,
            {window.name}));
        Query exit = original;
        exit.name = "exit_" + window.name;
        exit.contexts = {window.name};
        if (original.action == ContextAction::kSwitch) {
          // e.g. switch back to clear; keep the target.
        } else {
          exit.action = ContextAction::kTerminate;
          exit.target_context = window.name;
        }
        CAESAR_RETURN_IF_ERROR(rewritten.AddQuery(std::move(exit)).status());
      }
    }
  }

  // 4. Re-home the remaining queries; share structurally identical ones
  // (the dropDuplicates step of Listing 1 applied across windows). Each
  // rehomed query tracks which *original* windows it served so its
  // context-history anchors can be computed after merging.
  struct Rehomed {
    Query query;
    std::vector<std::string> kept;          // non-replaced contexts
    std::set<std::string> originals;        // replaced original contexts
  };
  std::map<std::string, int> by_signature;  // signature -> rehomed index
  std::vector<Rehomed> rehomed;
  for (int qi = 0; qi < model.num_queries(); ++qi) {
    if (consumed_queries.count(qi) > 0) continue;
    Rehomed entry;
    entry.query = model.query(qi);
    for (const std::string& context : entry.query.contexts) {
      if (covering.count(context) > 0) {
        entry.originals.insert(context);
      } else {
        entry.kept.push_back(context);
      }
    }
    std::string signature = QuerySignature(entry.query);
    auto it = by_signature.find(signature);
    if (it != by_signature.end()) {
      Rehomed& existing = rehomed[it->second];
      existing.kept.insert(existing.kept.end(), entry.kept.begin(),
                           entry.kept.end());
      existing.originals.insert(entry.originals.begin(),
                                entry.originals.end());
      continue;
    }
    by_signature.emplace(signature, static_cast<int>(rehomed.size()));
    rehomed.push_back(std::move(entry));
  }

  for (Rehomed& entry : rehomed) {
    Query query = std::move(entry.query);
    query.contexts.clear();
    query.context_anchors.clear();
    for (const std::string& context : DropDuplicates(std::move(entry.kept))) {
      query.contexts.push_back(context);
      query.context_anchors.push_back(context);  // identity anchor
    }
    // Originals ordered by their start bound: the anchor of a grouped
    // window g is the first grouped window of the *oldest* original (of
    // this query) covering g — partial matches and complex events may span
    // back to that original's start, and no further.
    std::vector<std::string> ordered(entry.originals.begin(),
                                     entry.originals.end());
    std::sort(ordered.begin(), ordered.end(),
              [&](const std::string& a, const std::string& b) {
                return groupable[a].start_key < groupable[b].start_key;
              });
    std::set<std::string> added;
    for (const std::string& original : ordered) {
      for (const std::string& group : covering[original]) {
        if (!added.insert(group).second) continue;
        std::string anchor = group;
        for (const std::string& candidate : ordered) {
          const std::vector<std::string>& groups = covering[candidate];
          if (std::find(groups.begin(), groups.end(), group) != groups.end()) {
            anchor = groups.front();
            break;
          }
        }
        query.contexts.push_back(group);
        query.context_anchors.push_back(anchor);
      }
    }
    CAESAR_RETURN_IF_ERROR(rewritten.AddQuery(std::move(query)).status());
  }
  CAESAR_RETURN_IF_ERROR(rewritten.Normalize());
  return rewritten;
}

}  // namespace caesar
