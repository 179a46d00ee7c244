#include "oracle/generator.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "event/value.h"
#include "expr/analysis.h"
#include "expr/expr.h"
#include "optimizer/overlap_analysis.h"

namespace caesar {
namespace {

// Processing-query shapes the generator draws from (weighted by repetition
// in the pool below).
enum class Shape { kSeq2, kSeq3, kNeg, kNegLead, kAgg, kConsumer };

// A derived type earlier queries produced whose schema is known exactly
// (explicit DERIVE attr names), so later queries can consume it.
struct Consumable {
  std::string type_name;
  std::vector<std::string> int_attrs;  // attributes safe for int predicates
};

ExprPtr Attr(std::string var, std::string attr) {
  return MakeAttrRef(std::move(var), std::move(attr));
}

ExprPtr IntConst(int64_t v) { return MakeConstant(v); }

// Sig.amt, the attribute aggregates read: tenths in [0, 9.9] with an
// occasional +-1e16, so a window mixes magnitudes and any sum that is not
// the plain left-to-right fold over the window shows at 6 digits.
double Amount(Rng* rng) {
  if (rng->Bernoulli(0.1)) return rng->Bernoulli(0.5) ? 1e16 : -1e16;
  return static_cast<double>(rng->Uniform(0, 99)) / 10.0;
}

std::vector<Value> SmallIntValues(int arity, Rng* rng) {
  std::vector<Value> values;
  values.reserve(arity);
  for (int i = 0; i < arity; ++i) {
    values.emplace_back(static_cast<int64_t>(rng->Uniform(0, 3)));
  }
  return values;
}

}  // namespace

Result<GeneratedCase> GenerateCase(uint64_t seed, TypeRegistry* registry,
                                   const GeneratorOptions& options) {
  Rng rng(seed);
  GeneratedCase out(registry);

  const TypeId sig_id = registry->RegisterOrGet(
      "Sig", {{"seg", ValueType::kInt},
              {"pos", ValueType::kInt},
              {"load", ValueType::kInt},
              {"val", ValueType::kInt},
              {"amt", ValueType::kDouble}});
  registry->RegisterOrGet("Probe",
                          {{"seg", ValueType::kInt}, {"mark", ValueType::kInt}});

  const int64_t num_segments =
      rng.Uniform(options.min_segments, options.max_segments);
  const Timestamp duration =
      rng.Uniform(options.min_duration, options.max_duration);

  // Context budget: at most 6 context types including the default (the
  // paper's models are small; the ISSUE pins 2-6).
  const bool with_switch = rng.Bernoulli(0.4);
  const bool with_helper = rng.Bernoulli(0.35);
  int budget = 5 - (with_switch ? 2 : 0) - (with_helper ? 1 : 0);
  const int num_windows =
      static_cast<int>(std::min<int64_t>(rng.Uniform(1, 3), budget));

  CaesarModel& model = out.model;
  std::vector<std::string> all_ctx = {"idle"};
  for (int i = 0; i < num_windows; ++i) {
    all_ctx.push_back("w" + std::to_string(i));
  }
  if (with_switch) {
    all_ctx.push_back("swa");
    all_ctx.push_back("swb");
  }
  if (with_helper) all_ctx.push_back("hot");
  for (const std::string& name : all_ctx) {
    CAESAR_RETURN_IF_ERROR(model.AddContext(name));
  }
  CAESAR_RETURN_IF_ERROR(model.SetDefaultContext("idle"));
  model.SetPartitionBy({"seg"});

  // Every context except `name` (the synthetic-workload initiator gate:
  // a window may open while any other window — or idle — is active).
  auto others = [&](const std::string& name) {
    std::vector<std::string> ctxs;
    for (const std::string& c : all_ctx) {
      if (c != name) ctxs.push_back(c);
    }
    return ctxs;
  };

  auto add_query = [&](Query q) -> Status {
    auto added = model.AddQuery(std::move(q));
    if (!added.ok()) return added.status();
    return Status::Ok();
  };

  auto pos_eq = [&](int64_t v) {
    return MakeBinary(BinaryOp::kEq, Attr("s", "pos"), IntConst(v));
  };

  std::vector<Consumable> consumables;

  // ---- Deriving phase -------------------------------------------------

  // Helper-derived window: a derivation helper detects overload ticks and
  // its output initiates `hot`; the terminator's predicate is mutually
  // exclusive with the helper's, so no tick can both terminate and
  // re-initiate the context.
  int64_t hot_end = 0;
  if (with_helper) {
    hot_end = rng.Uniform(3, duration - 3);
    Query helper;
    helper.name = "hot_src";
    helper.derivation_helper = true;
    helper.contexts = all_ctx;  // always-active gate
    PatternSpec p;
    p.kind = PatternSpec::Kind::kEvent;
    p.items.push_back({"Sig", "s", false});
    helper.pattern = std::move(p);
    helper.where = MakeBinary(BinaryOp::kGe, Attr("s", "val"), IntConst(8));
    DeriveSpec d;
    d.event_type = "Hot";
    d.args = {Attr("s", "seg"), Attr("s", "val")};
    d.attr_names = {"seg", "v"};
    helper.derive = std::move(d);
    CAESAR_RETURN_IF_ERROR(add_query(std::move(helper)));
    consumables.push_back({"Hot", {"seg", "v"}});

    Query init;
    init.name = "init_hot";
    init.action = ContextAction::kInitiate;
    init.target_context = "hot";
    PatternSpec ip;
    ip.kind = PatternSpec::Kind::kEvent;
    ip.items.push_back({"Hot", "h", false});
    init.pattern = std::move(ip);
    init.contexts = others("hot");
    if (rng.Bernoulli(0.5)) {
      // Derive-with-action coverage lives here because `hot` is not
      // threshold-bounded, so window grouping never consumes this query
      // (grouping dedups threshold-bounded deriving queries per bound
      // value, which would silently drop a DERIVE clause).
      DeriveSpec d;
      d.event_type = "HotOpen";
      d.args = {Attr("h", "seg"), Attr("h", "v")};
      d.attr_names = {"seg", "p"};
      init.derive = std::move(d);
      consumables.push_back({"HotOpen", {"seg", "p"}});
    }
    CAESAR_RETURN_IF_ERROR(add_query(std::move(init)));

    Query term;
    term.name = "term_hot";
    term.action = ContextAction::kTerminate;
    term.target_context = "hot";
    PatternSpec tp;
    tp.kind = PatternSpec::Kind::kEvent;
    tp.items.push_back({"Sig", "s", false});
    term.pattern = std::move(tp);
    term.where = MakeConjunction(
        pos_eq(hot_end),
        MakeBinary(BinaryOp::kLt, Attr("s", "val"), IntConst(8)));
    term.contexts = {"hot"};
    CAESAR_RETURN_IF_ERROR(add_query(std::move(term)));
    out.has_helper = true;
  }

  // Plain user windows: INITIATE at pos == s_i, TERMINATE at pos == e_i
  // with s_i < e_i, laid out as absolute one-shot intervals inside the run
  // (the monotone signal crosses every bound exactly once, in sorted
  // order — the soundness precondition of window grouping). Bounds may
  // coincide *across* windows (shared bounds exercise zero-length grouped
  // windows in the optimizer).
  std::vector<int64_t> used_bounds;
  for (int i = 0; i < num_windows; ++i) {
    const std::string wname = "w" + std::to_string(i);
    int64_t start = 0;
    if (!used_bounds.empty() && rng.Bernoulli(0.3)) {
      const int64_t reused = used_bounds[rng.Uniform(
          0, static_cast<int64_t>(used_bounds.size()) - 1)];
      if (reused <= duration - 8) {
        start = reused;
        out.has_shared_bound = true;
      }
    }
    if (start == 0) start = rng.Uniform(3, duration - 20);
    int64_t end = 0;
    if (!used_bounds.empty() && rng.Bernoulli(0.25)) {
      std::vector<int64_t> above;
      for (int64_t b : used_bounds) {
        if (b > start && b <= duration - 3) above.push_back(b);
      }
      if (!above.empty()) {
        end = above[rng.Uniform(0, static_cast<int64_t>(above.size()) - 1)];
        out.has_shared_bound = true;
      }
    }
    if (end == 0) {
      end = std::min<int64_t>(start + rng.Uniform(5, 40), duration - 3);
      if (end <= start) end = start + 1;
    }
    used_bounds.push_back(start);
    used_bounds.push_back(end);

    Query init;
    init.name = "init_" + wname;
    init.action = ContextAction::kInitiate;
    init.target_context = wname;
    PatternSpec ip;
    ip.kind = PatternSpec::Kind::kEvent;
    ip.items.push_back({"Sig", "s", false});
    init.pattern = std::move(ip);
    init.where = pos_eq(start);
    init.contexts = others(wname);
    CAESAR_RETURN_IF_ERROR(add_query(std::move(init)));

    Query term;
    term.name = "term_" + wname;
    term.action = ContextAction::kTerminate;
    term.target_context = wname;
    PatternSpec tp;
    tp.kind = PatternSpec::Kind::kEvent;
    tp.items.push_back({"Sig", "s", false});
    term.pattern = std::move(tp);
    term.where = pos_eq(end);
    term.contexts = {wname};
    CAESAR_RETURN_IF_ERROR(add_query(std::move(term)));
  }

  // Switch pair: swa opens at pos == sw_start, SWITCHes to swb at
  // pos == sw_mid, swb closes at pos == sw_end. Under the monotone signal
  // the order is semantic: the bounds must be crossed start < mid < end.
  if (with_switch) {
    int64_t tri[3];
    tri[0] = rng.Uniform(3, duration - 4);
    do {
      tri[1] = rng.Uniform(3, duration - 4);
    } while (tri[1] == tri[0]);
    do {
      tri[2] = rng.Uniform(3, duration - 4);
    } while (tri[2] == tri[0] || tri[2] == tri[1]);
    std::sort(tri, tri + 3);
    const int64_t sw_start = tri[0], sw_mid = tri[1], sw_end = tri[2];

    Query init;
    init.name = "init_swa";
    init.action = ContextAction::kInitiate;
    init.target_context = "swa";
    PatternSpec ip;
    ip.kind = PatternSpec::Kind::kEvent;
    ip.items.push_back({"Sig", "s", false});
    init.pattern = std::move(ip);
    init.where = pos_eq(sw_start);
    init.contexts = others("swa");
    CAESAR_RETURN_IF_ERROR(add_query(std::move(init)));

    Query sw;
    sw.name = "switch_ab";
    sw.action = ContextAction::kSwitch;
    sw.target_context = "swb";
    PatternSpec sp;
    sp.kind = PatternSpec::Kind::kEvent;
    sp.items.push_back({"Sig", "s", false});
    sw.pattern = std::move(sp);
    sw.where = pos_eq(sw_mid);
    sw.contexts = {"swa"};
    CAESAR_RETURN_IF_ERROR(add_query(std::move(sw)));

    Query term;
    term.name = "term_swb";
    term.action = ContextAction::kTerminate;
    term.target_context = "swb";
    PatternSpec tp;
    tp.kind = PatternSpec::Kind::kEvent;
    tp.items.push_back({"Sig", "s", false});
    term.pattern = std::move(tp);
    term.where = pos_eq(sw_end);
    term.contexts = {"swb"};
    CAESAR_RETURN_IF_ERROR(add_query(std::move(term)));
    out.has_switch = true;
  }

  // ---- Processing phase -----------------------------------------------

  auto pick_contexts = [&]() -> std::vector<std::string> {
    std::vector<std::string> nonidle(all_ctx.begin() + 1, all_ctx.end());
    const int64_t r = rng.Uniform(0, 99);
    if (nonidle.empty() || r < 15) return {"idle"};
    auto pick = [&]() {
      return nonidle[rng.Uniform(0, static_cast<int64_t>(nonidle.size()) - 1)];
    };
    if (r < 60) return {pick()};
    if (r < 85) {
      std::string a = pick();
      if (nonidle.size() < 2) return {a};
      std::string b;
      do {
        b = pick();
      } while (b == a);
      return {a, b};
    }
    return {"idle", pick()};
  };

  const int num_processing = static_cast<int>(rng.Uniform(2, 5));
  const std::vector<Shape> pool = {Shape::kSeq2, Shape::kSeq2, Shape::kSeq2,
                                   Shape::kSeq3, Shape::kNeg,  Shape::kNeg,
                                   Shape::kNegLead, Shape::kAgg, Shape::kAgg,
                                   Shape::kConsumer, Shape::kConsumer};
  std::vector<Shape> shapes;
  for (int i = 0; i < num_processing; ++i) {
    shapes.push_back(
        pool[rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1)]);
  }
  if (options.force_negation) {
    bool any = false;
    for (Shape s : shapes) {
      if (s == Shape::kNeg || s == Shape::kNegLead) any = true;
    }
    if (!any) shapes.back() = Shape::kNeg;
  }

  // SEQ `within` bound: 0 (10% of the time) exercises the plan-default
  // path, which both sides must agree on.
  auto draw_within = [&](int64_t lo, int64_t hi) -> Timestamp {
    if (rng.Bernoulli(0.1)) return 0;
    return rng.Uniform(lo, hi);
  };

  for (int i = 0; i < num_processing; ++i) {
    Shape shape = shapes[i];
    if (shape == Shape::kConsumer && consumables.empty()) shape = Shape::kSeq2;
    const std::string dname = "D" + std::to_string(i);

    Query q;
    q.name = "p" + std::to_string(i);
    q.contexts = pick_contexts();

    switch (shape) {
      case Shape::kSeq2: {
        PatternSpec p;
        p.kind = PatternSpec::Kind::kSeq;
        p.items = {{"Sig", "a", false}, {"Sig", "b", false}};
        p.within = draw_within(3, 10);
        q.pattern = std::move(p);
        ExprPtr w = MakeBinary(BinaryOp::kEq, Attr("a", "load"),
                               Attr("b", "load"));
        if (rng.Bernoulli(0.5)) {
          w = MakeConjunction(w, MakeBinary(BinaryOp::kGe, Attr("b", "val"),
                                            IntConst(rng.Uniform(0, 6))));
        }
        if (rng.Bernoulli(0.4)) {
          w = MakeConjunction(w, MakeBinary(BinaryOp::kLe, Attr("a", "val"),
                                            IntConst(rng.Uniform(4, 9))));
        }
        q.where = std::move(w);
        DeriveSpec d;
        d.event_type = dname;
        if (rng.Bernoulli(0.3)) {
          // Inferred output names with a collision ("load", "load_1") plus
          // an expression arg ("a2") — exercises name inference/dedup.
          d.args = {Attr("a", "load"), Attr("b", "load"),
                    MakeBinary(BinaryOp::kAdd, Attr("a", "val"),
                               Attr("b", "val"))};
        } else {
          d.args = {Attr("a", "pos"), Attr("b", "val"), Attr("b", "load")};
          d.attr_names = {"x0", "x1", "x2"};
          consumables.push_back({dname, {"x0", "x1", "x2"}});
        }
        q.derive = std::move(d);
        break;
      }
      case Shape::kSeq3: {
        PatternSpec p;
        p.kind = PatternSpec::Kind::kSeq;
        p.items = {{"Sig", "a", false},
                   {"Sig", "b", false},
                   {"Sig", "c", false}};
        p.within = draw_within(4, 12);
        q.pattern = std::move(p);
        q.where = MakeConjunction(
            MakeBinary(BinaryOp::kEq, Attr("a", "load"), Attr("c", "load")),
            MakeBinary(BinaryOp::kGe, Attr("b", "val"), IntConst(5)));
        DeriveSpec d;
        d.event_type = dname;
        d.args = {Attr("a", "pos"), Attr("c", "val")};
        d.attr_names = {"x0", "x1"};
        q.derive = std::move(d);
        consumables.push_back({dname, {"x0", "x1"}});
        break;
      }
      case Shape::kNeg: {
        PatternSpec p;
        p.kind = PatternSpec::Kind::kSeq;
        p.items = {{"Sig", "a", false},
                   {"Probe", "n", true},
                   {"Sig", "b", false}};
        p.within = rng.Uniform(3, 10);
        q.pattern = std::move(p);
        ExprPtr w = MakeBinary(BinaryOp::kEq, Attr("a", "load"),
                               Attr("b", "load"));
        if (rng.Bernoulli(0.5)) {
          w = MakeConjunction(w, MakeBinary(BinaryOp::kEq, Attr("n", "mark"),
                                            Attr("a", "load")));
        } else {
          w = MakeConjunction(w, MakeBinary(BinaryOp::kLe, Attr("n", "mark"),
                                            IntConst(rng.Uniform(1, 3))));
        }
        q.where = std::move(w);
        DeriveSpec d;
        d.event_type = dname;
        d.args = {Attr("a", "pos"), Attr("b", "val")};
        d.attr_names = {"x0", "x1"};
        q.derive = std::move(d);
        consumables.push_back({dname, {"x0", "x1"}});
        out.has_negation = true;
        break;
      }
      case Shape::kNegLead: {
        PatternSpec p;
        p.kind = PatternSpec::Kind::kSeq;
        p.items = {{"Probe", "n", true}, {"Sig", "b", false}};
        p.within = rng.Uniform(3, 8);
        q.pattern = std::move(p);
        q.where = MakeBinary(BinaryOp::kEq, Attr("n", "mark"),
                             Attr("b", "load"));
        DeriveSpec d;
        d.event_type = dname;
        d.args = {Attr("b", "pos"), Attr("b", "val")};
        d.attr_names = {"x0", "x1"};
        q.derive = std::move(d);
        consumables.push_back({dname, {"x0", "x1"}});
        out.has_negation = true;
        out.has_leading_negation = true;
        break;
      }
      case Shape::kAgg: {
        PatternSpec p;
        p.kind = PatternSpec::Kind::kAggregate;
        p.items = {{"Sig", "s", false}};
        p.window_length = rng.Uniform(2, 6);
        const bool grouped = rng.Bernoulli(0.5);
        if (grouped) p.group_by = {"load"};
        p.aggregates.push_back({AggregateFunc::kCount, "", "cnt"});
        bool second_agg = rng.Bernoulli(0.7);
        if (second_agg) {
          const AggregateFunc funcs[] = {AggregateFunc::kSum,
                                         AggregateFunc::kAvg,
                                         AggregateFunc::kMin,
                                         AggregateFunc::kMax};
          p.aggregates.push_back({funcs[rng.Uniform(0, 3)], "amt", "v"});
        }
        if (rng.Bernoulli(0.6)) {
          p.having = MakeBinary(BinaryOp::kGe, MakeAttrRef("cnt"),
                                IntConst(rng.Uniform(1, 3)));
        }
        q.pattern = std::move(p);
        if (rng.Bernoulli(0.3)) {
          q.where = MakeBinary(BinaryOp::kLe, Attr("s", "cnt"),
                               IntConst(rng.Uniform(3, 8)));
        }
        DeriveSpec d;
        d.event_type = dname;
        d.args = {Attr("s", "cnt")};
        d.attr_names = {"x0"};
        std::vector<std::string> int_attrs = {"x0"};
        if (grouped && rng.Bernoulli(0.5)) {
          d.args.push_back(Attr("s", "load"));
          d.attr_names.push_back("x1");
          int_attrs.push_back("x1");
        }
        if (second_agg && rng.Bernoulli(0.5)) {
          d.args.push_back(Attr("s", "v"));
          d.attr_names.push_back("xv");  // double-typed; not for predicates
        }
        q.derive = std::move(d);
        consumables.push_back({dname, std::move(int_attrs)});
        out.has_aggregate = true;
        break;
      }
      case Shape::kConsumer: {
        const Consumable& src = consumables[rng.Uniform(
            0, static_cast<int64_t>(consumables.size()) - 1)];
        PatternSpec p;
        p.kind = PatternSpec::Kind::kEvent;
        p.items = {{src.type_name, "d", false}};
        q.pattern = std::move(p);
        const std::string& a0 = src.int_attrs[rng.Uniform(
            0, static_cast<int64_t>(src.int_attrs.size()) - 1)];
        q.where = MakeBinary(BinaryOp::kGe, Attr("d", a0),
                             IntConst(rng.Uniform(0, 5)));
        DeriveSpec d;
        d.event_type = dname;
        d.args = {Attr("d", a0)};
        d.attr_names = {"y0"};
        q.derive = std::move(d);
        consumables.push_back({dname, {"y0"}});
        out.has_consumer = true;
        break;
      }
    }
    CAESAR_RETURN_IF_ERROR(add_query(std::move(q)));
  }

  CAESAR_RETURN_IF_ERROR(model.Normalize());

  // ---- Canonical clean stream ----------------------------------------

  // Amounts come from their own generator: the structural draws (model,
  // times, keys, duplicates) do not depend on them, so a corpus seed keeps
  // its case.
  const TypeId probe_id = registry->Lookup("Probe");
  Rng amounts(seed ^ 0xA66E5A7E5EEDULL);
  for (Timestamp t = 0; t < duration; ++t) {
    for (int64_t seg = 0; seg < num_segments; ++seg) {
      std::vector<Value> sig = {Value(seg), Value(t),
                                Value(rng.Uniform(0, 3)),
                                Value(rng.Uniform(0, 9)),
                                Value(Amount(&amounts))};
      out.clean.push_back(MakeEvent(sig_id, t, sig));
      if (rng.Bernoulli(options.duplicate_rate)) {
        out.clean.push_back(MakeEvent(sig_id, t, sig));
      }
      if (rng.Bernoulli(0.25)) {
        std::vector<Value> probe = {Value(seg), Value(rng.Uniform(0, 3))};
        out.clean.push_back(MakeEvent(probe_id, t, probe));
        if (rng.Bernoulli(options.duplicate_rate)) {
          out.clean.push_back(MakeEvent(probe_id, t, probe));
        }
      }
    }
  }

  out.max_delay = options.max_delay;
  out.multi_window = static_cast<int>(all_ctx.size()) > 2;

  std::ostringstream summary;
  summary << "seed=" << seed << " segments=" << num_segments
          << " duration=" << duration << " windows=" << num_windows
          << (with_switch ? " +switch" : "") << (with_helper ? " +helper" : "")
          << " processing=" << num_processing << " events="
          << out.clean.size();
  if (out.has_negation) summary << " neg";
  if (out.has_aggregate) summary << " agg";
  if (out.has_consumer) summary << " consumer";
  if (out.has_shared_bound) summary << " shared-bound";
  out.summary = summary.str();
  return out;
}

Result<CaesarModel> RestrictQueries(const CaesarModel& model,
                                    const std::vector<int>& keep) {
  CaesarModel restricted(model.registry());
  for (const ContextType& c : model.contexts()) {
    CAESAR_RETURN_IF_ERROR(restricted.AddContext(c.name));
  }
  CAESAR_RETURN_IF_ERROR(restricted.SetDefaultContext(model.default_context()));
  restricted.SetPartitionBy(model.partition_by());
  for (int qi : keep) {
    if (qi < 0 || qi >= model.num_queries()) {
      return Status::InvalidArgument("RestrictQueries: index out of range");
    }
    auto added = restricted.AddQuery(model.query(qi));
    if (!added.ok()) return added.status();
  }
  CAESAR_RETURN_IF_ERROR(restricted.Normalize());
  return restricted;
}

namespace {

// A raw input type some query already reads (for synthesizing pattern
// clauses in mutations); empty if the model has no positive pattern items.
std::string AnyInputType(const CaesarModel& model) {
  for (const Query& query : model.queries()) {
    if (!query.pattern.has_value()) continue;
    for (const PatternItem& item : query.pattern->items) {
      if (!item.negated) return item.event_type;
    }
  }
  return "";
}

Query EventMatchQuery(std::string name, const std::string& input_type) {
  Query query;
  query.name = std::move(name);
  PatternSpec pattern;
  pattern.kind = PatternSpec::Kind::kEvent;
  pattern.items.push_back(PatternItem{input_type, "m", false});
  query.pattern = std::move(pattern);
  return query;
}

}  // namespace

std::vector<std::string> ModelMutationNames() {
  return {"unreachable_context", "self_loop_switch",
          "dead_query",          "unknown_attribute",
          "type_error",          "contradiction",
          "trailing_negation",   "inverted_window",
          "deriving_consumes_processing", "type_cycle",
          "shadowed_switch",     "empty_context"};
}

Result<CaesarModel> MutateModel(const CaesarModel& model,
                                const std::string& mutation,
                                std::string* expected_code) {
  CaesarModel mutated = model;
  const std::string input_type = AnyInputType(model);
  if (input_type.empty()) {
    return Status::FailedPrecondition("model has no pattern inputs to mutate");
  }

  if (mutation == "unreachable_context") {
    // A declared context nobody INITIATEs or SWITCHes to.
    CAESAR_RETURN_IF_ERROR(mutated.AddContext("mut_ghost"));
    *expected_code = "C001";
    return mutated;
  }

  if (mutation == "self_loop_switch") {
    // SWITCH gated on its own target context.
    Query query = EventMatchQuery("mut_selfloop", input_type);
    query.action = ContextAction::kSwitch;
    query.target_context = model.default_context();
    query.contexts = {model.default_context()};
    CAESAR_RETURN_IF_ERROR(mutated.AddQuery(std::move(query)).status());
    *expected_code = "C002";
    return mutated;
  }

  if (mutation == "dead_query") {
    // Two contexts that only initiate each other: both are targeted by
    // some query (so C001 stays quiet) but neither can ever become active.
    CAESAR_RETURN_IF_ERROR(mutated.AddContext("mut_isle_a"));
    CAESAR_RETURN_IF_ERROR(mutated.AddContext("mut_isle_b"));
    Query qa = EventMatchQuery("mut_dead_a", input_type);
    qa.action = ContextAction::kInitiate;
    qa.target_context = "mut_isle_a";
    qa.contexts = {"mut_isle_b"};
    Query qb = EventMatchQuery("mut_dead_b", input_type);
    qb.action = ContextAction::kInitiate;
    qb.target_context = "mut_isle_b";
    qb.contexts = {"mut_isle_a"};
    CAESAR_RETURN_IF_ERROR(mutated.AddQuery(std::move(qa)).status());
    CAESAR_RETURN_IF_ERROR(mutated.AddQuery(std::move(qb)).status());
    *expected_code = "C004";
    return mutated;
  }

  if (mutation == "unknown_attribute") {
    // Reference an attribute no schema in scope defines.
    for (int qi = 0; qi < mutated.num_queries(); ++qi) {
      Query* query = mutated.mutable_query(qi);
      if (!query->pattern.has_value() || query->where == nullptr) continue;
      query->where = MakeConjunction(
          query->where, MakeBinary(BinaryOp::kGe,
                                   MakeAttrRef("mut_no_such_attr"),
                                   MakeConstant(int64_t{0})));
      *expected_code = "E102";
      return mutated;
    }
    return Status::FailedPrecondition("no query with a WHERE to mutate");
  }

  if (mutation == "type_error" || mutation == "contradiction") {
    // Both need a threshold conjunct to anchor on. The rest of the
    // conjunction may be anything: an empty threshold interval falsifies
    // it whatever else it says.
    for (int qi = 0; qi < mutated.num_queries(); ++qi) {
      Query* query = mutated.mutable_query(qi);
      if (!query->pattern.has_value() || query->where == nullptr) continue;
      std::optional<AttrConstraint> anchor;
      for (const ExprPtr& conjunct : SplitConjuncts(query->where)) {
        anchor = ExtractConstraint(conjunct);
        if (anchor.has_value()) break;
      }
      if (!anchor.has_value()) continue;
      if (mutation == "type_error") {
        // Compare the (numeric) anchored attribute against a string.
        query->where = MakeConjunction(
            query->where,
            MakeBinary(BinaryOp::kEq,
                       MakeAttrRef(anchor->variable, anchor->attribute),
                       MakeConstant("mut_oops")));
        *expected_code = "E103";
        return mutated;
      }
      // Contradiction: force the anchored attribute into an empty interval.
      query->where = MakeConjunction(
          query->where,
          MakeConjunction(
              MakeBinary(BinaryOp::kGt,
                         MakeAttrRef(anchor->variable, anchor->attribute),
                         MakeConstant(int64_t{1} << 40)),
              MakeBinary(BinaryOp::kLt,
                         MakeAttrRef(anchor->variable, anchor->attribute),
                         MakeConstant(-(int64_t{1} << 40)))));
      *expected_code = "W201";
      return mutated;
    }
    return Status::FailedPrecondition("no threshold conjunct to mutate");
  }

  if (mutation == "trailing_negation") {
    // Self-contained SEQ ending in NOT (the translator rejects this; the
    // linter reports it as a coded error before translation).
    Query query;
    query.name = "mut_trailing";
    DeriveSpec derive;
    derive.event_type = "MutTrailingOut";
    derive.args.push_back(MakeConstant(int64_t{1}));
    derive.attr_names = {"one"};
    query.derive = std::move(derive);
    PatternSpec pattern;
    pattern.kind = PatternSpec::Kind::kSeq;
    pattern.items.push_back(PatternItem{input_type, "a", false});
    pattern.items.push_back(PatternItem{input_type, "b", true});
    query.pattern = std::move(pattern);
    query.contexts = {model.default_context()};
    CAESAR_RETURN_IF_ERROR(mutated.AddQuery(std::move(query)).status());
    *expected_code = "P302";
    return mutated;
  }

  if (mutation == "inverted_window") {
    // Swap the threshold predicates of a groupable window's initiator and
    // terminator, so the window would close before it opens.
    std::vector<WindowBounds> bounds = ExtractWindowBounds(model);
    if (bounds.empty()) {
      return Status::FailedPrecondition("no groupable window to invert");
    }
    Query* init = mutated.mutable_query(bounds[0].initiator_query);
    Query* term = mutated.mutable_query(bounds[0].terminator_query);
    std::swap(init->where, term->where);
    *expected_code = "W204";
    return mutated;
  }

  if (mutation == "shadowed_switch" || mutation == "empty_context") {
    // Two single-event queries on the input's first attribute `a`, binding
    // the event as m and n. C003: a SWITCH on a >= 0 and a copy on a >= 1
    // from the same gate. C006: a context opening on a = 0 and closing on
    // a <= 0, so each window closes the moment it opens.
    const TypeId input = model.registry()->Lookup(input_type);
    if (input == kInvalidTypeId) {
      return Status::FailedPrecondition("first pattern input is derived");
    }
    const Schema& schema = model.registry()->type(input).schema;
    if (schema.num_attributes() == 0 ||
        schema.attribute(0).type == ValueType::kString) {
      return Status::FailedPrecondition("first input attribute not numeric");
    }
    const std::string attr = schema.attribute(0).name;
    const bool shadow = mutation == "shadowed_switch";
    const std::string target = shadow ? "mut_shadow" : "mut_empty";
    CAESAR_RETURN_IF_ERROR(mutated.AddContext(target));
    auto add = [&](const char* name, const char* variable,
                   ContextAction action, BinaryOp op, int64_t value,
                   const std::string& gate) {
      Query query = EventMatchQuery(name, input_type);
      query.pattern->items[0].variable = variable;
      query.where =
          MakeBinary(op, MakeAttrRef(variable, attr), MakeConstant(value));
      query.action = action;
      query.target_context = target;
      query.contexts = {gate};
      return mutated.AddQuery(std::move(query)).status();
    };
    const std::string& gate = model.default_context();
    if (shadow) {
      CAESAR_RETURN_IF_ERROR(add("mut_switch", "m", ContextAction::kSwitch,
                                 BinaryOp::kGe, 0, gate));
      CAESAR_RETURN_IF_ERROR(add("mut_switch_copy", "n",
                                 ContextAction::kSwitch, BinaryOp::kGe, 1,
                                 gate));
      *expected_code = "C003";
    } else {
      CAESAR_RETURN_IF_ERROR(add("mut_open", "m", ContextAction::kInitiate,
                                 BinaryOp::kEq, 0, gate));
      CAESAR_RETURN_IF_ERROR(add("mut_close", "n", ContextAction::kTerminate,
                                 BinaryOp::kLe, 0, target));
      *expected_code = "C006";
    }
    return mutated;
  }

  if (mutation == "deriving_consumes_processing" || mutation == "type_cycle") {
    // Two queries copy a registered input type into MutCopy and on. P305:
    // the first is a processing query, so it runs after the derivation
    // helper reading its output. P306: both derive, the second back into
    // the input type, so neither can run before the other.
    const bool cycle = mutation == "type_cycle";
    const TypeRegistry& registry = *model.registry();
    const TypeId input = registry.Lookup(input_type);
    if (input == kInvalidTypeId) {
      return Status::FailedPrecondition("first pattern input is derived");
    }
    auto copy = [&](std::string name, const std::string& from,
                    const std::string& to) {
      Query query = EventMatchQuery(std::move(name), from);
      query.derive = DeriveSpec{to, {}, {}};
      for (const Attribute& attr : registry.type(input).schema.attributes()) {
        query.derive->args.push_back(MakeAttrRef("m", attr.name));
        query.derive->attr_names.push_back(attr.name);
      }
      query.derivation_helper = true;
      query.contexts = {model.default_context()};
      return query;
    };
    Query first = copy("mut_copy", input_type, "MutCopy");
    first.derivation_helper = cycle;
    CAESAR_RETURN_IF_ERROR(mutated.AddQuery(std::move(first)).status());
    CAESAR_RETURN_IF_ERROR(
        mutated
            .AddQuery(copy("mut_copy_on", "MutCopy",
                           cycle ? input_type : "MutCopyOn"))
            .status());
    *expected_code = cycle ? "P306" : "P305";
    return mutated;
  }

  return Status::InvalidArgument("unknown model mutation: " + mutation);
}

EventBatch DisorderStream(const EventBatch& clean, uint64_t seed,
                          Timestamp max_delay) {
  if (max_delay <= 0) return clean;
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<std::pair<Timestamp, size_t>> keys;
  keys.reserve(clean.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    keys.emplace_back(clean[i]->time() + rng.Uniform(0, max_delay), i);
  }
  std::stable_sort(keys.begin(), keys.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  EventBatch out;
  out.reserve(clean.size());
  for (const auto& [key, index] : keys) out.push_back(clean[index]);
  return out;
}

EventBatch InjectJunk(const EventBatch& stream, uint64_t seed,
                      const TypeRegistry& registry, TypeId clone_type,
                      Timestamp slack, double malformed_rate,
                      double late_rate) {
  Rng rng(seed ^ 0xD1FF5EEDCAFEF00DULL);
  const int arity = registry.type(clone_type).schema.num_attributes();
  EventBatch out;
  out.reserve(stream.size());
  Timestamp max_seen = 0;
  bool any_seen = false;
  for (const EventPtr& event : stream) {
    out.push_back(event);
    if (!any_seen || event->time() > max_seen) {
      max_seen = event->time();
      any_seen = true;
    }
    if (rng.Bernoulli(malformed_rate)) {
      switch (rng.Uniform(0, 2)) {
        case 0:
          // Unknown type id, far above anything the registry will ever
          // intern during this run.
          out.push_back(MakeEvent(1000000 + static_cast<TypeId>(
                                      rng.Uniform(0, 7)),
                                  event->time(), {}));
          break;
        case 1:
          out.push_back(MakeEvent(clone_type, -1 - rng.Uniform(0, 50),
                                  SmallIntValues(arity, &rng)));
          break;
        default:
          // Inverted interval: end < start with end >= 0.
          out.push_back(MakeComplexEvent(clone_type, event->time() + 2,
                                         event->time(),
                                         SmallIntValues(arity, &rng)));
          break;
      }
    }
    if (any_seen && rng.Bernoulli(late_rate)) {
      const Timestamp late = max_seen - slack - 1 - rng.Uniform(0, 3);
      if (late >= 0) {
        out.push_back(MakeEvent(clone_type, late, SmallIntValues(arity, &rng)));
      }
    }
  }
  return out;
}

}  // namespace caesar
