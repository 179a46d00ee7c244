#include "analysis/absint.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "algebra/pattern_op.h"
#include "compile/compiled_pattern_op.h"
#include "plan/translator.h"
#include "query/model.h"

namespace caesar {

namespace {

// Edge propagation rounds before truncation. Bounds only ever tighten, so
// stopping early leaves intervals wider than the true fixpoint — a sound
// over-approximation (see the widening note in absint.h).
constexpr int kMaxPropagationRounds = 16;

Interval ThresholdInterval(BinaryOp op, double value) {
  AttrConstraint constraint;
  constraint.op = op;
  constraint.value = value;
  return constraint.ToInterval();
}

// Tightens the upper/lower bound in place; true when the interval changed.
// Infinite source bounds are skipped (they carry no information and would
// only toggle openness flags at infinity).
bool TightenHi(Interval* iv, double hi, bool open) {
  if (!std::isfinite(hi)) return false;
  if (hi < iv->hi || (hi == iv->hi && open && !iv->hi_open)) {
    iv->hi = hi;
    iv->hi_open = open;
    return true;
  }
  return false;
}

bool TightenLo(Interval* iv, double lo, bool open) {
  if (!std::isfinite(lo)) return false;
  if (lo > iv->lo || (lo == iv->lo && open && !iv->lo_open)) {
    iv->lo = lo;
    iv->lo_open = open;
    return true;
  }
  return false;
}

bool IntersectChanged(Interval* iv, const Interval& other) {
  bool changed = TightenLo(iv, other.lo, other.lo_open);
  changed |= TightenHi(iv, other.hi, other.hi_open);
  return changed;
}

// Walks the flattened conjunct rooted at `idx`, appending leaf conjunct
// node indices left to right.
void CollectConjunctNodes(const std::vector<CompiledExpr::Node>& nodes,
                          int idx, std::vector<int>* out) {
  const CompiledExpr::Node& node = nodes[idx];
  if (node.kind == Expr::Kind::kBinary && node.op == BinaryOp::kAnd) {
    CollectConjunctNodes(nodes, node.left, out);
    CollectConjunctNodes(nodes, node.right, out);
    return;
  }
  out->push_back(idx);
}

}  // namespace

const char* AbsVerdictName(AbsVerdict verdict) {
  switch (verdict) {
    case AbsVerdict::kUnknown:
      return "unknown";
    case AbsVerdict::kTrue:
      return "true";
    case AbsVerdict::kFalse:
      return "false";
  }
  return "?";
}

AbsPredicate AbstractPredicate(const CompiledExpr& expr) {
  AbsPredicate pred;
  pred.exact = true;
  const std::vector<CompiledExpr::Node>& nodes = expr.nodes();
  if (nodes.empty()) {
    pred.exact = false;
    return pred;
  }
  std::vector<int> conjuncts;
  CollectConjunctNodes(nodes, static_cast<int>(nodes.size()) - 1, &conjuncts);
  for (int idx : conjuncts) {
    const CompiledExpr::Node& node = nodes[idx];
    // kNe carves a hole out of an interval rather than bounding it; the
    // domain cannot represent that, so it degrades to inexact like any
    // other unconvertible conjunct.
    if (node.kind != Expr::Kind::kBinary || !IsComparison(node.op) ||
        node.op == BinaryOp::kNe) {
      pred.exact = false;
      continue;
    }
    const CompiledExpr::Node& left = nodes[node.left];
    const CompiledExpr::Node& right = nodes[node.right];
    AbsConstraint constraint;
    if (left.kind == Expr::Kind::kAttrRef &&
        right.kind == Expr::Kind::kAttrRef) {
      constraint.kind = AbsConstraint::Kind::kVarVar;
      constraint.var = left.var_index;
      constraint.attr = left.attr_index;
      constraint.op = node.op;
      constraint.rhs_var = right.var_index;
      constraint.rhs_attr = right.attr_index;
    } else if (left.kind == Expr::Kind::kAttrRef &&
               right.kind == Expr::Kind::kConstant &&
               right.constant.is_numeric()) {
      constraint.kind = AbsConstraint::Kind::kThreshold;
      constraint.var = left.var_index;
      constraint.attr = left.attr_index;
      constraint.op = node.op;
      constraint.value = right.constant.ToDouble();
    } else if (right.kind == Expr::Kind::kAttrRef &&
               left.kind == Expr::Kind::kConstant &&
               left.constant.is_numeric()) {
      constraint.kind = AbsConstraint::Kind::kThreshold;
      constraint.var = right.var_index;
      constraint.attr = right.attr_index;
      constraint.op = MirrorComparison(node.op);
      constraint.value = left.constant.ToDouble();
    } else {
      pred.exact = false;
      continue;
    }
    pred.constraints.push_back(constraint);
  }
  return pred;
}

Interval IntervalFacts::Get(int var, int attr) const {
  auto it = intervals_.find({var, attr});
  if (it == intervals_.end()) return Interval();
  return it->second;
}

AbsVerdict IntervalFacts::Check(const AbsConstraint& constraint) const {
  if (constraint.kind == AbsConstraint::Kind::kThreshold) {
    Interval guard = ThresholdInterval(constraint.op, constraint.value);
    Interval facts = Get(constraint.var, constraint.attr);
    if (facts.IsEmpty()) return AbsVerdict::kUnknown;  // unreachable anyway
    if (facts.ContainedIn(guard)) return AbsVerdict::kTrue;
    Interval overlap = facts;
    overlap.IntersectWith(guard);
    if (overlap.IsEmpty()) return AbsVerdict::kFalse;
    return AbsVerdict::kUnknown;
  }

  // Variable-variable comparison `x op y`. The same reference on both
  // sides is an identity comparison, decidable outright.
  if (constraint.var == constraint.rhs_var &&
      constraint.attr == constraint.rhs_attr) {
    switch (constraint.op) {
      case BinaryOp::kEq:
      case BinaryOp::kLe:
      case BinaryOp::kGe:
        return AbsVerdict::kTrue;
      default:
        return AbsVerdict::kFalse;  // x < x / x > x
    }
  }
  Interval x = Get(constraint.var, constraint.attr);
  Interval y = Get(constraint.rhs_var, constraint.rhs_attr);
  if (x.IsEmpty() || y.IsEmpty()) return AbsVerdict::kUnknown;
  // Normalize kGt/kGe to kLt/kLe by swapping operands. The intervals are
  // independent over-approximations, so deciding the comparison over the
  // whole product region X x Y is sound in both directions.
  BinaryOp op = constraint.op;
  if (op == BinaryOp::kGt || op == BinaryOp::kGe) {
    std::swap(x, y);
    op = (op == BinaryOp::kGt) ? BinaryOp::kLt : BinaryOp::kLe;
  }
  if (op == BinaryOp::kLt) {
    if (x.hi < y.lo || (x.hi == y.lo && (x.hi_open || y.lo_open))) {
      return AbsVerdict::kTrue;
    }
    if (x.lo >= y.hi) return AbsVerdict::kFalse;
    return AbsVerdict::kUnknown;
  }
  if (op == BinaryOp::kLe) {
    if (x.hi <= y.lo) return AbsVerdict::kTrue;
    if (x.lo > y.hi || (x.lo == y.hi && (x.lo_open || y.hi_open))) {
      return AbsVerdict::kFalse;
    }
    return AbsVerdict::kUnknown;
  }
  // kEq.
  Interval overlap = x;
  overlap.IntersectWith(y);
  if (overlap.IsEmpty()) return AbsVerdict::kFalse;
  if (x.lo == x.hi && !x.lo_open && !x.hi_open && y.lo == y.hi &&
      !y.lo_open && !y.hi_open && x.lo == y.lo) {
    return AbsVerdict::kTrue;
  }
  return AbsVerdict::kUnknown;
}

AbsVerdict IntervalFacts::Check(const AbsPredicate& pred) const {
  bool all_true = true;
  for (const AbsConstraint& constraint : pred.constraints) {
    AbsVerdict verdict = Check(constraint);
    if (verdict == AbsVerdict::kFalse) return AbsVerdict::kFalse;
    if (verdict != AbsVerdict::kTrue) all_true = false;
  }
  return (all_true && pred.exact) ? AbsVerdict::kTrue : AbsVerdict::kUnknown;
}

void IntervalFacts::Apply(const AbsPredicate& pred) {
  for (const AbsConstraint& constraint : pred.constraints) {
    if (constraint.kind == AbsConstraint::Kind::kThreshold) {
      Interval& iv = intervals_[{constraint.var, constraint.attr}];
      iv.IntersectWith(ThresholdInterval(constraint.op, constraint.value));
      continue;
    }
    if (constraint.var == constraint.rhs_var &&
        constraint.attr == constraint.rhs_attr) {
      continue;  // identity comparison: no inter-attribute information
    }
    edges_.push_back(Edge{constraint.var, constraint.attr, constraint.op,
                          constraint.rhs_var, constraint.rhs_attr});
  }
  Propagate();
}

void IntervalFacts::Propagate() {
  for (int round = 0; round < kMaxPropagationRounds; ++round) {
    bool changed = false;
    for (const Edge& edge : edges_) {
      Interval& x = intervals_[{edge.var, edge.attr}];
      Interval& y = intervals_[{edge.rhs_var, edge.rhs_attr}];
      switch (edge.op) {
        case BinaryOp::kLt:  // x < y: x below y's ceiling, y above x's floor
          changed |= TightenHi(&x, y.hi, true);
          changed |= TightenLo(&y, x.lo, true);
          break;
        case BinaryOp::kLe:
          changed |= TightenHi(&x, y.hi, y.hi_open);
          changed |= TightenLo(&y, x.lo, x.lo_open);
          break;
        case BinaryOp::kGt:
          changed |= TightenLo(&x, y.lo, true);
          changed |= TightenHi(&y, x.hi, true);
          break;
        case BinaryOp::kGe:
          changed |= TightenLo(&x, y.lo, y.lo_open);
          changed |= TightenHi(&y, x.hi, x.hi_open);
          break;
        case BinaryOp::kEq: {
          Interval joined = x;
          joined.IntersectWith(y);
          changed |= IntersectChanged(&x, joined);
          changed |= IntersectChanged(&y, joined);
          break;
        }
        default:
          break;
      }
    }
    if (!changed) break;
  }
  contradiction_ = false;
  for (const auto& [key, iv] : intervals_) {
    if (iv.IsEmpty()) {
      contradiction_ = true;
      break;
    }
  }
}

std::pair<int, int> IntervalFacts::EmptyKey() const {
  for (const auto& [key, iv] : intervals_) {
    if (iv.IsEmpty()) return key;
  }
  return {-1, -1};
}

std::optional<double> IntervalFacts::SatisfiableFraction(
    const AbsPredicate& pred) const {
  // Guard interval per constrained attribute (thresholds only; relational
  // constraints carry no width information).
  std::map<std::pair<int, int>, Interval> guards;
  for (const AbsConstraint& constraint : pred.constraints) {
    if (constraint.kind != AbsConstraint::Kind::kThreshold) continue;
    guards[{constraint.var, constraint.attr}].IntersectWith(
        ThresholdInterval(constraint.op, constraint.value));
  }
  double fraction = 1.0;
  bool any = false;
  for (const auto& [key, guard] : guards) {
    Interval facts = Get(key.first, key.second);
    double width = facts.hi - facts.lo;
    if (!std::isfinite(width) || width <= 0) continue;
    Interval overlap = facts;
    overlap.IntersectWith(guard);
    double kept = overlap.IsEmpty() ? 0.0 : overlap.hi - overlap.lo;
    fraction *= kept / width;
    any = true;
  }
  if (!any) return std::nullopt;
  return std::clamp(fraction, 0.0, 1.0);
}

PatternAbsintResult AnalyzePositions(
    const std::vector<AbsPosition>& positions) {
  PatternAbsintResult result;
  IntervalFacts facts;
  result.states.push_back(facts);
  for (size_t k = 0; k < positions.size(); ++k) {
    const AbsPosition& position = positions[k];
    std::vector<AbsGuardInfo> infos(position.guards.size());
    if (!position.negated) {
      for (size_t g = 0; g < position.guards.size(); ++g) {
        if (result.dead()) break;  // verdicts past a dead transition: moot
        infos[g].verdict = facts.Check(position.guards[g]);
        infos[g].sat_fraction = facts.SatisfiableFraction(position.guards[g]);
        if (infos[g].verdict == AbsVerdict::kFalse) {
          result.dead_position = static_cast<int>(k);
          result.dead_guard = static_cast<int>(g);
          break;
        }
        facts.Apply(position.guards[g]);
      }
      if (!result.dead() && facts.contradiction()) {
        result.dead_position = static_cast<int>(k);
        result.dead_guard = -1;
      }
    }
    result.guards.push_back(std::move(infos));
    result.states.push_back(facts);
  }
  return result;
}

namespace {

std::string FmtDouble(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// Renders the facts of one pattern operator. Variables are named by pattern
// slot ("p0", "p1", ...) — the config does not retain source variable
// names — and attributes resolve through each slot's schema.
void DumpConfigFacts(const PatternOpConfig& config,
                     const TypeRegistry& registry, std::ostringstream& os) {
  std::vector<AbsPosition> positions;
  for (const PatternOpConfig::Position& position : config.positions) {
    AbsPosition abs;
    abs.negated = position.negated;
    for (const auto& predicate : position.predicates) {
      abs.guards.push_back(AbstractPredicate(*predicate));
    }
    positions.push_back(std::move(abs));
  }
  PatternAbsintResult result = AnalyzePositions(positions);

  auto attr_name = [&](int var, int attr) {
    std::string name =
        std::string("p").append(std::to_string(var)).append(".");
    TypeId type = config.positions[var].type_id;
    const Schema& schema = registry.type(type).schema;
    if (attr >= 0 && attr < schema.num_attributes()) {
      name += schema.attribute(attr).name;
    } else {
      name.append("a").append(std::to_string(attr));
    }
    return name;
  };

  auto render_state = [&](const IntervalFacts& facts) {
    bool any = false;
    for (const auto& [key, iv] : facts.intervals()) {
      os << "    " << attr_name(key.first, key.second) << " in "
         << iv.ToString() << "\n";
      any = true;
    }
    if (!any) os << "    top\n";
  };

  for (size_t k = 0; k < positions.size(); ++k) {
    const PatternOpConfig::Position& position = config.positions[k];
    os << "  state " << k << "\n";
    render_state(result.states[k]);
    os << "  pos " << k << " ("
       << registry.type(position.type_id).name
       << (position.negated ? ", negated" : "") << ")\n";
    for (size_t g = 0; g < position.predicates.size(); ++g) {
      const AbsGuardInfo& info = result.guards[k][g];
      os << "    guard #" << g << ": ("
         << position.predicates[g]->ToString()
         << ")  verdict=" << AbsVerdictName(info.verdict);
      if (info.sat_fraction.has_value()) {
        os << "  sat=" << FmtDouble(*info.sat_fraction);
      }
      os << "\n";
    }
    if (result.dead_position == static_cast<int>(k)) {
      if (result.dead_guard >= 0) {
        os << "    dead: guard #" << result.dead_guard
           << " provably false\n";
      } else {
        auto key = result.states[k + 1].EmptyKey();
        os << "    dead: guards jointly contradictory";
        if (key.first >= 0) {
          os << " (" << attr_name(key.first, key.second) << " in "
             << result.states[k + 1].Get(key.first, key.second).ToString()
             << ")";
        }
        os << "\n";
      }
    }
  }
  os << "  state " << positions.size() << " (accepting)\n";
  render_state(result.states[positions.size()]);
}

}  // namespace

Result<std::string> DumpModelFacts(const CaesarModel& model,
                                   const PlanOptions& plan_options) {
  CAESAR_ASSIGN_OR_RETURN(ExecutablePlan plan,
                          TranslateModel(model, plan_options));
  std::ostringstream os;
  for (const auto* queries : {&plan.deriving, &plan.processing}) {
    for (const CompiledQuery& query : *queries) {
      for (const auto& op : query.chain.ops) {
        const PatternOpConfig* config = nullptr;
        if (op->kind() == Operator::Kind::kPattern) {
          config = &static_cast<const PatternOp&>(*op).config();
        } else if (op->kind() == Operator::Kind::kCompiledPattern) {
          config = &static_cast<const CompiledPatternOp&>(*op).config();
        } else {
          continue;
        }
        os << "query " << query.name << "\n";
        DumpConfigFacts(*config, *plan.registry, os);
      }
    }
  }
  return os.str();
}

}  // namespace caesar
