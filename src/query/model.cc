#include "query/model.h"

#include <algorithm>
#include <sstream>

namespace caesar {

const char* ContextActionName(ContextAction action) {
  switch (action) {
    case ContextAction::kNone:
      return "none";
    case ContextAction::kInitiate:
      return "INITIATE";
    case ContextAction::kSwitch:
      return "SWITCH";
    case ContextAction::kTerminate:
      return "TERMINATE";
  }
  return "?";
}

const char* AggregateFuncName(AggregateFunc func) {
  switch (func) {
    case AggregateFunc::kCount:
      return "count";
    case AggregateFunc::kSum:
      return "sum";
    case AggregateFunc::kAvg:
      return "avg";
    case AggregateFunc::kMin:
      return "min";
    case AggregateFunc::kMax:
      return "max";
  }
  return "?";
}

std::string PatternSpec::ToString() const {
  std::ostringstream os;
  auto item_str = [](const PatternItem& item) {
    std::string s;
    if (item.negated) s += "NOT ";
    s += item.event_type;
    if (!item.variable.empty()) s += " " + item.variable;
    return s;
  };
  switch (kind) {
    case Kind::kEvent:
      os << item_str(items[0]);
      break;
    case Kind::kSeq:
      os << "SEQ(";
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) os << ", ";
        os << item_str(items[i]);
      }
      os << ")";
      break;
    case Kind::kAggregate:
      os << "AGG(" << item_str(items[0]) << ", window=" << window_length
         << ", by=[";
      for (size_t i = 0; i < group_by.size(); ++i) {
        if (i > 0) os << ",";
        os << group_by[i];
      }
      os << "], [";
      for (size_t i = 0; i < aggregates.size(); ++i) {
        if (i > 0) os << ",";
        os << AggregateFuncName(aggregates[i].func) << "("
           << aggregates[i].attribute << ") AS " << aggregates[i].name;
      }
      os << "]";
      if (having != nullptr) os << " HAVING " << having->ToString();
      os << ")";
      break;
  }
  return os.str();
}

std::string DeriveSpec::ToString() const {
  std::ostringstream os;
  os << event_type << "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) os << ", ";
    os << args[i]->ToString();
  }
  os << ")";
  return os.str();
}

bool Query::Opens(const std::string& context) const {
  return (action == ContextAction::kInitiate ||
          action == ContextAction::kSwitch) &&
         target_context == context;
}

bool Query::Closes(const std::string& context) const {
  if (action == ContextAction::kTerminate) return target_context == context;
  return action == ContextAction::kSwitch && target_context != context &&
         std::find(contexts.begin(), contexts.end(), context) !=
             contexts.end();
}

std::string QueryLabel(const Query& query, int index) {
  return query.name.empty() ? "query #" + std::to_string(index) : query.name;
}

std::string Query::ToString() const {
  std::ostringstream os;
  if (!name.empty()) os << "QUERY " << name << "\n";
  if (action != ContextAction::kNone) {
    os << ContextActionName(action) << " CONTEXT " << target_context << "\n";
  }
  if (derive.has_value()) os << "DERIVE " << derive->ToString() << "\n";
  if (pattern.has_value()) os << "PATTERN " << pattern->ToString() << "\n";
  if (where != nullptr) os << "WHERE " << where->ToString() << "\n";
  if (!contexts.empty()) {
    os << "CONTEXT ";
    for (size_t i = 0; i < contexts.size(); ++i) {
      if (i > 0) os << ", ";
      os << contexts[i];
    }
    os << "\n";
  }
  return os.str();
}

Status CaesarModel::AddContext(const std::string& name, SourceLoc loc) {
  if (ContextIndex(name) >= 0) {
    return Status::AlreadyExists("context already declared: " + name);
  }
  ContextType context;
  context.name = name;
  context.loc = loc;
  contexts_.push_back(std::move(context));
  if (default_context_.empty()) default_context_ = name;
  return Status::Ok();
}

Status CaesarModel::SetDefaultContext(const std::string& name) {
  if (ContextIndex(name) < 0) {
    return Status::NotFound("unknown default context: " + name);
  }
  default_context_ = name;
  return Status::Ok();
}

Result<int> CaesarModel::AddQuery(Query query) {
  queries_.push_back(std::move(query));
  return num_queries() - 1;
}

int CaesarModel::ContextIndex(const std::string& name) const {
  for (int i = 0; i < num_contexts(); ++i) {
    if (contexts_[i].name == name) return i;
  }
  return -1;
}

Status CaesarModel::Normalize() {
  // Phase 1: implied CONTEXT clauses become mandatory (skipped when no
  // context is declared at all, itself a structural defect).
  if (!contexts_.empty()) {
    for (Query& query : queries_) {
      if (query.contexts.empty()) {
        query.contexts.push_back(default_context_);
      }
    }
  }
  // Workloads of the contexts that resolve; unknown names are C005 defects.
  for (ContextType& context : contexts_) {
    context.deriving_queries.clear();
    context.processing_queries.clear();
  }
  for (int qi = 0; qi < num_queries(); ++qi) {
    const Query& query = queries_[qi];
    for (const std::string& context_name : query.contexts) {
      int ci = ContextIndex(context_name);
      if (ci < 0) continue;
      if (query.IsContextDeriving()) {
        contexts_[ci].deriving_queries.push_back(qi);
      } else {
        contexts_[ci].processing_queries.push_back(qi);
      }
    }
  }
  return CheckStructure();
}

Status CaesarModel::CheckStructure() const {
  std::vector<Diagnostic> defects = StructuralDiagnostics();
  if (!defects.empty()) {
    return Status::FailedPrecondition(FormatDiagnostic(defects.front()));
  }
  return Status::Ok();
}

std::vector<Diagnostic> CaesarModel::StructuralDiagnostics() const {
  std::vector<Diagnostic> diags;
  if (contexts_.empty()) {
    diags.push_back(
        MakeDiag(DiagCode::kC005UnknownContext, "model declares no contexts"));
  } else if (ContextIndex(default_context_) < 0) {
    diags.push_back(MakeDiag(DiagCode::kC005UnknownContext,
                             "default context not declared: " +
                                 default_context_));
  }
  if (num_contexts() > kMaxContexts) {
    diags.push_back(MakeDiag(
        DiagCode::kP301TooManyContexts,
        "model declares " + std::to_string(num_contexts()) +
            " contexts; the runtime context vector holds at most " +
            std::to_string(kMaxContexts)));
  }
  for (int qi = 0; qi < num_queries(); ++qi) {
    const Query& query = queries_[qi];
    // The label is built only for a defect, so a clean model allocates
    // nothing here.
    auto emit = [&](DiagCode code, const std::string& message, SourceLoc loc,
                    const std::string& context = {}) {
      std::string label = QueryLabel(query, qi);
      std::string text = "query '" + label + "': " + message;
      diags.push_back(
          MakeDiag(code, std::move(text), loc, std::move(label), context));
    };
    if (!query.pattern.has_value() || query.pattern->items.empty()) {
      emit(DiagCode::kE107MissingPattern, "missing PATTERN clause", query.loc);
    }
    if (query.action == ContextAction::kNone && !query.derive.has_value()) {
      emit(DiagCode::kE108MissingDeriveOrAction,
           "needs a DERIVE clause or a context action", query.loc);
    }
    if (query.action != ContextAction::kNone &&
        ContextIndex(query.target_context) < 0) {
      emit(DiagCode::kC005UnknownContext,
           "unknown target context " + query.target_context, query.loc,
           query.target_context);
    }
    for (const std::string& context_name : query.contexts) {
      if (ContextIndex(context_name) < 0) {
        emit(DiagCode::kC005UnknownContext, "unknown context " + context_name,
             query.loc, context_name);
      }
    }
    if (!query.context_anchors.empty()) {
      if (query.context_anchors.size() != query.contexts.size()) {
        emit(DiagCode::kC005UnknownContext,
             "context_anchors must parallel the CONTEXT clause", query.loc);
      }
      for (const std::string& anchor : query.context_anchors) {
        if (ContextIndex(anchor) < 0) {
          emit(DiagCode::kC005UnknownContext, "unknown anchor " + anchor,
               query.loc, anchor);
        }
      }
    }
    if (!query.pattern.has_value()) continue;
    const PatternSpec& pattern = *query.pattern;
    if (pattern.kind == PatternSpec::Kind::kSeq && !pattern.items.empty()) {
      if (std::all_of(pattern.items.begin(), pattern.items.end(),
                      [](const PatternItem& item) { return item.negated; })) {
        emit(DiagCode::kE109NoPositiveItem, "pattern has no positive event",
             query.pattern_loc);
      }
      if (pattern.items.back().negated) {
        emit(DiagCode::kP302TrailingNegation,
             "SEQ pattern ends with a negated position (trailing NOT has no "
             "bounded semantics)",
             query.pattern_loc);
      }
    }
    if (pattern.kind == PatternSpec::Kind::kAggregate) {
      if (pattern.items.size() != 1 || pattern.items[0].negated) {
        emit(DiagCode::kE105BadAggregate,
             "aggregate pattern needs one positive input", query.pattern_loc);
      }
      if (pattern.window_length <= 0) {
        emit(DiagCode::kE105BadAggregate,
             "aggregate pattern needs a positive window length",
             query.pattern_loc);
      }
    }
  }
  return diags;
}

std::string CaesarModel::ToString() const {
  std::ostringstream os;
  os << "CONTEXTS ";
  for (int i = 0; i < num_contexts(); ++i) {
    if (i > 0) os << ", ";
    os << contexts_[i].name;
    if (contexts_[i].name == default_context_) os << " (default)";
  }
  os << "\n\n";
  for (const Query& query : queries_) {
    os << query.ToString() << "\n";
  }
  return os.str();
}

}  // namespace caesar
