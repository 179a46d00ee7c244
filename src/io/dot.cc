#include "io/dot.h"

#include <sstream>

namespace caesar {

namespace {

std::string EscapeLabel(const std::string& text) {
  std::string escaped;
  for (char c : text) {
    if (c == '"' || c == '\\') escaped += '\\';
    if (c == '\n') {
      escaped += "\\n";
      continue;
    }
    escaped += c;
  }
  return escaped;
}

}  // namespace

std::string ModelToDot(const CaesarModel& model) {
  std::ostringstream os;
  os << "digraph caesar_model {\n  rankdir=LR;\n  node [shape=ellipse];\n";
  for (int c = 0; c < model.num_contexts(); ++c) {
    const ContextType& context = model.context(c);
    std::ostringstream label;
    label << context.name;
    if (!context.processing_queries.empty()) {
      label << "\n";
      for (size_t q = 0; q < context.processing_queries.size(); ++q) {
        if (q > 0) label << ", ";
        label << model.query(context.processing_queries[q]).name;
      }
    }
    os << "  \"" << context.name << "\" [label=\""
       << EscapeLabel(label.str()) << "\"";
    if (context.name == model.default_context()) {
      os << ", peripheries=2";
    }
    os << "];\n";
  }
  for (int qi = 0; qi < model.num_queries(); ++qi) {
    const Query& query = model.query(qi);
    if (query.action == ContextAction::kNone) continue;
    std::string label = query.name;
    if (query.where != nullptr) {
      label += "\nif " + query.where->ToString();
    }
    for (const std::string& source : query.contexts) {
      switch (query.action) {
        case ContextAction::kInitiate:
          os << "  \"" << source << "\" -> \"" << query.target_context
             << "\" [style=dashed, label=\"" << EscapeLabel(label)
             << "\"];\n";
          break;
        case ContextAction::kSwitch:
          os << "  \"" << source << "\" -> \"" << query.target_context
             << "\" [label=\"" << EscapeLabel(label) << "\"];\n";
          break;
        case ContextAction::kTerminate:
          os << "  \"" << source << "\" -> \"" << model.default_context()
             << "\" [style=dotted, label=\"" << EscapeLabel(label)
             << "\"];\n";
          break;
        case ContextAction::kNone:
          break;
      }
    }
  }
  os << "}\n";
  return os.str();
}

std::string PlanToDot(const ExecutablePlan& plan) {
  std::ostringstream os;
  os << "digraph caesar_plan {\n  rankdir=BT;\n  node [shape=box];\n";
  int cluster = 0;
  auto emit = [&](const CompiledQuery& query, const char* phase) {
    os << "  subgraph cluster_" << cluster++ << " {\n    label=\""
       << EscapeLabel(query.name) << " (" << phase << ")\";\n";
    std::string previous;
    for (size_t o = 0; o < query.chain.ops.size(); ++o) {
      std::string node = std::string("q")
                             .append(std::to_string(cluster))
                             .append("_op")
                             .append(std::to_string(o));
      os << "    " << node << " [label=\""
         << EscapeLabel(query.chain.ops[o]->DebugString()) << "\"];\n";
      if (!previous.empty()) os << "    " << previous << " -> " << node << ";\n";
      previous = node;
    }
    os << "  }\n";
  };
  for (const CompiledQuery& query : plan.deriving) emit(query, "deriving");
  for (const CompiledQuery& query : plan.processing) emit(query, "processing");
  os << "}\n";
  return os.str();
}

}  // namespace caesar
