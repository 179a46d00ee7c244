#include "query/parser.h"

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostics.h"
#include "expr/lexer.h"
#include "expr/parser.h"

namespace caesar {

namespace {

// Keywords that begin a clause; an identifier list (e.g. CONTEXT names)
// stops before these.
bool IsClauseKeyword(const Token& token) {
  static constexpr const char* kKeywords[] = {
      "QUERY",   "INITIATE", "SWITCH",  "TERMINATE", "DERIVE",
      "PATTERN", "WHERE",    "CONTEXT", "CONTEXTS",  "PARTITION",
      "DEFAULT", "TYPE"};
  for (const char* keyword : kKeywords) {
    if (token.IsKeyword(keyword)) return true;
  }
  return false;
}

class ModelParser {
 public:
  ModelParser(const std::vector<Token>& tokens, size_t pos,
              std::string source_name)
      : tokens_(tokens), pos_(pos), source_(std::move(source_name)) {}


  // Parses one query: a sequence of clauses up to ';' or end.
  Result<Query> ParseQueryBody() {
    Query query;
    query.loc = Peek().loc;
    if (Peek().IsKeyword("QUERY")) {
      ++pos_;
      CAESAR_ASSIGN_OR_RETURN(query.name, ExpectIdentifier("query name"));
    }
    bool any_clause = false;
    while (true) {
      const Token& token = Peek();
      if (token.kind == TokenKind::kEnd ||
          token.kind == TokenKind::kSemicolon) {
        break;
      }
      if (token.IsKeyword("INITIATE") || token.IsKeyword("SWITCH") ||
          token.IsKeyword("TERMINATE")) {
        if (query.action != ContextAction::kNone) {
          return Error("duplicate context action clause");
        }
        query.action = token.IsKeyword("INITIATE") ? ContextAction::kInitiate
                       : token.IsKeyword("SWITCH") ? ContextAction::kSwitch
                                                   : ContextAction::kTerminate;
        ++pos_;
        if (!Peek().IsKeyword("CONTEXT")) {
          return Error("expected CONTEXT after context action");
        }
        ++pos_;
        CAESAR_ASSIGN_OR_RETURN(query.target_context,
                                ExpectIdentifier("context name"));
        any_clause = true;
      } else if (token.IsKeyword("DERIVE")) {
        if (query.derive.has_value()) return Error("duplicate DERIVE clause");
        ++pos_;
        CAESAR_ASSIGN_OR_RETURN(DeriveSpec derive, ParseDerive());
        query.derive = std::move(derive);
        any_clause = true;
      } else if (token.IsKeyword("PATTERN")) {
        if (query.pattern.has_value()) {
          return Error("duplicate PATTERN clause");
        }
        query.pattern_loc = token.loc;
        ++pos_;
        CAESAR_ASSIGN_OR_RETURN(PatternSpec pattern, ParsePattern());
        query.pattern = std::move(pattern);
        any_clause = true;
      } else if (token.IsKeyword("WHERE")) {
        if (query.where != nullptr) return Error("duplicate WHERE clause");
        query.where_loc = token.loc;
        ++pos_;
        CAESAR_ASSIGN_OR_RETURN(query.where, ParseClauseExpr());
        any_clause = true;
      } else if (token.IsKeyword("CONTEXT")) {
        if (!query.contexts.empty()) {
          return Error("duplicate CONTEXT clause");
        }
        ++pos_;
        CAESAR_ASSIGN_OR_RETURN(query.contexts,
                                ParseIdentifierList("context name"));
        any_clause = true;
      } else {
        return Error("unexpected token in query");
      }
    }
    if (!any_clause) return Error("empty query");
    return query;
  }

  // DERIVE EventType(expr (AS name)?, ...)
  Result<DeriveSpec> ParseDerive() {
    DeriveSpec derive;
    CAESAR_ASSIGN_OR_RETURN(derive.event_type,
                            ExpectIdentifier("derived event type"));
    if (Peek().kind != TokenKind::kLParen) {
      return Error("expected '(' after derived event type");
    }
    ++pos_;
    if (Peek().kind == TokenKind::kRParen) {
      ++pos_;
      return derive;
    }
    while (true) {
      CAESAR_ASSIGN_OR_RETURN(ExprPtr arg, ParseClauseExpr());
      std::string attr_name;
      if (Peek().IsKeyword("AS")) {
        ++pos_;
        CAESAR_ASSIGN_OR_RETURN(attr_name, ExpectIdentifier("attribute name"));
      }
      derive.args.push_back(std::move(arg));
      derive.attr_names.push_back(std::move(attr_name));
      if (Peek().kind == TokenKind::kComma) {
        ++pos_;
        continue;
      }
      if (Peek().kind == TokenKind::kRParen) {
        ++pos_;
        break;
      }
      return Error("expected ',' or ')' in DERIVE argument list");
    }
    return derive;
  }

  // Patt := NOT? EventType Var? | SEQ( (Patt ,?)+ ) | Aggregate,
  // optionally followed by WITHIN <ticks>. Nested SEQs flatten.
  //
  // Aggregate := AGGREGATE EventType Var? WINDOW <ticks>
  //              (GROUP BY attr (, attr)*)?
  //              COMPUTE func(attr?) AS name (, func(attr?) AS name)*
  //              (HAVING expr)?
  Result<PatternSpec> ParsePattern() {
    PatternSpec pattern;
    if (Peek().IsKeyword("AGGREGATE")) {
      ++pos_;
      return ParseAggregate();
    }
    CAESAR_RETURN_IF_ERROR(ParsePatternInto(&pattern));
    if (Peek().IsKeyword("WITHIN")) {
      ++pos_;
      if (Peek().kind != TokenKind::kIntLiteral) {
        return Error("expected integer after WITHIN");
      }
      pattern.within = Peek().int_value;
      ++pos_;
    }
    return pattern;
  }

  Result<PatternSpec> ParseAggregate() {
    PatternSpec pattern;
    pattern.kind = PatternSpec::Kind::kAggregate;
    PatternItem item;
    CAESAR_ASSIGN_OR_RETURN(item.event_type, ExpectIdentifier("event type"));
    if (Peek().kind == TokenKind::kIdentifier && !IsClauseKeyword(Peek()) &&
        !Peek().IsKeyword("WINDOW")) {
      item.variable = Peek().text;
      ++pos_;
    }
    pattern.items.push_back(std::move(item));
    if (!Peek().IsKeyword("WINDOW")) {
      return Error("expected WINDOW in aggregate pattern");
    }
    ++pos_;
    if (Peek().kind != TokenKind::kIntLiteral) {
      return Error("expected integer window length");
    }
    pattern.window_length = Peek().int_value;
    ++pos_;
    if (Peek().IsKeyword("GROUP")) {
      ++pos_;
      if (!Peek().IsKeyword("BY")) return Error("expected BY after GROUP");
      ++pos_;
      CAESAR_ASSIGN_OR_RETURN(pattern.group_by,
                              ParseIdentifierList("group-by attribute"));
    }
    if (!Peek().IsKeyword("COMPUTE")) {
      return Error("expected COMPUTE in aggregate pattern");
    }
    ++pos_;
    while (true) {
      AggregateSpec spec;
      CAESAR_ASSIGN_OR_RETURN(std::string func,
                              ExpectIdentifier("aggregate function"));
      if (func == "count") {
        spec.func = AggregateFunc::kCount;
      } else if (func == "sum") {
        spec.func = AggregateFunc::kSum;
      } else if (func == "avg") {
        spec.func = AggregateFunc::kAvg;
      } else if (func == "min") {
        spec.func = AggregateFunc::kMin;
      } else if (func == "max") {
        spec.func = AggregateFunc::kMax;
      } else {
        return Error("unknown aggregate function " + func);
      }
      if (Peek().kind != TokenKind::kLParen) {
        return Error("expected '(' after aggregate function");
      }
      ++pos_;
      if (Peek().kind == TokenKind::kIdentifier) {
        spec.attribute = Peek().text;
        ++pos_;
      }
      if (Peek().kind != TokenKind::kRParen) {
        return Error("expected ')' in aggregate");
      }
      ++pos_;
      if (!Peek().IsKeyword("AS")) {
        return Error("expected AS <name> after aggregate");
      }
      ++pos_;
      CAESAR_ASSIGN_OR_RETURN(spec.name, ExpectIdentifier("aggregate name"));
      pattern.aggregates.push_back(std::move(spec));
      if (Peek().kind == TokenKind::kComma) {
        ++pos_;
        continue;
      }
      break;
    }
    if (Peek().IsKeyword("HAVING")) {
      ++pos_;
      CAESAR_ASSIGN_OR_RETURN(pattern.having, ParseClauseExpr());
    }
    return pattern;
  }

  // CONTEXTS a, b, c DEFAULT a
  Status ParseContextsDecl(CaesarModel* model) {
    while (true) {
      SourceLoc loc = Peek().loc;
      CAESAR_ASSIGN_OR_RETURN(std::string name,
                              ExpectIdentifier("context name"));
      CAESAR_RETURN_IF_ERROR(model->AddContext(name, loc));
      if (Peek().kind != TokenKind::kComma) break;
      ++pos_;
    }
    if (Peek().IsKeyword("DEFAULT")) {
      ++pos_;
      CAESAR_ASSIGN_OR_RETURN(std::string default_name,
                              ExpectIdentifier("default context"));
      CAESAR_RETURN_IF_ERROR(model->SetDefaultContext(default_name));
    }
    return Status::Ok();
  }

  // PARTITION BY a, b, c
  Status ParsePartitionDecl(CaesarModel* model) {
    if (!Peek().IsKeyword("BY")) {
      return Error("expected BY after PARTITION");
    }
    ++pos_;
    CAESAR_ASSIGN_OR_RETURN(std::vector<std::string> attrs,
                            ParseIdentifierList("attribute name"));
    model->SetPartitionBy(std::move(attrs));
    return Status::Ok();
  }

  // TYPE Name(attr int, attr double, attr string); registers the schema so
  // model files are self-contained. Redeclaring an identical schema is a
  // no-op; a conflicting one is an error.
  Status ParseTypeDecl(TypeRegistry* registry) {
    CAESAR_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("type name"));
    if (Peek().kind != TokenKind::kLParen) {
      return Error("expected '(' after type name");
    }
    ++pos_;
    std::vector<Attribute> attributes;
    if (Peek().kind == TokenKind::kRParen) {
      ++pos_;
    } else {
      while (true) {
        Attribute attr;
        CAESAR_ASSIGN_OR_RETURN(attr.name,
                                ExpectIdentifier("attribute name"));
        SourceLoc type_loc = Peek().loc;
        CAESAR_ASSIGN_OR_RETURN(std::string type_name,
                                ExpectIdentifier("attribute type"));
        if (type_name == "int") {
          attr.type = ValueType::kInt;
        } else if (type_name == "double") {
          attr.type = ValueType::kDouble;
        } else if (type_name == "string") {
          attr.type = ValueType::kString;
        } else {
          return Status::ParseError(
              source_ + ":" + type_loc.ToString() +
              ": unknown attribute type '" + type_name +
              "' (expected int, double, or string)");
        }
        attributes.push_back(std::move(attr));
        if (Peek().kind == TokenKind::kComma) {
          ++pos_;
          continue;
        }
        if (Peek().kind == TokenKind::kRParen) {
          ++pos_;
          break;
        }
        return Error("expected ',' or ')' in TYPE attribute list");
      }
    }
    TypeId existing = registry->Lookup(name);
    if (existing != kInvalidTypeId) {
      const Schema& schema = registry->type(existing).schema;
      bool same = schema.num_attributes() == static_cast<int>(attributes.size());
      for (size_t i = 0; same && i < attributes.size(); ++i) {
        const Attribute& have = schema.attribute(static_cast<int>(i));
        same = have.name == attributes[i].name &&
               have.type == attributes[i].type;
      }
      if (!same) {
        return Error("TYPE " + name +
                     " conflicts with an existing schema of the same name");
      }
      return Status::Ok();
    }
    return registry->Register(name, std::move(attributes)).status();
  }

  const Token& Peek() const { return tokens_[pos_]; }

  void SkipSemicolons() {
    while (Peek().kind == TokenKind::kSemicolon) ++pos_;
  }

  // Parses the whole model body (declarations and queries) into `model`.
  Status ParseModelBody(CaesarModel* model) {
    SkipSemicolons();
    while (Peek().kind != TokenKind::kEnd) {
      if (Peek().IsKeyword("CONTEXTS")) {
        ++pos_;
        CAESAR_RETURN_IF_ERROR(ParseContextsDecl(model));
      } else if (Peek().IsKeyword("TYPE")) {
        ++pos_;
        CAESAR_RETURN_IF_ERROR(ParseTypeDecl(model->registry()));
      } else if (Peek().IsKeyword("PARTITION")) {
        ++pos_;
        CAESAR_RETURN_IF_ERROR(ParsePartitionDecl(model));
      } else {
        CAESAR_ASSIGN_OR_RETURN(Query query, ParseQueryBody());
        CAESAR_RETURN_IF_ERROR(model->AddQuery(std::move(query)).status());
      }
      if (Peek().kind != TokenKind::kSemicolon &&
          Peek().kind != TokenKind::kEnd) {
        return Error("expected ';'");
      }
      SkipSemicolons();
    }
    return Status::Ok();
  }

 private:
  Status ParsePatternInto(PatternSpec* pattern) {
    if (Peek().IsKeyword("SEQ")) {
      ++pos_;
      pattern->kind = PatternSpec::Kind::kSeq;
      if (Peek().kind != TokenKind::kLParen) {
        return Error("expected '(' after SEQ");
      }
      ++pos_;
      while (true) {
        CAESAR_RETURN_IF_ERROR(ParsePatternInto(pattern));
        if (Peek().kind == TokenKind::kComma) {
          ++pos_;
          continue;
        }
        if (Peek().kind == TokenKind::kRParen) {
          ++pos_;
          break;
        }
        return Error("expected ',' or ')' in SEQ");
      }
      return Status::Ok();
    }
    PatternItem item;
    if (Peek().IsKeyword("NOT")) {
      item.negated = true;
      ++pos_;
    }
    if (Peek().IsKeyword("SEQ")) {
      return Error("NOT SEQ(...) is not supported");
    }
    CAESAR_ASSIGN_OR_RETURN(item.event_type, ExpectIdentifier("event type"));
    // Optional variable: an identifier that is not a clause keyword.
    if (Peek().kind == TokenKind::kIdentifier && !IsClauseKeyword(Peek()) &&
        !Peek().IsKeyword("AS") && !Peek().IsKeyword("WITHIN")) {
      item.variable = Peek().text;
      ++pos_;
    }
    pattern->items.push_back(std::move(item));
    return Status::Ok();
  }

  Result<std::string> ExpectIdentifier(const std::string& what) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected " + what);
    }
    std::string text = Peek().text;
    ++pos_;
    return text;
  }

  // Expression sub-parse with the source name prepended to errors (the
  // expression parser itself only knows line:col).
  Result<ExprPtr> ParseClauseExpr() {
    Result<ExprPtr> result = ParseExprAt(tokens_, &pos_);
    if (!result.ok()) {
      return Status::ParseError(source_ + ": " + result.status().message());
    }
    return result;
  }

  Result<std::vector<std::string>> ParseIdentifierList(
      const std::string& what) {
    std::vector<std::string> names;
    while (true) {
      CAESAR_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier(what));
      names.push_back(std::move(name));
      if (Peek().kind == TokenKind::kComma) {
        ++pos_;
        continue;
      }
      break;
    }
    return names;
  }

  // "<source>:<line>:<col>: message" — the CSV reader's prefix convention.
  Status Error(const std::string& message) const {
    return Status::ParseError(source_ + ":" + Peek().loc.ToString() + ": " +
                              message);
  }

  const std::vector<Token>& tokens_;
  size_t pos_;
  std::string source_;
};

}  // namespace

Result<CaesarModel> ParseModel(std::string_view text, TypeRegistry* registry) {
  return ParseModel(text, registry, ParseModelOptions());
}

Result<CaesarModel> ParseModel(std::string_view text, TypeRegistry* registry,
                               const ParseModelOptions& options) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) {
    return Status::ParseError(options.source_name + ": " +
                              tokens.status().message());
  }
  CaesarModel model(registry);
  ModelParser parser(tokens.value(), 0, options.source_name);
  CAESAR_RETURN_IF_ERROR(parser.ParseModelBody(&model));
  Status structure = model.Normalize();
  if (!options.strict) return model;  // the analyzer reports every defect
  // A strict parse rejects the first structural defect, or else the first
  // context-graph error (C001/C002), as a coded diagnostic with the source
  // name stamped in.
  std::vector<Diagnostic> defects = structure.ok()
                                        ? AnalyzeContextGraph(model)
                                        : model.StructuralDiagnostics();
  for (Diagnostic& diag : defects) {
    if (diag.severity != DiagSeverity::kError) continue;
    diag.source = options.source_name;
    return Status::ParseError(FormatDiagnostic(diag));
  }
  return model;
}

Result<Query> ParseQuery(std::string_view text) {
  CAESAR_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  ModelParser parser(tokens, 0, "<query>");
  CAESAR_ASSIGN_OR_RETURN(Query query, parser.ParseQueryBody());
  if (parser.Peek().kind != TokenKind::kEnd &&
      parser.Peek().kind != TokenKind::kSemicolon) {
    return Status::ParseError("trailing input after query");
  }
  return query;
}

}  // namespace caesar
