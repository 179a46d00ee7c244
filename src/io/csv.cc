#include "io/csv.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "analysis/diagnostics.h"

namespace caesar {

namespace {

// Escapes a string cell: quotes when it contains a comma, quote or newline.
std::string EscapeCell(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string escaped = "\"";
  for (char c : cell) {
    if (c == '"') escaped += '"';
    escaped += c;
  }
  escaped += "\"";
  return escaped;
}

// Splits one CSV line honoring quoted cells.
Result<std::vector<std::string>> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else {
      cell += c;
    }
  }
  if (quoted) return Status::ParseError("unterminated quote in CSV line");
  cells.push_back(std::move(cell));
  return cells;
}

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

Result<ValueType> ParseValueType(const std::string& name) {
  if (name == "int") return ValueType::kInt;
  if (name == "double") return ValueType::kDouble;
  if (name == "string") return ValueType::kString;
  return Status::ParseError("unknown attribute type: " + name);
}

// "<stream>:<line>: error[I406]: <message>" — every reader error carries
// its location plus the malformed-CSV diagnostic code (the same I4xx
// vocabulary the ingest quarantine uses; analysis/diagnostics.h).
Status AtLine(const std::string& stream_name, int64_t line, StatusCode code,
              const std::string& message) {
  return Status(code, stream_name + ":" + std::to_string(line) +
                          ": error[" +
                          DiagCodeName(DiagCode::kI406MalformedCsv) + "]: " +
                          message);
}

// Non-throwing full-string number parses (library code never throws; the
// std::sto* family does on malformed cells).
bool ParseInt64Cell(const std::string& cell, int64_t* out) {
  if (cell.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(cell.c_str(), &end, 10);
  if (errno == ERANGE || end != cell.c_str() + cell.size()) return false;
  *out = static_cast<int64_t>(value);
  return true;
}

bool ParseDoubleCell(const std::string& cell, double* out) {
  if (cell.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(cell.c_str(), &end);
  if (errno == ERANGE || end != cell.c_str() + cell.size()) return false;
  *out = value;
  return true;
}

}  // namespace

Result<std::string> WriteEventsCsv(const EventBatch& events,
                                   const TypeRegistry& registry) {
  if (events.empty()) {
    return Status::InvalidArgument("cannot serialize an empty batch");
  }
  TypeId type_id = events.front()->type_id();
  const EventType& type = registry.type(type_id);
  std::ostringstream os;
  os << "# type: " << type.name << "\n# attrs: ";
  for (int i = 0; i < type.schema.num_attributes(); ++i) {
    if (i > 0) os << ", ";
    os << type.schema.attribute(i).name << ":"
       << ValueTypeName(type.schema.attribute(i).type);
  }
  os << "\ntime";
  for (int i = 0; i < type.schema.num_attributes(); ++i) {
    os << "," << type.schema.attribute(i).name;
  }
  os << "\n";
  for (const EventPtr& event : events) {
    if (event->type_id() != type_id) {
      return Status::InvalidArgument(
          "mixed event types in one CSV batch (split by type first)");
    }
    os << event->time();
    for (int i = 0; i < event->num_values(); ++i) {
      os << ",";
      const Value& value = event->value(i);
      switch (value.type()) {
        case ValueType::kNull:
          break;
        case ValueType::kInt:
          os << value.AsInt();
          break;
        case ValueType::kDouble: {
          char buffer[64];
          std::snprintf(buffer, sizeof(buffer), "%.17g", value.AsDouble());
          os << buffer;
          break;
        }
        case ValueType::kString:
          os << EscapeCell(value.AsString());
          break;
      }
    }
    os << "\n";
  }
  return os.str();
}

CsvParseResult ReadEventsCsvTolerant(const std::string& text,
                                     TypeRegistry* registry,
                                     const std::string& stream_name) {
  CsvParseResult result;
  std::istringstream is(text);
  std::string line;
  auto fail = [&](int64_t line_no, StatusCode code,
                  const std::string& message) -> CsvParseResult& {
    result.status = AtLine(stream_name, line_no, code, message);
    result.error_line = line_no;
    result.rows_parsed = static_cast<int64_t>(result.events.size());
    return result;
  };

  // Header line 1: "# type: <name>".
  if (!std::getline(is, line) || line.rfind("# type: ", 0) != 0) {
    return fail(1, StatusCode::kParseError, "missing '# type:' header");
  }
  std::string type_name = Trim(line.substr(8));

  // Header line 2: "# attrs: name:type, ...".
  if (!std::getline(is, line) || line.rfind("# attrs: ", 0) != 0) {
    return fail(2, StatusCode::kParseError, "missing '# attrs:' header");
  }
  std::vector<Attribute> attributes;
  {
    std::istringstream attrs(line.substr(9));
    std::string item;
    while (std::getline(attrs, item, ',')) {
      item = Trim(item);
      size_t colon = item.rfind(':');
      if (colon == std::string::npos) {
        return fail(2, StatusCode::kParseError,
                    "malformed attribute spec: " + item);
      }
      Result<ValueType> type = ParseValueType(Trim(item.substr(colon + 1)));
      if (!type.ok()) {
        return fail(2, StatusCode::kParseError, type.status().message());
      }
      attributes.push_back({Trim(item.substr(0, colon)), type.value()});
    }
  }
  TypeId type_id = registry->RegisterOrGet(type_name, attributes);
  const Schema& schema = registry->type(type_id).schema;
  if (schema.num_attributes() != static_cast<int>(attributes.size())) {
    return fail(2, StatusCode::kFailedPrecondition,
                "type " + type_name +
                    " already registered with a different schema");
  }

  // Header line 3: column names (ignored beyond a sanity check).
  if (!std::getline(is, line) || line.rfind("time", 0) != 0) {
    return fail(3, StatusCode::kParseError, "missing column header");
  }

  int64_t line_no = 3;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    int64_t row_line = line_no;  // first physical line of this row
    // A quoted cell may span physical lines: keep appending while the
    // number of quote characters is odd (escaped quotes contribute two).
    bool truncated = false;
    while (std::count(line.begin(), line.end(), '"') % 2 == 1) {
      std::string more;
      if (!std::getline(is, more)) {
        truncated = true;
        break;
      }
      ++line_no;
      line += "\n" + more;
    }
    Result<std::vector<std::string>> split = SplitCsvLine(line);
    if (!split.ok()) {
      std::string message = split.status().message() + " (row starts at line " +
                            std::to_string(row_line) + ")";
      if (truncated) message += "; input truncated mid-quote?";
      return fail(line_no, StatusCode::kParseError, message);
    }
    const std::vector<std::string>& cells = split.value();
    if (cells.size() != attributes.size() + 1) {
      return fail(row_line, StatusCode::kParseError,
                  "expected " + std::to_string(attributes.size() + 1) +
                      " cells, got " + std::to_string(cells.size()));
    }
    Timestamp time = 0;
    std::vector<Value> values;
    values.reserve(attributes.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      const std::string& cell = cells[i];
      if (i == 0) {
        int64_t parsed = 0;
        if (!ParseInt64Cell(cell, &parsed)) {
          return fail(row_line, StatusCode::kParseError,
                      "invalid time stamp '" + cell + "'");
        }
        time = parsed;
        continue;
      }
      const Attribute& attribute = attributes[i - 1];
      switch (attribute.type) {
        case ValueType::kInt: {
          if (cell.empty()) {
            values.push_back(Value());
            break;
          }
          int64_t parsed = 0;
          if (!ParseInt64Cell(cell, &parsed)) {
            return fail(row_line, StatusCode::kParseError,
                        "invalid int value '" + cell + "' for attribute '" +
                            attribute.name + "'");
          }
          values.push_back(Value(parsed));
          break;
        }
        case ValueType::kDouble: {
          if (cell.empty()) {
            values.push_back(Value());
            break;
          }
          double parsed = 0.0;
          if (!ParseDoubleCell(cell, &parsed)) {
            return fail(row_line, StatusCode::kParseError,
                        "invalid double value '" + cell + "' for attribute '" +
                            attribute.name + "'");
          }
          values.push_back(Value(parsed));
          break;
        }
        default:
          values.emplace_back(cell);
          break;
      }
    }
    result.events.push_back(MakeEvent(type_id, time, std::move(values)));
  }
  result.rows_parsed = static_cast<int64_t>(result.events.size());
  return result;
}

Result<EventBatch> ReadEventsCsv(const std::string& text,
                                 TypeRegistry* registry,
                                 const std::string& stream_name) {
  CsvParseResult result = ReadEventsCsvTolerant(text, registry, stream_name);
  if (!result.status.ok()) return result.status;
  return std::move(result.events);
}

Status WriteEventsCsvFile(const std::string& path, const EventBatch& events,
                          const TypeRegistry& registry) {
  CAESAR_ASSIGN_OR_RETURN(std::string text, WriteEventsCsv(events, registry));
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot open for writing: " + path);
  out << text;
  return out.good() ? Status::Ok()
                    : Status::Internal("write failed: " + path);
}

Result<EventBatch> ReadEventsCsvFile(const std::string& path,
                                     TypeRegistry* registry) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadEventsCsv(buffer.str(), registry, path);
}

}  // namespace caesar
