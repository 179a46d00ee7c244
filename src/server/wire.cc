#include "server/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace caesar {

namespace {

// Parser depth cap: a fuzzer sending "[[[[..." must not exhaust the stack.
constexpr int kMaxJsonDepth = 64;

struct JsonParser {
  std::string_view text;
  size_t pos = 0;

  Status Error(const std::string& message) const {
    return Status::ParseError("json: byte " + std::to_string(pos) + ": " +
                              message);
  }

  void SkipSpace() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool Consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos >= text.size()) return Error("unexpected end of input");
    char c = text[pos];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        CAESAR_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (text.substr(pos, 4) == "true") {
          pos += 4;
          *out = JsonValue::Bool(true);
          return Status::Ok();
        }
        return Error("bad literal");
      case 'f':
        if (text.substr(pos, 5) == "false") {
          pos += 5;
          *out = JsonValue::Bool(false);
          return Status::Ok();
        }
        return Error("bad literal");
      case 'n':
        if (text.substr(pos, 4) == "null") {
          pos += 4;
          *out = JsonValue::Null();
          return Status::Ok();
        }
        return Error("bad literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return Error(std::string("unexpected character '") + c + "'");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos;  // '{'
    *out = JsonValue::Object();
    SkipSpace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipSpace();
      if (pos >= text.size() || text[pos] != '"') {
        return Error("expected object key");
      }
      std::string key;
      CAESAR_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      CAESAR_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Set(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos;  // '['
    *out = JsonValue::Array();
    SkipSpace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue value;
      CAESAR_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Append(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos;  // '"'
    out->clear();
    while (true) {
      if (pos >= text.size()) return Error("unterminated string");
      unsigned char c = static_cast<unsigned char>(text[pos]);
      if (c == '"') {
        ++pos;
        return Status::Ok();
      }
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) return Error("unterminated escape");
        char e = text[pos++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            uint32_t cp = 0;
            CAESAR_RETURN_IF_ERROR(ParseHex4(&cp));
            // Surrogate pair?
            if (cp >= 0xD800 && cp <= 0xDBFF && pos + 1 < text.size() &&
                text[pos] == '\\' && text[pos + 1] == 'u') {
              pos += 2;
              uint32_t lo = 0;
              CAESAR_RETURN_IF_ERROR(ParseHex4(&lo));
              if (lo >= 0xDC00 && lo <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              } else {
                return Error("invalid low surrogate");
              }
            }
            if (cp >= 0xD800 && cp <= 0xDFFF) {
              return Error("lone surrogate");
            }
            AppendUtf8(cp, out);
            break;
          }
          default:
            return Error("bad escape");
        }
        continue;
      }
      if (c < 0x20) return Error("raw control character in string");
      out->push_back(static_cast<char>(c));
      ++pos;
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos + 4 > text.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text[pos++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("bad hex digit in \\u escape");
      }
    }
    *out = v;
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos;
    if (Consume('-')) {
    }
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    bool is_double = false;
    if (pos < text.size() && text[pos] == '.') {
      is_double = true;
      ++pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      is_double = true;
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    std::string token(text.substr(start, pos - start));
    if (token.empty() || token == "-") return Error("bad number");
    errno = 0;
    if (!is_double) {
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno != ERANGE && end == token.c_str() + token.size()) {
        *out = JsonValue::Int(static_cast<int64_t>(v));
        return Status::Ok();
      }
      // Out-of-range integers degrade to double below.
    }
    errno = 0;
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("bad number");
    *out = JsonValue::Double(d);
    return Status::Ok();
  }
};

// Round-trip double formatting shared by Dump: %.17g, then trimmed to the
// shortest representation that still parses back equal.
void AppendDouble(double v, std::string* out) {
  char buffer[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, v);
    if (std::strtod(buffer, nullptr) == v) break;
  }
  out->append(buffer);
  // Ensure the token re-parses as a double, not an int (keeps kind stable
  // across a Dump/Parse round trip).
  if (out->find_first_of(".eE", out->size() - std::strlen(buffer)) ==
      std::string::npos) {
    out->append(".0");
  }
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      return;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Kind::kInt:
      out->append(std::to_string(int_));
      return;
    case Kind::kDouble:
      AppendDouble(double_, out);
      return;
    case Kind::kString:
      out->append(JsonQuote(string_));
      return;
    case Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : items_) {
        if (!first) out->push_back(',');
        first = false;
        item.DumpTo(out);
      }
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : entries_) {
        if (!first) out->push_back(',');
        first = false;
        out->append(JsonQuote(key));
        out->push_back(':');
        value.DumpTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

Result<JsonValue> ParseJson(std::string_view text) {
  JsonParser parser{text};
  JsonValue value;
  CAESAR_RETURN_IF_ERROR(parser.ParseValue(&value, 0));
  parser.SkipSpace();
  if (parser.pos != text.size()) {
    return parser.Error("trailing garbage after document");
  }
  return value;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

Status WriteAllToSocket(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send: ") + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status WriteBinaryFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxWirePayload) {
    return Status::InvalidArgument("frame payload exceeds kMaxWirePayload");
  }
  uint32_t len = static_cast<uint32_t>(payload.size());
  char header[5];
  header[0] = static_cast<char>(kFrameMagic);
  header[1] = static_cast<char>(len & 0xFF);
  header[2] = static_cast<char>((len >> 8) & 0xFF);
  header[3] = static_cast<char>((len >> 16) & 0xFF);
  header[4] = static_cast<char>((len >> 24) & 0xFF);
  CAESAR_RETURN_IF_ERROR(WriteAllToSocket(fd, std::string_view(header, 5)));
  return WriteAllToSocket(fd, payload);
}

Status WriteJsonLine(int fd, std::string_view payload) {
  std::string line(payload);
  line.push_back('\n');
  return WriteAllToSocket(fd, line);
}

Status MessageReader::Fill(size_t need, bool* eof) {
  *eof = false;
  // Compact consumed bytes once they dominate the buffer.
  if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  while (buffer_.size() - pos_ < need) {
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (buffer_.size() == pos_) {
        *eof = true;
        return Status::Ok();
      }
      return Status::DataLoss("connection closed mid-message");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  return Status::Ok();
}

Status MessageReader::Next(std::string* payload, bool* binary, bool* eof) {
  bool fill_eof = false;
  CAESAR_RETURN_IF_ERROR(Fill(1, &fill_eof));
  if (fill_eof) {
    *eof = true;
    return Status::Ok();
  }
  *eof = false;
  unsigned char first = static_cast<unsigned char>(buffer_[pos_]);
  if (first == kFrameMagic) {
    *binary = true;
    CAESAR_RETURN_IF_ERROR(Fill(5, &fill_eof));
    if (fill_eof) return Status::DataLoss("connection closed mid-header");
    uint32_t len = static_cast<uint8_t>(buffer_[pos_ + 1]) |
                   (static_cast<uint32_t>(
                        static_cast<uint8_t>(buffer_[pos_ + 2]))
                    << 8) |
                   (static_cast<uint32_t>(
                        static_cast<uint8_t>(buffer_[pos_ + 3]))
                    << 16) |
                   (static_cast<uint32_t>(
                        static_cast<uint8_t>(buffer_[pos_ + 4]))
                    << 24);
    if (len > max_payload_) {
      return Status::OutOfRange("frame length " + std::to_string(len) +
                                " exceeds cap " +
                                std::to_string(max_payload_));
    }
    CAESAR_RETURN_IF_ERROR(Fill(5 + static_cast<size_t>(len), &fill_eof));
    if (fill_eof) return Status::DataLoss("connection closed mid-frame");
    payload->assign(buffer_, pos_ + 5, len);
    pos_ += 5 + static_cast<size_t>(len);
    return Status::Ok();
  }

  // Newline-JSON mode: everything up to the next '\n' is one message.
  *binary = false;
  size_t newline;
  while ((newline = buffer_.find('\n', pos_)) == std::string::npos) {
    if (buffer_.size() - pos_ > max_payload_) {
      return Status::OutOfRange("line exceeds payload cap");
    }
    size_t had = buffer_.size() - pos_;
    CAESAR_RETURN_IF_ERROR(Fill(had + 1, &fill_eof));
    if (fill_eof) return Status::DataLoss("connection closed mid-line");
  }
  payload->assign(buffer_, pos_, newline - pos_);
  // Tolerate CRLF debug clients.
  if (!payload->empty() && payload->back() == '\r') payload->pop_back();
  pos_ = newline + 1;
  return Status::Ok();
}

}  // namespace caesar
