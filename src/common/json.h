// JSON string escaping shared by every JSON writer: the wire codec, the
// statistics and trace exporters, the lint report, and the bench metrics
// files.

#ifndef CAESAR_COMMON_JSON_H_
#define CAESAR_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace caesar {

// Escapes `s` as an RFC 8259 JSON string literal including the surrounding
// quotes: `"` and `\` are backslash-escaped, \b \f \n \r \t use their short
// escapes, and other control characters become \u00XX. Other bytes
// (UTF-8 included) pass through.
std::string JsonQuote(std::string_view s);

}  // namespace caesar

#endif  // CAESAR_COMMON_JSON_H_
