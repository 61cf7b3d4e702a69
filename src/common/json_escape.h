// The one JSON string escaper every exporter shares (snapshot, Perfetto
// trace, admin bodies, joined traces, outliers, flight records, bench
// tables): `"` and `\` are backslash-escaped, `\n` and `\t` get their short
// forms, any other byte below 0x20 becomes `\u00XX`, and everything else
// passes through unchanged. The result is the body of a JSON string, without
// the surrounding quotes.
#ifndef PSP_SRC_COMMON_JSON_ESCAPE_H_
#define PSP_SRC_COMMON_JSON_ESCAPE_H_

#include <string>
#include <string_view>

namespace psp {

inline std::string JsonEscape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace psp

#endif  // PSP_SRC_COMMON_JSON_ESCAPE_H_
