// The shared JSON string escaper (src/common/json_escape.h).
#include "src/common/json_escape.h"

#include <gtest/gtest.h>

#include <string>

namespace psp {
namespace {

TEST(JsonEscape, PrintableAsciiPassesThrough) {
  std::string printable;
  for (char c = 0x20; c < 0x7f; ++c) {
    if (c != '"' && c != '\\') {
      printable += c;
    }
  }
  EXPECT_EQ(JsonEscape(printable), printable);
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonEscape, QuotesBackslashesAndShortForms) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
}

TEST(JsonEscape, OtherControlBytesBecomeUnicodeEscapes) {
  EXPECT_EQ(JsonEscape(std::string("\0", 1)), "\\u0000");
  EXPECT_EQ(JsonEscape("\r"), "\\u000d");
  EXPECT_EQ(JsonEscape("\x1f"), "\\u001f");
  EXPECT_EQ(JsonEscape("\x7f"), "\x7f");
  // Bytes at or above 0x80 (UTF-8) pass through untouched.
  EXPECT_EQ(JsonEscape("\xc3\xa9"), "\xc3\xa9");
}

}  // namespace
}  // namespace psp
