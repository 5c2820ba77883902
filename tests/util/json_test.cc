#include "util/json.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace netd::util {
namespace {

std::string reparse(const std::string& text) {
  std::string error;
  const auto j = Json::parse(text, &error);
  EXPECT_TRUE(j.has_value()) << text << ": " << error;
  return j ? j->dump() : "";
}

TEST(Json, RoundTripsEveryValueKind) {
  const std::string doc =
      R"({"null":null,"t":true,"f":false,"i":-42,"d":0.125,"e":1e-3,)"
      R"("s":"a\"b\\c\nd","u":"caf)" "\xc3\xa9" R"(","arr":[1,[2,[]],{}],)"
      R"("obj":{"nested":{"x":3}}})";
  EXPECT_EQ(reparse(doc), doc);
}

TEST(Json, NumberLexemesSurviveReserialization) {
  // A double-formatting round trip would rewrite all of these; the lexeme
  // must come back verbatim.
  for (const std::string n :
       {"0", "-0", "1e9", "1E9", "1.50", "0.1000", "123456789012345678901",
        "-2.225073858507201e-308"}) {
    EXPECT_EQ(reparse("[" + n + "]"), "[" + n + "]");
  }
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  EXPECT_EQ(reparse(R"({"z":1,"a":2,"m":3})"), R"({"z":1,"a":2,"m":3})");
  Json j = Json::object();
  j.set("z", Json::integer(1));
  j.set("a", Json::integer(2));
  j.set("z", Json::integer(9));  // update in place, keep position
  EXPECT_EQ(j.dump(), R"({"z":9,"a":2})");
}

TEST(Json, WriterMatchesCoreJsonExportNumberStyle) {
  EXPECT_EQ(Json::number(3.0).dump(), "3");  // integral doubles as integers
  EXPECT_EQ(Json::number(0.5).dump(), "0.5");
  EXPECT_EQ(Json::integer(-7).dump(), "-7");
  EXPECT_EQ(Json::uinteger(18446744073709551615ull).dump(),
            "18446744073709551615");
  // The rest print as std::ostream does, at six significant digits; an
  // integral value never takes ostream's exponent form.
  EXPECT_EQ(Json::number(1.0 / 3.0).dump(), "0.333333");
  EXPECT_EQ(Json::number(-2.5).dump(), "-2.5");
  EXPECT_EQ(Json::number(1234567.5).dump(), "1.23457e+06");
  EXPECT_EQ(Json::number(1e6).dump(), "1000000");
  EXPECT_EQ(Json::number(1e20).dump(), "1e+20");  // past long long's range
}

TEST(Json, EscapesControlCharacters) {
  std::string s = "a";
  s += '\x01';
  s += "b\tc";
  const std::string out = Json::string(s).dump();
  EXPECT_EQ(out, "\"a\\u0001b\\tc\"");
  EXPECT_EQ(reparse(out), out);
}

TEST(JsonEscape, ControlAndSpecialCharacters) {
  const auto quoted = [](std::string_view s) {
    std::string out = "<";
    append_json_string(out, s);
    return out;
  };
  EXPECT_EQ(quoted("a\"b"), R"(<"a\"b")");
  EXPECT_EQ(quoted("a\\b"), R"(<"a\\b")");
  EXPECT_EQ(quoted("a\nb\rc\td"), R"(<"a\nb\rc\td")");
  EXPECT_EQ(quoted(std::string("a\x01") + "b\x1f"), R"(<"a\u0001b\u001f")");
  // DEL and UTF-8 bytes pass through unescaped.
  EXPECT_EQ(quoted("\x7f" "caf\xc3\xa9"), "<\"\x7f" "caf\xc3\xa9\"");
  EXPECT_EQ(quoted("plain"), R"(<"plain")");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const auto j = Json::parse(R"(["\u00e9","\ud83d\ude00"])");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ((*j)[0].as_string(), "\xc3\xa9");           // é
  EXPECT_EQ((*j)[1].as_string(), "\xf0\x9f\x98\x80");   // surrogate pair
}

TEST(Json, RawSplicesVerbatim) {
  Json j = Json::object();
  j.set("d", Json::raw(R"({"links":["a-b"],"score":1.5})"));
  EXPECT_EQ(j.dump(), R"({"d":{"links":["a-b"],"score":1.5}})");
}

TEST(Json, RejectsMalformedInput) {
  for (const std::string bad : {
           "",                 // empty
           "{",                // unterminated object
           "[1,]",             // trailing comma
           "{\"a\":}",         // missing value
           "{\"a\" 1}",        // missing colon
           "nul",              // bad literal
           "01",               // leading zero
           "1.",               // dangling fraction
           "1e",               // dangling exponent
           "+1",               // explicit plus
           "\"ab",             // unterminated string
           "\"\\x\"",          // unknown escape
           "\"\\ud83d\"",      // lone high surrogate
           "\"\\udc00\"",      // lone low surrogate
           "\"\\u12g4\"",      // bad hex digit
           "{\"a\":1,\"a\":2}",// duplicate key
           "[1] x",            // trailing garbage
           "\x01",             // control byte
       }) {
    std::string error;
    EXPECT_FALSE(Json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Json, ErrorsNameTheByteOffset) {
  std::string error;
  EXPECT_FALSE(Json::parse("[1,2,oops]", &error).has_value());
  EXPECT_NE(error.find("5"), std::string::npos) << error;
}

TEST(Json, BoundsRecursionDepth) {
  std::string deep(500, '[');
  deep += std::string(500, ']');
  std::string error;
  EXPECT_FALSE(Json::parse(deep, &error).has_value());
  EXPECT_NE(error.find("deep"), std::string::npos) << error;
  // A modestly nested document still parses.
  std::string ok(20, '[');
  ok += std::string(20, ']');
  EXPECT_TRUE(Json::parse(ok).has_value());
}

TEST(Json, RecursionDepthBoundaryIsExact) {
  // Exactly kMaxParseDepth container levels parse; one more is rejected
  // with the structured error (not a crash), and the limit is the public
  // constant — not a magic number buried in the parser.
  const auto nested = [](std::size_t levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  EXPECT_TRUE(Json::parse(nested(Json::kMaxParseDepth)).has_value());
  std::string error;
  EXPECT_FALSE(
      Json::parse(nested(Json::kMaxParseDepth + 1), &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;

  // Objects count against the same budget as arrays.
  std::string obj;
  for (std::size_t i = 0; i < Json::kMaxParseDepth + 1; ++i) obj += "{\"k\":";
  obj += "0";
  for (std::size_t i = 0; i < Json::kMaxParseDepth + 1; ++i) obj += "}";
  error.clear();
  EXPECT_FALSE(Json::parse(obj, &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(Json, FindAndAccessors) {
  const auto j = Json::parse(R"({"n":3,"s":"x","b":true,"a":[1,2]})");
  ASSERT_TRUE(j.has_value());
  ASSERT_NE(j->find("n"), nullptr);
  EXPECT_EQ(j->find("n")->as_int(), 3);
  EXPECT_DOUBLE_EQ(j->find("n")->as_double(), 3.0);
  EXPECT_EQ(j->find("s")->as_string(), "x");
  EXPECT_TRUE(j->find("b")->as_bool());
  EXPECT_EQ(j->find("a")->size(), 2u);
  EXPECT_EQ(j->find("absent"), nullptr);
}

}  // namespace
}  // namespace netd::util
