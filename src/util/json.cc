#include "util/json.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace netd::util {

// ---------------------------------------------------------------------------
// The writer: the escaper and the number rules of every JSON writer.

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  // Runs of bytes that need no escape are appended whole.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

void append_json_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void append_json_int(std::string& out, long long v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void append_json_number(std::string& out, double v) {
  // Integral values print as integers for stable, readable output. The
  // range check keeps the cast defined for NaN, infinities and |v| >= 2^63.
  if (v >= -0x1p63 && v < 0x1p63 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    append_json_int(out, static_cast<long long>(v));
    return;
  }
  std::ostringstream ss;
  ss << v;
  out += ss.str();
}

// ---------------------------------------------------------------------------
// The document.

Json Json::null() { return Json(); }

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  std::string lexeme;
  append_json_number(lexeme, v);
  return number_from_lexeme(std::move(lexeme));
}

Json Json::integer(long long v) {
  return number_from_lexeme(std::to_string(v));
}

Json Json::uinteger(unsigned long long v) {
  return number_from_lexeme(std::to_string(v));
}

Json Json::number_from_lexeme(std::string lexeme) {
  Json j;
  j.type_ = Type::kNumber;
  j.str_ = std::move(lexeme);
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json Json::raw(std::string raw) {
  Json j;
  j.type_ = Type::kObject;  // callers splice objects; type is advisory
  j.raw_ = true;
  j.str_ = std::move(raw);
  return j;
}

double Json::as_double() const { return std::strtod(str_.c_str(), nullptr); }

long long Json::as_int() const {
  return std::strtoll(str_.c_str(), nullptr, 10);
}

std::optional<std::uint64_t> Json::as_uint(std::uint64_t max) const {
  if (type_ != Type::kNumber) return std::nullopt;
  return uint_from_lexeme(str_, max);
}

std::optional<std::uint64_t> Json::uint_from_lexeme(std::string_view lexeme,
                                                    std::uint64_t max) {
  // from_chars takes no sign for an unsigned type and stops at a '.',
  // 'e' or 'E', so anything but plain digits leaves bytes unconsumed.
  std::uint64_t v = 0;
  const char* end = lexeme.data() + lexeme.size();
  const auto [ptr, ec] = std::from_chars(lexeme.data(), end, v);
  if (ec != std::errc() || ptr != end || v > max) return std::nullopt;
  return v;
}

std::optional<int> Json::as_int32() const {
  if (type_ != Type::kNumber) return std::nullopt;
  return int32_from_lexeme(str_);
}

std::optional<int> Json::int32_from_lexeme(std::string_view lexeme) {
  // A signed from_chars takes one '-' and digits; it fails out of range
  // and stops at a fraction or exponent.
  int v = 0;
  const char* end = lexeme.data() + lexeme.size();
  const auto [ptr, ec] = std::from_chars(lexeme.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

Json& Json::push_back(Json v) {
  items_.push_back(std::move(v));
  return items_.back();
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::set(std::string key, Json value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return members_.back().second;
}

void Json::dump_to(std::string& out) const {
  if (raw_) {
    out += str_;
    return;
  }
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      out += str_;
      break;
    case Type::kString:
      append_json_string(out, str_);
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Json& v : items_) {
        if (!first) out += ',';
        first = false;
        v.dump_to(out);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out += ',';
        first = false;
        append_json_string(out, k);
        out += ':';
        v.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

// ---------------------------------------------------------------------------
// The grammar.

bool JsonReader::fail(std::string_view what) {
  if (error_ != nullptr && error_->empty()) {
    *error_ = "offset " + std::to_string(pos_) + ": ";
    *error_ += what;
  }
  return false;
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

bool JsonReader::finish() {
  skip_ws();
  return pos_ == text_.size() || fail("trailing characters after document");
}

bool JsonReader::begin_value(std::size_t depth, Kind* kind) {
  if (eof()) return fail("unexpected end of input");
  // `depth` is the number of enclosing containers; opening another
  // array/object past kMaxParseDepth is rejected, so containers nest at
  // most kMaxParseDepth levels. Scalars at the limit are fine — only
  // containers recurse.
  switch (peek()) {
    case 'n':
    case 't':
    case 'f':
      *kind = Kind::kLiteral;
      return true;
    case '"':
      *kind = Kind::kString;
      return true;
    case '[':
      *kind = Kind::kArray;
      break;
    case '{':
      *kind = Kind::kObject;
      break;
    default:
      *kind = Kind::kNumber;
      return true;
  }
  return depth < Json::kMaxParseDepth || fail("nesting too deep");
}

bool JsonReader::value(Json& out, std::size_t depth) {
  Kind kind;
  if (!begin_value(depth, &kind)) return false;
  switch (kind) {
    case Kind::kLiteral:
      if (peek() == 'n') return literal("null") && (out = Json::null(), true);
      if (peek() == 't') {
        return literal("true") && (out = Json::boolean(true), true);
      }
      return literal("false") && (out = Json::boolean(false), true);
    case Kind::kString:
      out = Json();
      out.type_ = Json::Type::kString;
      return string(out.str_);
    case Kind::kNumber: {
      std::string_view lexeme;
      if (!number(&lexeme)) return false;
      out = Json::number_from_lexeme(std::string(lexeme));
      return true;
    }
    case Kind::kArray:
      out = Json::array();
      if (!open_array()) return true;
      while (true) {
        if (!value(out.items_.emplace_back(), depth + 1)) return false;
        const Next next = next_element();
        if (next != Next::kMore) return next == Next::kEnd;
      }
    case Kind::kObject: {
      out = Json::object();
      if (!open_object()) return true;
      std::string scratch;
      while (true) {
        std::string_view k;
        if (!key(&k, scratch)) return false;
        if (out.find(k) != nullptr) return duplicate_key(k);
        auto& member = out.members_.emplace_back(std::string(k), Json());
        if (!colon() || !value(member.second, depth + 1)) return false;
        const Next next = next_member();
        if (next != Next::kMore) return next == Next::kEnd;
      }
    }
  }
  return false;
}

bool JsonReader::literal(std::string_view lit) {
  if (text_.substr(pos_, lit.size()) != lit) return fail("invalid literal");
  pos_ += lit.size();
  return true;
}

bool JsonReader::hex4(unsigned& out) {
  if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
  out = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    out <<= 4;
    if (c >= '0' && c <= '9') {
      out |= static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      out |= static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      out |= static_cast<unsigned>(c - 'A' + 10);
    } else {
      --pos_;
      return fail("bad hex digit in \\u escape");
    }
  }
  return true;
}

namespace {

void append_utf8(std::string& s, unsigned cp) {
  if (cp < 0x80) {
    s += static_cast<char>(cp);
  } else if (cp < 0x800) {
    s += static_cast<char>(0xC0 | (cp >> 6));
    s += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    s += static_cast<char>(0xE0 | (cp >> 12));
    s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    s += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    s += static_cast<char>(0xF0 | (cp >> 18));
    s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    s += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Bytes a string copies through unchanged: not the closing quote, not
/// an escape, not a control character.
bool plain_string_byte(char c) {
  return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
}

}  // namespace

bool JsonReader::string(std::string& out) {
  ++pos_;  // opening quote
  out.clear();
  while (true) {
    const std::size_t run = pos_;
    while (pos_ < text_.size() && plain_string_byte(text_[pos_])) ++pos_;
    out.append(text_, run, pos_ - run);
    if (eof()) return fail("unterminated string");
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return true;
    }
    if (c != '\\') return fail("unescaped control character in string");
    ++pos_;
    if (eof()) return fail("truncated escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned cp = 0;
        if (!hex4(cp)) return false;
        if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
          if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
              text_[pos_ + 1] != 'u') {
            return fail("lone high surrogate");
          }
          pos_ += 2;
          unsigned lo = 0;
          if (!hex4(lo)) return false;
          if (lo < 0xDC00 || lo > 0xDFFF) {
            return fail("invalid low surrogate");
          }
          cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return fail("lone low surrogate");
        }
        append_utf8(out, cp);
        break;
      }
      default:
        --pos_;
        return fail("unknown escape");
    }
  }
}

bool JsonReader::number(std::string_view* lexeme) {
  auto digit = [this] { return !eof() && peek() >= '0' && peek() <= '9'; };
  const std::size_t start = pos_;
  if (!eof() && peek() == '-') ++pos_;
  if (!digit()) {
    pos_ = start;
    return fail("invalid number");
  }
  if (peek() == '0') {
    ++pos_;
  } else {
    while (digit()) ++pos_;
  }
  if (!eof() && peek() == '.') {
    ++pos_;
    if (!digit()) return fail("digit required after decimal point");
    while (digit()) ++pos_;
  }
  if (!eof() && (peek() == 'e' || peek() == 'E')) {
    ++pos_;
    if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
    if (!digit()) return fail("digit required in exponent");
    while (digit()) ++pos_;
  }
  *lexeme = text_.substr(start, pos_ - start);
  return true;
}

bool JsonReader::open_array() {
  ++pos_;  // '['
  skip_ws();
  if (!eof() && peek() == ']') {
    ++pos_;
    return false;
  }
  return true;
}

JsonReader::Next JsonReader::next_element() {
  skip_ws();
  if (eof()) {
    fail("unterminated array");
    return Next::kError;
  }
  const char c = text_[pos_++];
  if (c == ']') return Next::kEnd;
  if (c != ',') {
    --pos_;
    fail("expected ',' or ']'");
    return Next::kError;
  }
  skip_ws();
  return Next::kMore;
}

bool JsonReader::open_object() {
  ++pos_;  // '{'
  skip_ws();
  if (!eof() && peek() == '}') {
    ++pos_;
    return false;
  }
  return true;
}

bool JsonReader::key(std::string_view* key, std::string& scratch) {
  skip_ws();
  if (eof() || peek() != '"') return fail("expected object key");
  // Most keys hold no escape: view them where they lie.
  std::size_t end = pos_ + 1;
  while (end < text_.size() && plain_string_byte(text_[end])) ++end;
  if (end < text_.size() && text_[end] == '"') {
    *key = text_.substr(pos_ + 1, end - pos_ - 1);
    pos_ = end + 1;
    return true;
  }
  if (!string(scratch)) return false;
  *key = scratch;
  return true;
}

bool JsonReader::duplicate_key(std::string_view key) {
  std::string what = "duplicate object key '";
  what += key;
  what += "'";
  return fail(what);
}

bool JsonReader::colon() {
  skip_ws();
  if (eof() || text_[pos_] != ':') return fail("expected ':'");
  ++pos_;
  skip_ws();
  return true;
}

JsonReader::Next JsonReader::next_member() {
  skip_ws();
  if (eof()) {
    fail("unterminated object");
    return Next::kError;
  }
  const char c = text_[pos_++];
  if (c == '}') return Next::kEnd;
  if (c != ',') {
    --pos_;
    fail("expected ',' or '}'");
    return Next::kError;
  }
  return Next::kMore;
}

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  if (error != nullptr) error->clear();
  JsonReader r(text, error);
  r.skip_ws();
  Json v;
  if (!r.value(v, 0) || !r.finish()) return std::nullopt;
  return v;
}

}  // namespace netd::util
