#include "svc/json.h"

#include <charconv>
#include <cstdlib>
#include <sstream>

#include "core/json_export.h"

namespace netd::svc {

Json Json::null() { return Json(); }

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  if (v == static_cast<double>(static_cast<long long>(v))) {
    j.str_ = std::to_string(static_cast<long long>(v));
  } else {
    std::ostringstream ss;
    ss << v;
    j.str_ = ss.str();
  }
  return j;
}

Json Json::integer(long long v) {
  Json j;
  j.type_ = Type::kNumber;
  j.str_ = std::to_string(v);
  return j;
}

Json Json::uinteger(unsigned long long v) {
  Json j;
  j.type_ = Type::kNumber;
  j.str_ = std::to_string(v);
  return j;
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
  // from_chars takes no sign for an unsigned type and stops at a '.',
  // 'e' or 'E', so anything but plain digits leaves bytes unconsumed.
  std::uint64_t v = 0;
  const char* end = str_.data() + str_.size();
  const auto [ptr, ec] = std::from_chars(str_.data(), end, v);
  if (ec != std::errc() || ptr != end || v > max) return std::nullopt;
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
      out += '"';
      out += core::json_escape(str_);
      out += '"';
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
        out += '"';
        out += core::json_escape(k);
        out += "\":";
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

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Json> run() {
    skip_ws();
    Json v;
    if (!parse_value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& what) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = "offset " + std::to_string(pos_) + ": " + what;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("invalid literal");
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  bool parse_value(Json& out, std::size_t depth) {
    if (eof()) {
      fail("unexpected end of input");
      return false;
    }
    // `depth` is the number of enclosing containers; opening another
    // array/object past kMaxParseDepth is rejected, so containers nest at
    // most kMaxParseDepth levels. Scalars at the limit are fine — only
    // containers recurse.
    if (depth >= Json::kMaxParseDepth && (peek() == '[' || peek() == '{')) {
      fail("nesting too deep");
      return false;
    }
    switch (peek()) {
      case 'n':
        return consume_literal("null") && (out = Json::null(), true);
      case 't':
        return consume_literal("true") && (out = Json::boolean(true), true);
      case 'f':
        return consume_literal("false") && (out = Json::boolean(false), true);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json::string(std::move(s));
        return true;
      }
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        return parse_number(out);
    }
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
      return false;
    }
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
        fail("bad hex digit in \\u escape");
        return false;
      }
    }
    return true;
  }

  static void append_utf8(std::string& s, unsigned cp) {
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

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (eof()) {
        fail("unterminated string");
        return false;
      }
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (eof()) {
        fail("truncated escape");
        return false;
      }
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
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("lone high surrogate");
              return false;
            }
            pos_ += 2;
            unsigned lo = 0;
            if (!parse_hex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) {
              fail("invalid low surrogate");
              return false;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate");
            return false;
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail("unknown escape");
          return false;
      }
    }
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') {
      pos_ = start;
      fail("invalid number");
      return false;
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') {
        fail("digit required after decimal point");
        return false;
      }
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') {
        fail("digit required in exponent");
        return false;
      }
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    out = Json::number_from_lexeme(
        std::string(text_.substr(start, pos_ - start)));
    return true;
  }

  bool parse_array(Json& out, std::size_t depth) {
    ++pos_;  // '['
    out = Json::array();
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json v;
      skip_ws();
      if (!parse_value(v, depth + 1)) return false;
      out.push_back(std::move(v));
      skip_ws();
      if (eof()) {
        fail("unterminated array");
        return false;
      }
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
        return false;
      }
    }
  }

  bool parse_object(Json& out, std::size_t depth) {
    ++pos_;  // '{'
    out = Json::object();
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') {
        fail("expected object key");
        return false;
      }
      std::string key;
      if (!parse_string(key)) return false;
      if (out.find(key) != nullptr) {
        fail("duplicate object key '" + key + "'");
        return false;
      }
      skip_ws();
      if (eof() || text_[pos_] != ':') {
        fail("expected ':'");
        return false;
      }
      ++pos_;
      skip_ws();
      Json v;
      if (!parse_value(v, depth + 1)) return false;
      out.set(std::move(key), std::move(v));
      skip_ws();
      if (eof()) {
        fail("unterminated object");
        return false;
      }
      const char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
        return false;
      }
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  if (error != nullptr) error->clear();
  Parser p(text, error);
  return p.run();
}

}  // namespace netd::svc
