// JSON, in one low layer: a small owned document type with a strict
// parser, the grammar every reader walks, and the appenders every writer
// uses. This is the only code that escapes a JSON string or formats a
// JSON number; the DOM's dump, the typed wire codec (svc/codec.h),
// core::to_json and the Chrome trace writer all append through it.
//
// Two properties matter more than convenience here and drive the design:
//   1. Byte-identical round-trips: dump(parse(s)) == s for any string this
//      module itself produced. Numbers keep their original lexeme (never
//      reformatted through a double), and objects preserve insertion/parse
//      order, so re-serializing a parsed frame reproduces it exactly —
//      the protocol tests pin this property per message type.
//   2. Hostile input: the parser is fed raw bytes off a socket or a disk.
//      It validates strictly (trailing garbage, bad escapes, lone
//      surrogates, malformed numbers), bounds recursion depth, and reports
//      the byte offset of the first error instead of crashing or guessing.
//
// Every writer emits the same compact style (no whitespace, the escaper
// and number rule below), so diagnosis objects can be spliced into frames
// and later re-serialized without drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netd::util {

/// `s` as a quoted JSON string: '"', '\\' and control bytes escaped
/// (\n, \r and \t by name, the rest as \u00XX), every other byte
/// verbatim.
void append_json_string(std::string& out, std::string_view s);
void append_json_uint(std::string& out, std::uint64_t v);
void append_json_int(std::string& out, long long v);
/// A double: an integral value prints as an integer ("3", not "3.0"),
/// any other as std::ostream prints it at its default precision.
void append_json_number(std::string& out, double v);

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Maximum container nesting parse() accepts: arrays/objects may nest
  /// at most this many levels; one deeper fails with a structured
  /// "nesting too deep" error naming the byte offset — the bound that
  /// keeps hostile input from exhausting the stack. Documents this
  /// module itself writes stay far below it.
  static constexpr std::size_t kMaxParseDepth = 96;

  Json() = default;  ///< null

  // Factories (constructors stay trivial so vectors of Json are cheap).
  [[nodiscard]] static Json null();
  [[nodiscard]] static Json boolean(bool b);
  /// A double, written by append_json_number.
  [[nodiscard]] static Json number(double v);
  [[nodiscard]] static Json integer(long long v);
  [[nodiscard]] static Json uinteger(unsigned long long v);
  /// A number carrying `lexeme` verbatim; the parser uses this to keep
  /// re-serialization byte-identical. `lexeme` must be a valid JSON number.
  [[nodiscard]] static Json number_from_lexeme(std::string lexeme);
  [[nodiscard]] static Json string(std::string s);
  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();
  /// Splices a pre-serialized JSON document in verbatim (no validation);
  /// the caller guarantees `raw` is well-formed. Used to embed diagnosis
  /// objects exactly as core::to_json produced them.
  [[nodiscard]] static Json raw(std::string raw);

  /// Strict parse of exactly one document covering all of `text`.
  /// On failure returns std::nullopt and, when `error` is non-null, a
  /// message with the byte offset of the problem.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text,
                                                 std::string* error = nullptr);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_double() const;
  [[nodiscard]] long long as_int() const;
  /// The number as an unsigned integer: std::nullopt unless this is a
  /// number whose lexeme is plain digits (no sign, fraction or exponent)
  /// with a value of at most `max`. The accessor for every count, id and
  /// sequence number read off the wire or the disk.
  [[nodiscard]] std::optional<std::uint64_t> as_uint(
      std::uint64_t max = UINT64_MAX) const;
  /// as_uint's rule on a bare number lexeme.
  [[nodiscard]] static std::optional<std::uint64_t> uint_from_lexeme(
      std::string_view lexeme, std::uint64_t max = UINT64_MAX);
  /// The number as an `int`: std::nullopt unless the lexeme is an integer
  /// (an optional '-', then digits) in int range. The accessor for AS
  /// numbers, which a fraction or a wrap past 32 bits would silently
  /// turn into another AS.
  [[nodiscard]] std::optional<int> as_int32() const;
  [[nodiscard]] static std::optional<int> int32_from_lexeme(
      std::string_view lexeme);
  [[nodiscard]] const std::string& as_string() const { return str_; }

  // Arrays.
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const Json& operator[](std::size_t i) const {
    return items_[i];
  }
  Json& push_back(Json v);

  // Objects (insertion-ordered; keys are unique).
  [[nodiscard]] const Json* find(std::string_view key) const;
  Json& set(std::string key, Json value);
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const {
    return members_;
  }

  /// Compact serialization (stable: preserves number lexemes and object
  /// member order).
  [[nodiscard]] std::string dump() const;
  void dump_to(std::string& out) const;

 private:
  friend class JsonReader;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::string str_;  ///< string value, number lexeme, or raw splice
  bool raw_ = false;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// The JSON grammar, defined once: a cursor over one document that both
/// Json::parse and the typed wire codec (svc/codec.h) walk. Whitespace,
/// literals, strings and their escapes, numbers, the nesting bound and
/// the duplicate-key error all live here, so every reader accepts the
/// same language and fails with the same "offset N: what" text. Each
/// call that returns false has recorded that text in `error` (the first
/// failure wins); the cursor is then unusable.
class JsonReader {
 public:
  /// What the value at the cursor is, judged by its first byte as the
  /// parser dispatches on it (anything unrecognized reads as a number and
  /// fails as one).
  enum class Kind { kLiteral, kString, kNumber, kArray, kObject };
  /// What follows an array element or an object member.
  enum class Next { kMore, kEnd, kError };

  JsonReader(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  void skip_ws();
  /// After the document: only whitespace may remain.
  [[nodiscard]] bool finish();

  /// Checks that a value starts here, `depth` containers deep, and
  /// classifies it. Fails at the end of input and on a container that
  /// would nest deeper than Json::kMaxParseDepth.
  [[nodiscard]] bool begin_value(std::size_t depth, Kind* kind);
  /// One whole value at `depth` into a DOM: the recursion of Json::parse,
  /// and how the typed readers validate members they do not decode.
  [[nodiscard]] bool value(Json& out, std::size_t depth);

  /// A string (the cursor on its opening quote), unescaped into `out`.
  [[nodiscard]] bool string(std::string& out);
  /// A number; `lexeme` views its bytes in the document.
  [[nodiscard]] bool number(std::string_view* lexeme);

  /// Consumes '[' and the whitespace after it. False when the array is
  /// empty, its ']' consumed too.
  [[nodiscard]] bool open_array();
  /// After an element: consumes ',' (kMore) or ']' (kEnd).
  [[nodiscard]] Next next_element();
  /// Consumes '{' and the whitespace after it. False when the object is
  /// empty, its '}' consumed too.
  [[nodiscard]] bool open_object();
  /// A member's key, unescaped. `key` views the document when the key
  /// holds no escape, and `scratch` otherwise.
  [[nodiscard]] bool key(std::string_view* key, std::string& scratch);
  /// The error for a key already seen in the same object; returns false.
  bool duplicate_key(std::string_view key);
  /// The ':' between a key and its value.
  [[nodiscard]] bool colon();
  /// After a member's value: consumes ',' (kMore) or '}' (kEnd).
  [[nodiscard]] Next next_member();

 private:
  /// Records "offset <pos>: <what>" unless an error is already recorded.
  bool fail(std::string_view what);
  /// The exact literal `lit` ("true", "false" or "null").
  [[nodiscard]] bool literal(std::string_view lit);
  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  bool hex4(unsigned& out);

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace netd::util
