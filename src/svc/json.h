// A small owned JSON document type with a strict parser, built for the
// service wire protocol and the event-trace files.
//
// Two properties matter more than convenience here and drive the design:
//   1. Byte-identical round-trips: dump(parse(s)) == s for any string this
//      module itself produced. Numbers keep their original lexeme (never
//      reformatted through a double), and objects preserve insertion/parse
//      order, so re-serializing a parsed frame reproduces it exactly —
//      the protocol tests pin this property per message type.
//   2. Hostile input: the parser is fed raw bytes off a socket. It
//      validates strictly (trailing garbage, bad escapes, lone surrogates,
//      malformed numbers), bounds recursion depth, and reports the byte
//      offset of the first error instead of crashing or guessing.
//
// The writer emits the same compact style as core/json_export (no
// whitespace, core::json_escape string escaping) so diagnosis objects can
// be spliced into frames and later re-serialized without drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netd::svc {

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
  /// Formats like core/json_export: integral doubles print as integers.
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
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::string str_;  ///< string value, number lexeme, or raw splice
  bool raw_ = false;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace netd::svc
