// JSON in and out: the one writer every emitter goes through, and a
// minimal document model with a recursive-descent parser.
//
// JsonWriter is the only place that knows how a string is escaped, where
// commas and colons go, that NaN and infinity become `null`, and how each
// number is printed. Responses, metric snapshots, run reports and Chrome
// traces all write through it.
//
// The parser reads just enough JSON to read back what the project
// writes (metric snapshots, run reports, BENCH_*.json perf reports,
// POST bodies): null, bool, double numbers, strings with the standard
// escapes (incl. \uXXXX -> UTF-8), arrays, and objects. Parsing a
// malformed document throws InvalidArgument with the byte offset;
// accessor kind mismatches throw too, so callers fail loudly instead of
// reading garbage.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace cellscope {

/// Escapes `s` for the inside of a JSON string literal: `"`, `\` and the
/// bytes below 0x20 (\n \r \t by name, the rest as \u00XX); every other
/// byte, UTF-8 included, passes through.
std::string json_escape(std::string_view s);

/// How JsonWriter::number prints a finite double: one printf format
/// each, produced by std::to_chars (same bytes, independent of locale).
enum class JsonNumber {
  kRoundTrip,  ///< "%.17g": parses back to the same double bit for bit
  kCompact,    ///< "%.9g": metric snapshots and quality values
  kFixed6,     ///< "%.6f": run-report values, wall times, ages
  kFixed3,     ///< "%.3f": Chrome-trace microseconds
};

/// Streaming JSON writer into a string it owns; it places the commas and
/// colons, callers say what comes next:
///
///   JsonWriter w;
///   w.begin_object().key("n").integer(3).key("xs").begin_array();
///   for (double x : xs) w.number(x, JsonNumber::kRoundTrip);
///   w.end_array().end_object();
///
/// Nesting is not checked; a mismatched end_* is a bug at the call site.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// An object member's key; the next call writes its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& string(std::string_view value);
  JsonWriter& boolean(bool value) { return raw(value ? "true" : "false"); }
  JsonWriter& null() { return raw("null"); }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& integer(T value) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    return raw(std::string_view(buf, end - buf));
  }
  /// NaN and ±infinity become `null`: JSON has no literal for them.
  JsonWriter& number(double value, JsonNumber style);

  /// Splices in a complete JSON value another emitter already rendered.
  JsonWriter& raw(std::string_view json);

  /// Moves the document out.
  std::string take() { return std::move(out_); }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  void begin_value();  // the comma a value needs, if any

  std::string out_;
  bool comma_due_ = false;  // a value was written at the current level
};

/// Writes `json` and a newline to `path`, replacing the file. Throws
/// IoError when the file cannot be opened or when a write or the final
/// close fails, so a full disk never leaves a silently truncated file.
void write_json_file(const std::string& path, std::string_view json);

/// One parsed JSON value.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}
  explicit JsonValue(bool v) : value_(v) {}
  explicit JsonValue(double v) : value_(v) {}
  explicit JsonValue(std::string v) : value_(std::move(v)) {}
  explicit JsonValue(Array v) : value_(std::move(v)) {}
  explicit JsonValue(Object v) : value_(std::move(v)) {}

  /// Parses a complete document (trailing garbage is an error).
  static JsonValue parse(std::string_view text);

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member access; throws InvalidArgument when not an object or
  /// the key is absent.
  const JsonValue& at(std::string_view key) const;
  bool contains(std::string_view key) const;

  /// at(key).as_number(), or `fallback` when the key is absent.
  double number_or(std::string_view key, double fallback) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

}  // namespace cellscope
