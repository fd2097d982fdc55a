#include "common/json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.h"

namespace cellscope {

namespace {

/// Deepest array/object nesting a document may have. The parser recurses
/// once per level, so without a bound a body of a few hundred KB of '['
/// overflows the stack; nothing this project writes nests past a handful.
constexpr std::size_t kMaxNestingDepth = 512;

/// Appends one Unicode code point as UTF-8.
void append_utf8(std::string& out, unsigned int cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("json parse error at offset " +
                          std::to_string(pos_) + ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() const {
    if (pos_ >= text_.size())
      throw InvalidArgument("json parse error at offset " +
                            std::to_string(pos_) +
                            ": unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxNestingDepth)
          fail("nesting deeper than " + std::to_string(kMaxNestingDepth));
        ++depth_;
        JsonValue value = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.insert_or_assign(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(object));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    for (;;) {
      array.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(array));
    }
  }

  bool is_digit_at(std::size_t i) const {
    return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
  }

  /// Advances `i` past a run of digits; false if there was none.
  bool skip_digits(std::size_t& i) const {
    if (!is_digit_at(i)) return false;
    while (is_digit_at(i)) ++i;
    return true;
  }

  /// RFC 8259 number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  /// strtod alone would also take inf, nan, hex, a leading '+', ".5" and
  /// "1.", none of which is JSON. A literal that overflows to ±inf is
  /// rejected too (JSON has no infinity); underflow to 0 is accepted.
  JsonValue parse_number() {
    std::size_t end = pos_;
    if (end < text_.size() && text_[end] == '-') ++end;
    if (is_digit_at(end) && text_[end] == '0') {
      ++end;
    } else if (!skip_digits(end)) {
      fail("invalid number");
    }
    if (end < text_.size() && text_[end] == '.') {
      ++end;
      if (!skip_digits(end)) fail("invalid number: no digits after '.'");
    }
    if (end < text_.size() && (text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
      if (end < text_.size() && (text_[end] == '+' || text_[end] == '-'))
        ++end;
      if (!skip_digits(end)) fail("invalid number: no exponent digits");
    }
    const char* first = text_.data() + pos_;
    const char* last = text_.data() + end;
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range) {
      // from_chars flags overflow and underflow alike; strtod (on a
      // terminated copy) rounds them to ±inf and to 0 respectively.
      value = std::strtod(std::string(first, last).c_str(), nullptr);
    } else if (ec != std::errc() || ptr != last) {
      fail("invalid number");
    }
    if (std::isinf(value)) fail("number out of range");
    pos_ = end;
    return JsonValue(value);
  }

  unsigned int parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned int value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned int>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<unsigned int>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<unsigned int>(c - 'A' + 10);
      else
        fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned int cp = parse_hex4();
          // Surrogate pair: a high half must be followed by a low half
          // (and a low half must never stand alone).
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (text_.substr(pos_, 2) != "\\u") fail("lone high surrogate");
            pos_ += 2;
            const unsigned int low = parse_hex4();
            if (low >= 0xDC00 && low <= 0xDFFF)
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            else
              fail("invalid low surrogate");
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays/objects currently open
};

/// Appends `s` escaped for a JSON string literal (see json_escape).
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          out.push_back(c);
        } else {
          out += "\\u00";
          out.push_back(kHex[c >> 4]);
          out.push_back(kHex[c & 0xF]);
        }
    }
  }
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

void JsonWriter::begin_value() {
  if (comma_due_) out_.push_back(',');
  comma_due_ = true;
}

JsonWriter& JsonWriter::open(char bracket) {
  begin_value();
  out_.push_back(bracket);
  comma_due_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  out_.push_back(bracket);
  comma_due_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  string(name);
  out_.push_back(':');
  comma_due_ = false;
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view value) {
  begin_value();
  out_.push_back('"');
  append_escaped(out_, value);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::number(double value, JsonNumber style) {
  if (!std::isfinite(value)) return null();
  static constexpr struct {
    std::chars_format format;
    int precision;
  } kFormats[] = {{std::chars_format::general, 17},
                  {std::chars_format::general, 9},
                  {std::chars_format::fixed, 6},
                  {std::chars_format::fixed, 3}};
  const auto [format, precision] = kFormats[static_cast<int>(style)];
  char buf[352];  // fixed notation of DBL_MAX has 309 integer digits
  const char* end =
      std::to_chars(buf, buf + sizeof(buf), value, format, precision).ptr;
  return raw(std::string_view(buf, end - buf));
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  begin_value();
  out_ += json;
  return *this;
}

void write_json_file(const std::string& path, std::string_view json) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file)
    throw IoError("cannot open " + path + ": " + std::strerror(errno));
  const bool written =
      std::fwrite(json.data(), 1, json.size(), file) == json.size() &&
      std::fputc('\n', file) != EOF;
  // fclose flushes stdio's buffer, so a short document meets a full disk
  // only here.
  if (std::fclose(file) != 0 || !written)
    throw IoError("cannot write " + path + ": " + std::strerror(errno));
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool JsonValue::as_bool() const {
  if (!is_bool()) throw InvalidArgument("json value is not a bool");
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  if (!is_number()) throw InvalidArgument("json value is not a number");
  return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) throw InvalidArgument("json value is not a string");
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) throw InvalidArgument("json value is not an array");
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) throw InvalidArgument("json value is not an object");
  return std::get<Object>(value_);
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const auto& object = as_object();
  const auto it = object.find(std::string(key));
  if (it == object.end())
    throw InvalidArgument("json object has no key: " + std::string(key));
  return it->second;
}

bool JsonValue::contains(std::string_view key) const {
  return is_object() &&
         as_object().find(std::string(key)) != as_object().end();
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  if (!contains(key)) return fallback;
  return at(key).as_number();
}

}  // namespace cellscope
