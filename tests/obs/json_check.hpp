// Minimal recursive-descent JSON parser for validating exported artifacts
// (Chrome traces, obs reports) in tests. Supports the full value grammar the
// exporters emit: objects, arrays, strings with escapes, numbers, booleans,
// null. Throws std::runtime_error with a byte offset on malformed input,
// including a raw control character (U+0000–U+001F) inside a string — a
// test that feeds it exporter output is a round-trip check.
#pragma once

#include <cctype>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace json_check {

struct Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

struct Value {
  std::variant<std::nullptr_t, bool, double, std::string, std::shared_ptr<Object>,
               std::shared_ptr<Array>>
      v{nullptr};

  bool is_object() const { return std::holds_alternative<std::shared_ptr<Object>>(v); }
  bool is_array() const { return std::holds_alternative<std::shared_ptr<Array>>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }

  const Object& object() const { return *std::get<std::shared_ptr<Object>>(v); }
  const Array& array() const { return *std::get<std::shared_ptr<Array>>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
  double num() const { return std::get<double>(v); }
  bool boolean() const { return std::get<bool>(v); }

  /// Object member access; throws when missing (tests want loud failures).
  const Value& at(const std::string& key) const {
    const Object& o = object();
    const auto it = o.find(key);
    if (it == o.end()) throw std::runtime_error{"json: missing key '" + key + "'"};
    return it->second;
  }
  bool has(const std::string& key) const {
    return is_object() && object().count(key) != 0;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_{text} {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after top-level value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error{"json: " + why + " at byte " + std::to_string(pos_)};
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return Value{std::string{string()}};
      case 't': literal("true"); return Value{true};
      case 'f': literal("false"); return Value{false};
      case 'n': literal("null"); return Value{nullptr};
      default: return number();
    }
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) expect(*p);
  }

  Value object() {
    expect('{');
    auto out = std::make_shared<Object>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value{out};
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      (*out)[std::move(key)] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value{out};
    }
  }

  Value array() {
    expect('[');
    auto out = std::make_shared<Array>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value{out};
    }
    while (true) {
      out->push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value{out};
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      ++pos_;
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            const int code = std::stoi(text_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            if (code > 0x7F) fail("non-ASCII \\u escape unsupported in tests");
            out += static_cast<char>(code);
            break;
          }
          default: fail("bad escape");
        }
        continue;
      }
      out += c;
    }
  }

  Value number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool numeric = (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                           c == '.' || c == 'e' || c == 'E';
      if (!numeric) break;
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    try {
      return Value{std::stod(text_.substr(start, pos_ - start))};
    } catch (const std::exception&) {
      fail("malformed number");
    }
  }

  const std::string& text_;
  std::size_t pos_{0};
};

inline Value parse(const std::string& text) { return Parser{text}.parse(); }

}  // namespace json_check
