// Minimal recursive-descent JSON parser used by the observability tests and
// the kernel-perf harness to read JSON without adding a dependency. It
// accepts exactly standard JSON (objects, arrays, strings with escapes,
// numbers, booleans, null) and throws std::runtime_error on anything
// malformed — so a passing parse IS the well-formedness assertion.
#pragma once

#include <cctype>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace stellaris::minijson {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> arr;
  std::map<std::string, Value> obj;

  bool is_object() const { return kind == Kind::kObject; }
  bool has(const std::string& key) const {
    return kind == Kind::kObject && obj.count(key) > 0;
  }
  const Value& at(const std::string& key) const {
    if (!has(key)) throw std::runtime_error("missing key: " + key);
    return obj.at(key);
  }
  double number() const {
    if (kind != Kind::kNumber) throw std::runtime_error("not a number");
    return num;
  }
  const std::string& string() const {
    if (kind != Kind::kString) throw std::runtime_error("not a string");
    return str;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    ++pos_;
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return keyword("true", bool_value(true));
      case 'f': return keyword("false", bool_value(false));
      case 'n': return keyword("null", Value{});
      default: return number();
    }
  }

  static Value bool_value(bool b) {
    Value v;
    v.kind = Value::Kind::kBool;
    v.b = b;
    return v;
  }

  Value keyword(const std::string& word, Value v) {
    if (s_.compare(pos_, word.size(), word) != 0)
      throw std::runtime_error("bad keyword at " + std::to_string(pos_));
    pos_ += word.size();
    return v;
  }

  Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      Value key = string_value();
      skip_ws();
      expect(':');
      v.obj[key.str] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Value string_value() {
    expect('"');
    Value v;
    v.kind = Value::Kind::kString;
    while (true) {
      if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return v;
      if (static_cast<unsigned char>(c) < 0x20)
        throw std::runtime_error("raw control char in string");
      if (c != '\\') {
        v.str.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': v.str.push_back('"'); break;
        case '\\': v.str.push_back('\\'); break;
        case '/': v.str.push_back('/'); break;
        case 'b': v.str.push_back('\b'); break;
        case 'f': v.str.push_back('\f'); break;
        case 'n': v.str.push_back('\n'); break;
        case 'r': v.str.push_back('\r'); break;
        case 't': v.str.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              throw std::runtime_error("bad \\u digit");
          }
          // The exporters only \u-escape control characters, so a one-byte
          // reconstruction is enough for round-trip checks.
          v.str.push_back(static_cast<char>(code & 0xff));
          break;
        }
        default: throw std::runtime_error("unknown escape");
      }
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) throw std::runtime_error("bad number");
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) throw std::runtime_error("bad fraction");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (digits() == 0) throw std::runtime_error("bad exponent");
    }
    Value v;
    v.kind = Value::Kind::kNumber;
    v.num = std::strtod(s_.c_str() + start, nullptr);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

inline Value parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace stellaris::minijson
