// json_mini — the tools' shared minimal JSON value + recursive-descent
// parser (extracted from trace_lint so bench_compare can reuse it).
//
// Deliberately tiny and dependency-free: numbers are kept as doubles plus an
// "is_integer" flag (enough to validate pid/tid/ts fields and compare bench
// metrics), \u escapes are validated but kept raw. Not a general-purpose
// JSON library — a linter/comparator backend for files this repo generates.
#ifndef LINSYS_TOOLS_JSON_MINI_H_
#define LINSYS_TOOLS_JSON_MINI_H_

#include <cctype>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace jsonmini {

// Deepest array/object nesting the parser accepts. The documents this repo
// writes nest fewer than 10 levels; the cap keeps the recursive descent off
// the end of the stack on hostile input, which gets the normal error.
inline constexpr std::size_t kMaxDepth = 256;

struct JsonValue;
using JsonPtr = std::unique_ptr<JsonValue>;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0;
  bool is_integer = false;
  std::string string_value;
  std::vector<JsonPtr> array;
  std::vector<std::pair<std::string, JsonPtr>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return v.get();
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonPtr Parse(std::string* error) {
    JsonPtr value = ParseValue();
    if (!value) {
      *error = error_;
      return nullptr;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      *error = "trailing garbage at offset " + std::to_string(pos_);
      return nullptr;
    }
    return value;
  }

 private:
  JsonPtr Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
    return nullptr;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonPtr ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          return Fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        ++depth_;
        JsonPtr value = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return value;
      }
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseKeyword(c == 't' ? "true" : "false");
      case 'n':
        return ParseKeyword("null");
      default:
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
          return ParseNumber();
        }
        return Fail(std::string("unexpected character '") + c + "'");
    }
  }

  JsonPtr ParseKeyword(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) {
      return Fail("bad keyword");
    }
    pos_ += len;
    auto value = std::make_unique<JsonValue>();
    if (word[0] == 'n') {
      value->kind = JsonValue::Kind::kNull;
    } else {
      value->kind = JsonValue::Kind::kBool;
      value->bool_value = word[0] == 't';
    }
    return value;
  }

  JsonPtr ParseNumber() {
    const std::size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("digit expected after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("digit expected in exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") {
      return Fail("malformed number");
    }
    auto value = std::make_unique<JsonValue>();
    value->kind = JsonValue::Kind::kNumber;
    value->number = std::stod(token);
    value->is_integer = integral;
    return value;
  }

  JsonPtr ParseString() {
    if (!Consume('"')) {
      return Fail("string expected");
    }
    auto value = std::make_unique<JsonValue>();
    value->kind = JsonValue::Kind::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return value;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        value->string_value.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': value->string_value.push_back('"'); break;
        case '\\': value->string_value.push_back('\\'); break;
        case '/': value->string_value.push_back('/'); break;
        case 'b': value->string_value.push_back('\b'); break;
        case 'f': value->string_value.push_back('\f'); break;
        case 'n': value->string_value.push_back('\n'); break;
        case 'r': value->string_value.push_back('\r'); break;
        case 't': value->string_value.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return Fail("bad \\u escape");
            }
          }
          // Validation only — keep the raw escape, no UTF-8 re-encode.
          value->string_value.append(text_, pos_ - 2, 6);
          pos_ += 4;
          break;
        }
        default:
          return Fail("bad escape character");
      }
    }
    return Fail("unterminated string");
  }

  JsonPtr ParseArray() {
    if (!Consume('[')) {
      return Fail("array expected");
    }
    auto value = std::make_unique<JsonValue>();
    value->kind = JsonValue::Kind::kArray;
    if (Consume(']')) {
      return value;
    }
    while (true) {
      JsonPtr element = ParseValue();
      if (!element) {
        return nullptr;
      }
      value->array.push_back(std::move(element));
      if (Consume(']')) {
        return value;
      }
      if (!Consume(',')) {
        return Fail("',' or ']' expected in array");
      }
    }
  }

  JsonPtr ParseObject() {
    if (!Consume('{')) {
      return Fail("object expected");
    }
    auto value = std::make_unique<JsonValue>();
    value->kind = JsonValue::Kind::kObject;
    if (Consume('}')) {
      return value;
    }
    while (true) {
      SkipWhitespace();
      JsonPtr key = ParseString();
      if (!key) {
        return nullptr;
      }
      if (!Consume(':')) {
        return Fail("':' expected after object key");
      }
      JsonPtr element = ParseValue();
      if (!element) {
        return nullptr;
      }
      value->object.emplace_back(std::move(key->string_value),
                                 std::move(element));
      if (Consume('}')) {
        return value;
      }
      if (!Consume(',')) {
        return Fail("',' or '}' expected in object");
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays/objects open around pos_
  std::string error_;
};

}  // namespace jsonmini

#endif  // LINSYS_TOOLS_JSON_MINI_H_
