#include "scenario/spec.hpp"

#include <charconv>

#include "util/error.hpp"

namespace mcx {

namespace {

class Parser {
public:
  explicit Parser(const std::string& text) : text_(text) {}

  SpecValue parseDocument() {
    SpecValue v = parseValue();
    skipWhitespace();
    require(pos_ == text_.size(), "trailing characters after JSON value");
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError("scenario spec: " + msg + " at offset " + std::to_string(pos_));
  }

  void require(bool cond, const char* msg) const {
    if (!cond) fail(msg);
  }

  void skipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skipWhitespace();
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    require(peek() == c, "unexpected character");
    ++pos_;
  }

  bool consumeKeyword(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  SpecValue parseValue() {
    SpecValue v;
    switch (peek()) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"':
        v.kind = SpecValue::Kind::String;
        v.string = parseString();
        return v;
      case 't':
        require(consumeKeyword("true"), "bad keyword");
        v.kind = SpecValue::Kind::Bool;
        v.boolean = true;
        return v;
      case 'f':
        require(consumeKeyword("false"), "bad keyword");
        v.kind = SpecValue::Kind::Bool;
        v.boolean = false;
        return v;
      case 'n':
        require(consumeKeyword("null"), "bad keyword");
        return v;
      default: return parseNumber();
    }
  }

  // Containers recurse through parseValue; specs are shallow declarations,
  // so a hard depth cap turns adversarial nesting ("[[[[[..." from a
  // malformed service request) into a ParseError long before the parser
  // could exhaust the stack.
  static constexpr std::size_t kMaxDepth = 64;

  struct DepthGuard {
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > kMaxDepth) parser.fail("nesting deeper than 64 levels");
    }
    ~DepthGuard() { --parser.depth_; }
    Parser& parser;
  };

  SpecValue parseObject() {
    const DepthGuard guard(*this);
    SpecValue v;
    v.kind = SpecValue::Kind::Object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      require(peek() == '"', "object key must be a string");
      std::string key = parseString();
      expect(':');
      v.members.emplace_back(std::move(key), parseValue());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      require(c == ',', "expected ',' or '}' in object");
    }
  }

  SpecValue parseArray() {
    const DepthGuard guard(*this);
    SpecValue v;
    v.kind = SpecValue::Kind::Array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parseValue());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      require(c == ',', "expected ',' or ']' in array");
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        require(pos_ < text_.size(), "unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: fail("unsupported escape sequence");
        }
      }
      out += c;
    }
    require(pos_ < text_.size(), "unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  // Scan the JSON number grammar explicitly, then convert with
  // std::from_chars: strtod would honor the process locale and accept
  // non-JSON tokens (nan, inf, hex floats, leading '+').
  SpecValue parseNumber() {
    skipWhitespace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      const std::size_t first = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      require(pos_ > first, "expected a JSON value");
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      digits();
    }
    SpecValue v;
    v.kind = SpecValue::Kind::Number;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, v.number);
    require(ec == std::errc() && end == text_.data() + pos_, "bad JSON number");
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

const SpecValue* SpecValue::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : members)
    if (name == key) return &value;
  return nullptr;
}

double SpecValue::numberOr(const std::string& key, double fallback) const {
  const SpecValue* v = find(key);
  if (v == nullptr) return fallback;
  if (v->kind != Kind::Number)
    throw ParseError("member \"" + key + "\" must be a number");
  return v->number;
}

std::string SpecValue::stringOr(const std::string& key, const std::string& fallback) const {
  const SpecValue* v = find(key);
  if (v == nullptr) return fallback;
  if (v->kind != Kind::String)
    throw ParseError("member \"" + key + "\" must be a string");
  return v->string;
}

bool SpecValue::boolOr(const std::string& key, bool fallback) const {
  const SpecValue* v = find(key);
  if (v == nullptr) return fallback;
  if (v->kind != Kind::Bool)
    throw ParseError("member \"" + key + "\" must be a boolean");
  return v->boolean;
}

SpecValue parseSpec(const std::string& text) { return Parser(text).parseDocument(); }

std::string specText(double number) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, number);
  return std::string(buf, end);
}

std::string specText(const SpecValue& value) {
  const auto quoted = [](const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {  // the parser's escape set
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
      }
    }
    return out + "\"";
  };
  switch (value.kind) {
    case SpecValue::Kind::Null: return "null";
    case SpecValue::Kind::Bool: return value.boolean ? "true" : "false";
    case SpecValue::Kind::Number: return specText(value.number);
    case SpecValue::Kind::String: return quoted(value.string);
    case SpecValue::Kind::Array: {
      std::string out = "[";
      for (const SpecValue& item : value.array)
        out += (out.size() > 1 ? ", " : "") + specText(item);
      return out + "]";
    }
    case SpecValue::Kind::Object: {
      std::string out = "{";
      for (const auto& [key, item] : value.members)
        out += (out.size() > 1 ? ", " : "") + quoted(key) + ": " + specText(item);
      return out + "}";
    }
  }
  return "null";
}

void requireOnlyKeys(const SpecValue& spec, const char* context,
                     std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : spec.members) {
    bool known = false;
    for (const char* name : allowed)
      if (key == name) {
        known = true;
        break;
      }
    if (!known) throw ParseError(std::string(context) + ": unknown member \"" + key + "\"");
  }
}

}  // namespace mcx
