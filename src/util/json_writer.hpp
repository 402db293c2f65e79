// Minimal streaming JSON writer for machine-readable bench output.
//
// No reflection, no DOM: the caller opens/closes objects and arrays and the
// writer tracks comma placement and indentation. Strings are escaped;
// non-finite doubles are emitted as null so the output always parses.
#pragma once

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace mcx {

class JsonWriter {
public:
  /// @p pretty: indented multi-line output (the bench files). Pass false
  /// for compact single-line output — the experiment service's JSON-lines
  /// protocol, where one response must be exactly one '\n'-terminated line.
  explicit JsonWriter(std::ostream& out, bool pretty = true) : out_(out), pretty_(pretty) {}

  JsonWriter& beginObject() { return open('{'); }
  JsonWriter& endObject() { return close('}'); }
  JsonWriter& beginArray() { return open('['); }
  JsonWriter& endArray() { return close(']'); }

  JsonWriter& key(const std::string& name) {
    separate();
    writeString(name);
    out_ << ": ";
    pendingKey_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& v) {
    separate();
    writeString(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(bool v) {
    separate();
    out_ << (v ? "true" : "false");
    return *this;
  }
  JsonWriter& value(double v) {
    separate();
    if (std::isfinite(v))
      out_ << v;
    else
      out_ << "null";
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    separate();
    out_ << v;
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    separate();
    out_ << v;
    return *this;
  }
  JsonWriter& value(int v) {
    separate();
    out_ << v;
    return *this;
  }

  /// A value already serialized as JSON text (e.g. specText, whose numbers
  /// round-trip exactly), written as is.
  JsonWriter& raw(const std::string& json) {
    separate();
    out_ << json;
    return *this;
  }

  template <typename T>
  JsonWriter& field(const std::string& name, const T& v) {
    key(name);
    return value(v);
  }

private:
  JsonWriter& open(char c) {
    separate();
    out_ << c;
    hasEntry_.push_back(false);
    return *this;
  }

  JsonWriter& close(char c) {
    if (pretty_) out_ << '\n';
    hasEntry_.pop_back();
    if (pretty_) indent();
    out_ << c;
    return *this;
  }

  void separate() {
    if (pendingKey_) {  // value right after its key: no comma, no newline
      pendingKey_ = false;
      return;
    }
    if (hasEntry_.empty()) return;
    if (hasEntry_.back()) out_ << ',';
    if (pretty_) out_ << '\n';
    hasEntry_.back() = true;
    if (pretty_) indent();
  }

  void indent() {
    for (std::size_t i = 0; i < hasEntry_.size(); ++i) out_ << "  ";
  }

  void writeString(const std::string& s) {
    out_ << '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ << "\\\""; break;
        case '\\': out_ << "\\\\"; break;
        case '\n': out_ << "\\n"; break;
        case '\t': out_ << "\\t"; break;
        default: out_ << c;
      }
    }
    out_ << '"';
  }

  std::ostream& out_;
  std::vector<bool> hasEntry_;
  bool pendingKey_ = false;
  bool pretty_ = true;
};

}  // namespace mcx
