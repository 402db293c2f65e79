// Minimal JSON parsing for declarative scenario specs.
//
// The scenario registry and the `mcx_bench scenarios` sweep accept small JSON
// documents ({"model": "clustered", "density": 8e-4, ...}); this is the
// read-side companion of util/json_writer.hpp. Deliberately tiny: objects,
// arrays, strings (with the writer's escape set), numbers, booleans, and
// null — no streaming, no comments, no DOM mutation.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace mcx {

struct SpecValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<SpecValue> array;
  /// Object members in document order (specs are small; no hashing needed).
  std::vector<std::pair<std::string, SpecValue>> members;

  bool isObject() const { return kind == Kind::Object; }
  bool isArray() const { return kind == Kind::Array; }

  /// Member lookup (objects only); nullptr when absent.
  const SpecValue* find(const std::string& key) const;

  /// Typed member accessors with fallbacks; throw ParseError when the member
  /// exists but has the wrong type (a silently ignored typo'd spec would
  /// run the wrong experiment). The message names the member only: the
  /// scenario, mapper and circuit registries all read their specs here.
  double numberOr(const std::string& key, double fallback) const;
  std::string stringOr(const std::string& key, const std::string& fallback) const;
  bool boolOr(const std::string& key, bool fallback) const;
};

/// Parse a complete JSON document; throws mcx::ParseError on malformed
/// input or trailing garbage.
SpecValue parseSpec(const std::string& text);

/// Compact JSON text of @p value, numbers in shortest round-trip form
/// (std::to_chars): parseSpec reads it back to the same value, so a
/// declaration written with it replays exactly.
std::string specText(const SpecValue& value);
/// specText of a number.
std::string specText(double number);

/// Reject members of @p spec not named in @p allowed: a typo'd option would
/// otherwise be silently dropped and the default would run under the wrong
/// label (the same rationale as the typed accessors above). Throws
/// ParseError("<context>: unknown member \"<key>\""), e.g. with context
/// "mapper spec".
void requireOnlyKeys(const SpecValue& spec, const char* context,
                     std::initializer_list<const char*> allowed);

}  // namespace mcx
