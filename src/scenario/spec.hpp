// Minimal JSON parsing for every declaration the system reads.
//
// Serve requests, the circuit, mapper and scenario registries and the
// `mcx_bench scenarios --sweep` document are all small JSON documents
// ({"model": "clustered", "density": 8e-4, ...}); this is the read-side
// companion of util/json_writer.hpp, and the one place that decides how a
// declaration member is typed, bounded and named in an error. Deliberately
// tiny: objects, arrays, strings (with the writer's escape set), numbers,
// booleans, and null — no streaming, no comments, no DOM mutation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

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
  /// run the wrong experiment). The message names the member only: every
  /// declaration reader shares these accessors.
  double numberOr(const std::string& key, double fallback) const;
  std::string stringOr(const std::string& key, const std::string& fallback) const;
  bool boolOr(const std::string& key, bool fallback) const;

  /// Ranged accessors: a present member must be a number in [min, max], and
  /// for integerOr also integral. "seed": 1.5 or "rate": 5 is a declaration
  /// bug, never truncated or passed on; the ParseError names the member and
  /// the range. The fallback is returned unchecked.
  double numberOr(const std::string& key, double fallback, double min, double max) const;
  std::uint64_t integerOr(const std::string& key, std::uint64_t fallback, std::uint64_t min,
                          std::uint64_t max) const;
};

/// 2^53, the largest range in which a JSON number holds every integer: the
/// cap for seeds that a written declaration must replay exactly.
inline constexpr std::uint64_t kMaxExactSpecInteger = std::uint64_t{1} << 53;

/// Parse a complete JSON document; throws mcx::ParseError on malformed
/// input or trailing garbage.
SpecValue parseSpec(const std::string& text);

/// The JSON object a declaration string spells inline, when its first
/// non-blank character is '{'; nullopt for anything else (a preset name or a
/// source). Throws ParseError when the inline JSON is malformed.
std::optional<SpecValue> inlineSpec(const std::string& text);

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
/// "mapper".
void requireOnlyKeys(const SpecValue& spec, const char* context,
                     std::initializer_list<const char*> allowed);

/// Runs the declaration reader @p read and rethrows each ParseError it
/// throws prefixed with "<context>: " (once: a nested reader of the same
/// kind, such as a colperm mapper's "inner", has already named it). The
/// shared member accessors name only the member, so this is what tells
/// `mapper: member "seed" ...` from a request's own `member "seed" ...`.
template <typename Read>
auto readInContext(const std::string& context, Read&& read) -> decltype(read()) {
  try {
    return read();
  } catch (const ParseError& e) {
    const std::string prefix = context + ": ";
    const std::string message = e.what();
    throw ParseError(message.starts_with(prefix) ? message : prefix + message);
  }
}

}  // namespace mcx
