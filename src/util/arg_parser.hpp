// Shared command-line parser for the bench driver and the examples.
//
// Every CLI in this repo used to hand-roll the same argv loop (and silently
// ignore unknown flags); ArgParser centralizes it: typed value flags bound
// to variables, boolean switches, value callbacks for list-style flags,
// positional arguments, a generated --help, and hard errors on unknown
// flags or malformed values. Numeric parsing is full-string
// std::from_chars, so "--samples 12abc" is rejected, not truncated.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace mcx::cli {

namespace detail {
template <typename T>
T parseFlagNumber(const std::string& flag, const std::string& text) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  MCX_REQUIRE(ec == std::errc() && end == text.data() + text.size(),
              flag + ": bad value \"" + text + "\"");
  return value;
}
}  // namespace detail

class ArgParser {
public:
  /// Outcome of a parse() call. Handled means an exit-style flag (--help or
  /// an addAction flag such as --list) ran: the caller should exit 0
  /// without doing its normal work. Error messages have already been
  /// written to the error stream; the caller should exit nonzero.
  enum class Outcome { Ok, Handled, Error };

  ArgParser(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  // --- value flags bound to variables ------------------------------------
  void add(const std::string& name, std::string* target, const std::string& valueName,
           const std::string& doc);
  /// Numeric flag (size_t, uint64_t, double, ...): full-string conversion,
  /// trailing garbage rejected.
  template <typename T>
    requires std::is_arithmetic_v<T>
  void add(const std::string& name, T* target, const std::string& valueName,
           const std::string& doc) {
    addFlag({name, valueName, doc, false,
             [name, target](const std::string& value, std::ostream&) {
               *target = detail::parseFlagNumber<T>(name, value);
             }});
  }
  // Optional-valued variants for callers that must distinguish "flag absent"
  // from "flag set to the default".
  template <typename T>
    requires std::is_arithmetic_v<T>
  void add(const std::string& name, std::optional<T>* target, const std::string& valueName,
           const std::string& doc) {
    addFlag({name, valueName, doc, false,
             [name, target](const std::string& value, std::ostream&) {
               *target = detail::parseFlagNumber<T>(name, value);
             }});
  }
  void add(const std::string& name, std::optional<std::string>* target,
           const std::string& valueName, const std::string& doc);

  /// Boolean switch: presence sets *target to true, no value consumed.
  void addSwitch(const std::string& name, bool* target, const std::string& doc);

  /// Value flag handled by a callback (repeatable flags, custom parsing).
  /// The callback may throw mcx::Error / std::exception: parse() turns it
  /// into an error message on the error stream and returns Error.
  void addCallback(const std::string& name, const std::string& valueName,
                   const std::string& doc, std::function<void(const std::string&)> apply);

  /// Exit-style switch (e.g. --list): the callback writes to the output
  /// stream, then parse() returns Handled immediately.
  void addAction(const std::string& name, const std::string& doc,
                 std::function<void(std::ostream&)> apply);

  /// Positional argument (filled in declaration order). Required positionals
  /// must precede optional ones; a missing required positional is an error.
  void addPositional(const std::string& name, std::string* target, const std::string& doc,
                     bool required = true);

  /// Parse flags (args excludes the program name). --help / -h print the
  /// generated help to @p out and return Handled.
  Outcome parse(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);
  Outcome parse(int argc, char** argv, std::ostream& out, std::ostream& err);

  void printHelp(std::ostream& out) const;

private:
  struct Flag {
    std::string name;
    std::string valueName;  ///< empty for switches
    std::string doc;
    bool exits = false;
    std::function<void(const std::string& value, std::ostream& out)> apply;
  };
  struct Positional {
    std::string name;
    std::string doc;
    bool required = true;
    std::string* target = nullptr;
  };

  void addFlag(Flag flag);
  const Flag* findFlag(const std::string& name) const;
  Outcome fail(std::ostream& err, const std::string& message) const;

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<Positional> positionals_;
};

}  // namespace mcx::cli
