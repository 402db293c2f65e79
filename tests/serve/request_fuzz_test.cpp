// Adversarial-input hardening for the request path (and the JSON parsers
// under it): every truncated prefix of valid requests/specs, deeply nested
// garbage, and a table of malformed shapes must produce a typed ParseError /
// ServeError(Parse) — never a crash, a hang, or any other exception type.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/registry.hpp"
#include "map/registry.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "serve/error.hpp"
#include "serve/request.hpp"
#include "util/error.hpp"

namespace mcx::serve {
namespace {

/// parseRequest must either succeed or throw ServeError with code Parse.
/// Anything else (raw ParseError, bad_alloc, segfault, hang) is a bug.
void expectParseOrServeError(const std::string& line) {
  try {
    parseRequest(line, RequestLimits{});
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Parse) << "line: " << line;
  } catch (const std::exception& e) {
    FAIL() << "non-ServeError escaped parseRequest for line: " << line
           << "\n  what(): " << e.what();
  }
}

TEST(RequestFuzzTest, EveryTruncatedPrefixOfValidRequestsIsRejectedCleanly) {
  const std::vector<std::string> wellFormed = {
      R"({"id": "r1", "circuit": "rd53-min", "mapper": "hba", "samples": 5, "seed": 7})",
      R"({"circuit": {"circuit": "gen:majority5", "synth": "espresso", "realize": "multilevel"}})",
      R"({"circuit": "rd53-min", "mapper": {"mapper": "ea", "munkres": true}})",
      R"({"circuit": "rd53-min", "scenario": {"preset": "clustered", "rate": 0.05}})",
      R"({"circuit": "rd53-min", "scenario": "gradient", "rate": 0.08, "deadline_ms": 50.5})",
  };
  for (const std::string& line : wellFormed) {
    // The complete line itself must parse (guards against a stale table).
    EXPECT_NO_THROW(parseRequest(line, RequestLimits{})) << line;
    for (std::size_t cut = 0; cut < line.size(); ++cut)
      expectParseOrServeError(line.substr(0, cut));
  }
}

TEST(RequestFuzzTest, DeeplyNestedGarbageIsARejectionNotAStackOverflow) {
  // 4096 unclosed opens of each nesting flavour: the parser's depth cap must
  // fail these with a ParseError long before the call stack is in danger.
  const std::string arrays(4096, '[');
  std::string objects;
  for (int i = 0; i < 4096; ++i) objects += "{\"k\":";
  std::string mixed;
  for (int i = 0; i < 2048; ++i) mixed += "[{\"k\":";

  for (const std::string& garbage : {arrays, objects, mixed}) {
    expectParseOrServeError(garbage);
    expectParseOrServeError("{\"circuit\": " + garbage);
    EXPECT_THROW(parseSpec(garbage), ParseError);
  }

  // Exactly at / just past the documented cap of 64 levels.
  std::string ok = "1";
  for (int i = 0; i < 60; ++i) ok = "[" + ok + "]";
  EXPECT_NO_THROW(parseSpec(ok));
  std::string deep = "1";
  for (int i = 0; i < 65; ++i) deep = "[" + deep + "]";
  EXPECT_THROW(parseSpec(deep), ParseError);
}

TEST(RequestFuzzTest, MalformedShapesTable) {
  const std::vector<std::string> lines = {
      "",                  // empty line
      "   ",               // whitespace only
      "null",              // not an object
      "42",                //
      "[1,2,3]",           //
      "\"just a string\"", //
      "{",                 // bare open
      "{}",                // no circuit
      "{\"circuit\"}",     // key without value
      R"({"circuit": "no-such-circuit"})",                        // unknown preset
      R"({"circuit": "rd53-min", "mapper": "no-such-mapper"})",   //
      R"({"circuit": "rd53-min", "scenario": "no-such-model"})",  //
      R"({"circuit": 7})",                                        // wrong type
      R"({"circuit": "rd53-min", "samples": 0})",                 // below min
      R"({"circuit": "rd53-min", "samples": -3})",                //
      R"({"circuit": "rd53-min", "samples": 1.5})",               // non-integral
      R"({"circuit": "rd53-min", "samples": 1e300})",             // absurd
      R"({"circuit": "rd53-min", "seed": "abc"})",                //
      R"({"circuit": "rd53-min", "rate": 1.5})",                  // rate out of [0,1]
      R"({"circuit": "rd53-min", "open": -0.1})",                 //
      R"({"circuit": "rd53-min", "open": 0.7, "closed": 0.5})",   // pair over budget
      R"({"circuit": "rd53-min", "scenario": {"model": "iid", "open": 0.7, "closed": 0.7}})",
      R"({"circuit": "rd53-min", "scenario": {"model": "clustered", "spread": 1.5}})",
      R"({"circuit": "rd53-min", "scenario": {"preset": "clustered", "rate": 5}})",
      R"({"circuit": "rd53-min", "scenario": {"preset": "paper-iid", "rate": -1}})",
      // Nested fractions: once truncated to seed 1 / 2 restarts.
      R"({"circuit": "rd53-min", "mapper": {"mapper": "colperm", "seed": 1.5}})",
      R"({"circuit": "rd53-min", "mapper": {"mapper": "colperm", "restarts": 2.5}})",
      R"({"circuit": "rd53-min", "deadline_ms": 0})",             // must be positive
      R"({"circuit": "rd53-min", "deadline_ms": -5})",            //
      R"({"circuit": "rd53-min", "multilevel": "yes"})",          // wrong type
      R"({"circuit": "rd53-min", "cache": 1})",                   //
      R"({"circuit": "rd53-min", "id": [1]})",                    // id wrong type
      R"({"circuit": "rd53-min", "typo_member": 1})",             // unknown member
      R"({"circuit": "rd53-min", "scenario": "clustered", "open": 0.1})",  // mixed paths
      R"({"circuit": {"circuit": "gen:majority5", "synth": "martians"}})", // bad enum
      R"({"circuit": "rd53-min", "mapper": {"mapper": "ea", "generations": "many"}})",
      R"({"circuit": "rd53-min", "mapper": "sat"})",              // no SAT backend
      R"({"circuit": "rd53-min", "mapper": {"mapper": "sat"}})",  //
      "{\"circuit\": \"rd53-min\"",             // unterminated object
      "{\"circuit\": \"rd53-min\", ",           // trailing comma + EOF
      "{\"circuit\": \"rd53\\",                 // dangling escape
      std::string("{\"circuit\": \"rd53\x01\"}"),  // control char in string
  };
  for (const std::string& line : lines) {
    try {
      parseRequest(line, RequestLimits{});
      FAIL() << "accepted malformed line: " << line;
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::Parse) << line;
      // A client's error names its declaration, never a source location.
      const std::string what = e.what();
      EXPECT_EQ(what.find("requirement failed"), std::string::npos) << line << ": " << what;
      EXPECT_EQ(what.find(".cpp:"), std::string::npos) << line << ": " << what;
    } catch (const std::exception& e) {
      FAIL() << "wrong exception type for line: " << line << "\n  what(): " << e.what();
    }
  }
}

TEST(RequestFuzzTest, OversizedLineIsRejectedBeforeParsing) {
  RequestLimits limits;
  limits.maxLineBytes = 64;
  const std::string big = "{\"circuit\": \"" + std::string(128, 'x') + "\"}";
  try {
    parseRequest(big, limits);
    FAIL() << "oversized line accepted";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Parse);
  }
}

TEST(RequestFuzzTest, TruncatedRegistrySpecsFailTyped) {
  // The registry-level spec parsers (circuit / mapper / scenario) share the
  // hardened JSON front door; truncations of valid spec objects must come
  // back as ParseError, never crash.
  const std::string circuit =
      R"({"circuit": "gen:majority5", "synth": "espresso", "maxFanin": 4})";
  const std::string mapper = R"({"mapper": "colperm", "restarts": 3, "seed": 7})";
  const std::string scenario = R"({"model": "clustered", "density": 0.05, "spread": 2.5})";
  for (const std::string& spec : {circuit, mapper, scenario}) {
    for (std::size_t cut = 0; cut < spec.size(); ++cut) {
      const std::string prefix = spec.substr(0, cut);
      try {
        const SpecValue doc = parseSpec(prefix);
        // A prefix that happens to parse as JSON must still fail spec
        // validation unless it is the (vacuous) empty-ish object.
        if (doc.isObject() && !doc.members.empty()) {
          if (&spec == &circuit) circuitSpecFromSpec(doc);
          if (&spec == &mapper) mapperFromSpec(doc);
          if (&spec == &scenario) modelFromSpec(doc);
        }
      } catch (const ParseError&) {
        // expected shape of rejection
      } catch (const InvalidArgument&) {
        // registry-level range validation is equally acceptable
      } catch (const std::exception& e) {
        FAIL() << "unexpected exception for prefix \"" << prefix << "\": " << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace mcx::serve
