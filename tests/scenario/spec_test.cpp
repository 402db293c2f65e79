// Error-path coverage for the scenario spec JSON parser and the
// spec-to-model resolution (the happy paths are covered by the registry
// tests): malformed documents, unknown model names, out-of-range rates.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include "scenario/registry.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

TEST(SpecParserErrors, MalformedDocumentsThrow) {
  EXPECT_THROW(parseSpec(""), ParseError);
  EXPECT_THROW(parseSpec("{"), ParseError);
  EXPECT_THROW(parseSpec("[1, 2"), ParseError);
  EXPECT_THROW(parseSpec(R"({"a": })"), ParseError);
  EXPECT_THROW(parseSpec(R"({"a" "b"})"), ParseError);
  EXPECT_THROW(parseSpec(R"({1: 2})"), ParseError);
  EXPECT_THROW(parseSpec(R"({"a": 1,})"), ParseError);
  EXPECT_THROW(parseSpec(R"("unterminated)"), ParseError);
  EXPECT_THROW(parseSpec(R"("bad \q escape")"), ParseError);
  EXPECT_THROW(parseSpec("truthy"), ParseError);
  EXPECT_THROW(parseSpec("1e"), ParseError);
  EXPECT_THROW(parseSpec("1."), ParseError);
  EXPECT_THROW(parseSpec("{} trailing"), ParseError);
  EXPECT_THROW(parseSpec("1 2"), ParseError);
}

TEST(SpecParserErrors, ErrorsCarryTheOffset) {
  try {
    parseSpec(R"({"model": )");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("at offset"), std::string::npos);
  }
}

TEST(SpecParserErrors, TypedAccessorsIncludingBoolOr) {
  const SpecValue spec = parseSpec(R"({"open": "lots", "model": 3, "flag": 1})");
  EXPECT_THROW(spec.numberOr("open", 0.1), ParseError);
  EXPECT_THROW(spec.stringOr("model", "iid"), ParseError);
  EXPECT_THROW(spec.boolOr("flag", false), ParseError);
  // Absent members fall back instead of throwing.
  EXPECT_DOUBLE_EQ(spec.numberOr("absent", 0.25), 0.25);
  EXPECT_EQ(spec.stringOr("absent", "x"), "x");
  EXPECT_TRUE(spec.boolOr("absent", true));
}

TEST(ModelFromSpec, UnknownModelNameThrows) {
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "bogus"})")), ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(R"({})")), ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(R"([1])")), ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"preset": "bogus"})")), ParseError);
  // A typo'd member must not be silently dropped.
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "iid", "opne": 0.1})")), ParseError);
}

TEST(ModelFromSpec, OutOfRangeRatesThrow) {
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "iid", "open": 1.5})")), ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "iid", "open": -0.1})")), ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "iid", "open": 0.6, "closed": 0.6})")),
               ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "iid-sparse", "open": 2.0})")), ParseError);
  EXPECT_THROW(makeScenario("paper-iid", 1.5), ParseError);
  EXPECT_THROW(makeScenario("paper-iid", -0.2), ParseError);
}

TEST(ModelFromSpec, CompositeValidation) {
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "composite"})")), ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "composite", "parts": []})")), ParseError);
  EXPECT_THROW(
      modelFromSpec(parseSpec(R"({"model": "composite", "parts": [{"model": "bad"}]})")),
      ParseError);
}

TEST(MakeScenario, UnknownNameListsPresets) {
  try {
    makeScenario("bogus");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown scenario \"bogus\""), std::string::npos);
    EXPECT_NE(what.find("paper-iid"), std::string::npos);
  }
}

}  // namespace
}  // namespace mcx
