#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include "scenario/spec.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

// --- Spec parsing (the JSON subset) -----------------------------------------

TEST(SpecParser, ParsesScalarsArraysAndObjects) {
  const SpecValue v = parseSpec(
      R"({"model": "clustered", "density": 8e-4, "deep": {"on": true, "off": false},
          "list": [1, 2.5, -3], "none": null})");
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.stringOr("model", ""), "clustered");
  EXPECT_DOUBLE_EQ(v.numberOr("density", 0.0), 8e-4);
  const SpecValue* deep = v.find("deep");
  ASSERT_NE(deep, nullptr);
  EXPECT_TRUE(deep->find("on")->boolean);
  EXPECT_FALSE(deep->find("off")->boolean);
  const SpecValue* list = v.find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array.size(), 3u);
  EXPECT_DOUBLE_EQ(list->array[2].number, -3.0);
  EXPECT_EQ(v.find("none")->kind, SpecValue::Kind::Null);
}

TEST(SpecParser, HandlesEscapesAndWhitespace) {
  const SpecValue v = parseSpec("  { \"a\\nb\" : \"c\\\"d\" }  ");
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.members.at(0).first, "a\nb");
  EXPECT_EQ(v.members.at(0).second.string, "c\"d");
}

TEST(SpecParser, RejectsMalformedInput) {
  EXPECT_THROW(parseSpec(""), ParseError);
  EXPECT_THROW(parseSpec("{"), ParseError);
  EXPECT_THROW(parseSpec("{\"a\": }"), ParseError);
  EXPECT_THROW(parseSpec("{\"a\": 1,}"), ParseError);
  EXPECT_THROW(parseSpec("[1 2]"), ParseError);
  EXPECT_THROW(parseSpec("{\"a\": 1} trailing"), ParseError);
  EXPECT_THROW(parseSpec("{1: 2}"), ParseError);
  EXPECT_THROW(parseSpec("\"unterminated"), ParseError);
}

TEST(SpecParser, TypedAccessorsRejectWrongTypes) {
  const SpecValue v = parseSpec(R"({"rate": "high", "name": 3})");
  EXPECT_THROW(v.numberOr("rate", 0.0), ParseError);
  EXPECT_THROW(v.stringOr("name", ""), ParseError);
  EXPECT_DOUBLE_EQ(v.numberOr("absent", 0.25), 0.25);
  EXPECT_EQ(v.stringOr("absent", "dflt"), "dflt");
}

TEST(SpecParser, RangedAccessorsRejectFractionsAndOutOfRange) {
  const SpecValue v = parseSpec(
      R"({"seed": 7, "half": 1.5, "neg": -1, "huge": 1e300, "rate": 0.25, "name": "x"})");
  EXPECT_EQ(v.integerOr("seed", 0, 0, 10), 7u);
  EXPECT_EQ(v.integerOr("absent", 42, 0, 10), 42u);  // the fallback is not checked
  EXPECT_THROW(v.integerOr("seed", 0, 8, 10), ParseError);
  EXPECT_THROW(v.integerOr("half", 0, 0, 10), ParseError);
  EXPECT_THROW(v.integerOr("neg", 0, 0, 10), ParseError);
  EXPECT_THROW(v.integerOr("huge", 0, 0, UINT64_MAX), ParseError);
  EXPECT_THROW(v.integerOr("name", 0, 0, 10), ParseError);
  EXPECT_DOUBLE_EQ(v.numberOr("rate", 0.0, 0.0, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(v.numberOr("absent", 2.0, 0.0, 1.0), 2.0);
  EXPECT_THROW(v.numberOr("half", 0.0, 0.0, 1.0), ParseError);
  try {
    v.integerOr("half", 0, 1, 1000);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), R"(member "half" must be an integer in [1, 1000])");
  }
}

TEST(SpecParser, InlineSpecOnlyForObjects) {
  EXPECT_FALSE(inlineSpec("hba").has_value());
  EXPECT_FALSE(inlineSpec("").has_value());
  EXPECT_FALSE(inlineSpec("sop:x1 + x2").has_value());
  const std::optional<SpecValue> spec = inlineSpec(" \n\t{\"a\": 1}");
  ASSERT_TRUE(spec.has_value());
  EXPECT_TRUE(spec->isObject());
  EXPECT_THROW(inlineSpec("  {\"a\": "), ParseError);
}

// --- Presets ----------------------------------------------------------------

TEST(ScenarioRegistry, EveryPresetBuildsAndGenerates) {
  ASSERT_GE(scenarioPresets().size(), 5u);
  for (const ScenarioPreset& preset : scenarioPresets()) {
    SCOPED_TRACE(preset.name);
    const auto model = preset.make(0.10);
    ASSERT_NE(model, nullptr);
    EXPECT_FALSE(model->name().empty());
    EXPECT_FALSE(model->describe().empty());
    Rng rng(5);
    const DefectMap map = model->sample(24, 24, rng);
    EXPECT_EQ(map.rows(), 24u);
    EXPECT_EQ(map.cols(), 24u);
  }
  EXPECT_NE(findScenarioPreset("paper-iid"), nullptr);
  EXPECT_EQ(findScenarioPreset("nonsense"), nullptr);
}

TEST(ScenarioRegistry, PaperPresetIsTheIidModel) {
  const auto model = findScenarioPreset("paper-iid")->make(0.10);
  const auto* iid = dynamic_cast<const IidBernoulli*>(model.get());
  ASSERT_NE(iid, nullptr);
  EXPECT_DOUBLE_EQ(iid->stuckOpenRate(), 0.10);
  EXPECT_DOUBLE_EQ(iid->stuckClosedRate(), 0.0);
}

// --- makeScenario / modelFromSpec --------------------------------------------

TEST(ScenarioRegistry, MakeScenarioResolvesPresetNames) {
  EXPECT_EQ(makeScenario("clustered", 0.05)->name(), "clustered");
  EXPECT_EQ(makeScenario("lines")->name(), "lines");
  EXPECT_THROW(makeScenario("no-such-scenario"), ParseError);
}

TEST(ScenarioRegistry, MakeScenarioParsesInlineSpecs) {
  const auto model = makeScenario(R"(  {"model": "gradient", "center": 0.01, "edge": 0.3})");
  EXPECT_EQ(model->name(), "gradient");
  const auto* gradient = dynamic_cast<const RadialGradient*>(model.get());
  ASSERT_NE(gradient, nullptr);
  EXPECT_DOUBLE_EQ(gradient->params().centerRate, 0.01);
  EXPECT_DOUBLE_EQ(gradient->params().edgeRate, 0.3);
}

TEST(ScenarioRegistry, SpecBuildsEveryModelKind) {
  EXPECT_EQ(modelFromSpec(parseSpec(R"({"model": "iid", "open": 0.2})"))->name(), "iid");
  EXPECT_EQ(modelFromSpec(parseSpec(R"({"model": "clustered"})"))->name(), "clustered");
  EXPECT_EQ(modelFromSpec(parseSpec(R"({"model": "lines", "rowClosed": 0.1})"))->name(),
            "lines");
  EXPECT_EQ(modelFromSpec(parseSpec(R"({"model": "gradient"})"))->name(), "gradient");
  const auto composite = modelFromSpec(parseSpec(
      R"({"model": "composite", "parts": [{"model": "iid", "open": 0.05},
                                          {"preset": "lines", "rate": 0.02}]})"));
  EXPECT_EQ(composite->name(), "composite");
  const auto* parts = dynamic_cast<const CompositeModel*>(composite.get());
  ASSERT_NE(parts, nullptr);
  EXPECT_EQ(parts->parts().size(), 2u);
}

TEST(ScenarioRegistry, SpecRejectsUnknownModelsAndBadShapes) {
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "martian"})")), ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"preset": "martian"})")), ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "composite", "parts": []})")),
               ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec("[1, 2]")), ParseError);
}

TEST(ScenarioRegistry, SpecRejectsUnknownMembers) {
  // A typo'd parameter must fail loudly, not silently run the defaults
  // under the intended scenario's label.
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "iid", "opne": 0.2})")), ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "iid", "rate": 0.2})")), ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"preset": "lines", "open": 0.1})")), ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(
                   R"({"model": "composite", "spread": 1, "parts": [{"model": "iid"}]})")),
               ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec(R"({"model": "gradient", "density": 0.1})")),
               ParseError);
}

TEST(ScenarioRegistry, SpecRejectsOutOfRangeMembersAsParseErrors) {
  // Each of these once ran a different model than declared (a preset rate
  // of 5 built clustered(density=0.75)) or failed a model constructor's
  // precondition with a source location in the message.
  for (const char* text : {R"({"preset": "clustered", "rate": 5})",
                           R"({"preset": "paper-iid", "rate": -1})",
                           R"({"model": "clustered", "spread": 1.5})",
                           R"({"model": "clustered", "spread": 1})",
                           R"({"model": "iid", "open": 0.7, "closed": 0.7})",
                           R"({"model": "lines", "rowOpen": 2})",
                           R"({"model": "gradient", "edge": -0.5})"}) {
    EXPECT_THROW(makeScenario(text), ParseError) << text;
  }
  // A preset past its family's domain (the gradient's edge is 1.5 x rate).
  EXPECT_THROW(makeScenario("gradient", 0.9), ParseError);
}

TEST(ScenarioRegistry, SpecAcceptsAPresetNameString) {
  EXPECT_EQ(modelFromSpec(parseSpec(R"("lines")"), 0.05)->describe(),
            makeScenario("lines", 0.05)->describe());
  EXPECT_THROW(modelFromSpec(parseSpec(R"("martian")")), ParseError);
  EXPECT_THROW(modelFromSpec(parseSpec("3")), ParseError);
}

TEST(ScenarioRegistry, StandardRateGridIsAscendingAndNonEmpty) {
  const std::vector<double>& grid = standardRateGrid();
  ASSERT_FALSE(grid.empty());
  for (std::size_t i = 1; i < grid.size(); ++i) EXPECT_LT(grid[i - 1], grid[i]);
}

}  // namespace
}  // namespace mcx
