#include "map/registry.hpp"

#include <gtest/gtest.h>

#include "logic/sop_parser.hpp"
#include "util/error.hpp"
#include "xbar/defects.hpp"
#include "xbar/function_matrix.hpp"

namespace mcx {
namespace {

TEST(MapperRegistry, PresetsCoverEveryVariantAndBuild) {
  const auto& presets = mapperPresets();
  ASSERT_GE(presets.size(), 8u);
  for (const MapperPreset& preset : presets) {
    EXPECT_FALSE(preset.summary.empty()) << preset.name;
    const std::shared_ptr<const IMapper> mapper = preset.make();
    ASSERT_NE(mapper, nullptr) << preset.name;
    EXPECT_FALSE(mapper->name().empty()) << preset.name;
  }
}

TEST(MapperRegistry, FindAndMakeByName) {
  EXPECT_NE(findMapperPreset("hba"), nullptr);
  EXPECT_EQ(findMapperPreset("nope"), nullptr);
  EXPECT_EQ(makeMapper("hba")->name(), "HBA");
  EXPECT_EQ(makeMapper("hba-nobt")->name(), "HBA-nobt");
  EXPECT_EQ(makeMapper("hba-paper")->name(), "HBA-paper");
  EXPECT_EQ(makeMapper("ea")->name(), "EA");
  EXPECT_EQ(makeMapper("ea-munkres")->name(), "EA-munkres");
  EXPECT_EQ(makeMapper("fast-ea")->name(), "EA-fast");
  EXPECT_EQ(makeMapper("greedy")->name(), "Greedy");
  EXPECT_EQ(makeMapper("colperm")->name(), "ColPerm+HBA");
}

TEST(MapperRegistry, UnknownNameListsPresets) {
  try {
    makeMapper("bogus");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown mapper \"bogus\""), std::string::npos);
    EXPECT_NE(what.find("hba"), std::string::npos) << "error should list the presets";
  }
}

TEST(MapperRegistry, SatIsAnUnknownNameListingEveryPreset) {
  // Exact feasibility has one verdict (Hopcroft-Karp, cross-checked by the
  // paper's Munkres EA); there is no SAT backend, so "sat" is rejected like
  // any unknown name, by preset and by spec.
  EXPECT_EQ(findMapperPreset("sat"), nullptr);
  try {
    makeMapper("sat");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    for (const MapperPreset& preset : mapperPresets())
      EXPECT_NE(what.find(preset.name), std::string::npos) << preset.name;
  }
  EXPECT_THROW(makeMapper(R"({"mapper": "sat"})"), ParseError);
}

TEST(MapperRegistry, SpecOptionsAreApplied) {
  EXPECT_EQ(makeMapper(R"({"mapper": "hba", "backtracking": false})")->name(), "HBA-nobt");
  EXPECT_EQ(
      makeMapper(R"({"mapper":"hba","backtracking":false,"sortByCandidates":false})")->name(),
      "HBA-paper-nobt");
  EXPECT_EQ(makeMapper(R"({"mapper": "ea", "munkres": true})")->name(), "EA-munkres");
  EXPECT_EQ(makeMapper(R"({"preset": "fast-ea"})")->name(), "EA-fast");
  EXPECT_EQ(mapperFromSpec(parseSpec(R"("hba-paper")"))->name(), "HBA-paper");
  EXPECT_EQ(makeMapper(R"({"mapper": "colperm", "restarts": 3, "inner": "hba-nobt"})")->name(),
            "ColPerm+HBA-nobt");
  EXPECT_EQ(makeMapper(
                R"({"mapper": "colperm", "inner": {"mapper": "hba", "backtracking": false}})")
                ->name(),
            "ColPerm+HBA-nobt");
}

TEST(MapperRegistry, SpecErrorPaths) {
  EXPECT_THROW(makeMapper(R"({"mapper": "nope"})"), ParseError);
  EXPECT_THROW(makeMapper(R"({"mapper": "hba", "backtrackin": false})"), ParseError);
  EXPECT_THROW(makeMapper(R"({"mapper": "hba", "backtracking": 1})"), ParseError);
  EXPECT_THROW(makeMapper(R"({"preset": 3})"), ParseError);
  EXPECT_THROW(makeMapper(R"({"preset": "nope"})"), ParseError);
  EXPECT_THROW(makeMapper(R"({"mapper": "colperm", "restarts": -1})"), ParseError);
  // Fractions are declaration bugs, not truncations to seed 1 / 2 restarts.
  EXPECT_THROW(makeMapper(R"({"mapper": "colperm", "seed": 1.5})"), ParseError);
  EXPECT_THROW(makeMapper(R"({"mapper": "colperm", "restarts": 2.5})"), ParseError);
  EXPECT_THROW(makeMapper(R"({"mapper": "colperm", "seed": 9007199254740994})"), ParseError);
  EXPECT_THROW(makeMapper(R"({"mapper": "approx", "epsilon": 1.5})"), ParseError);
  EXPECT_THROW(makeMapper(R"([1, 2])"), ParseError);
}

TEST(MapperRegistry, RegistryMappersActuallyMap) {
  // Every preset must produce a working mapper on a clean crossbar.
  const FunctionMatrix fm =
      buildFunctionMatrix(parseSop("x1 x2 + !x2 x3 + x1 !x3"));
  const DefectMap clean(fm.rows(), fm.cols());
  const BitMatrix cm = crossbarMatrix(clean);
  for (const MapperPreset& preset : mapperPresets()) {
    const MappingResult result = preset.make()->map(fm, cm);
    EXPECT_TRUE(result.success) << preset.name;
    EXPECT_TRUE(verifyMapping(fm, cm, result)) << preset.name;
  }
}

}  // namespace
}  // namespace mcx
