// Bit-identity regression against the committed grid BENCH files: every
// cell records the declaration it ran, and replaying it through the
// ExperimentBuilder facade must reproduce the committed success count
// exactly. This pins the whole chain — circuit registry -> synthesis
// pipeline -> memo cache -> builder -> config -> engine -> pre-split RNG
// streams -> sampler -> mapper — to the numbers every prior change has
// preserved: the multilevel legacy and sparse-sampler rows of
// BENCH_defect_mc.json, the Table II registry covers of
// BENCH_table2_defect_mc.json, and every model x rate cell of
// BENCH_scenarios.json.
#include <gtest/gtest.h>

#include "committed_bench.hpp"

namespace mcx {
namespace {

/// Replays the cells of @p file whose declaration passes @p keep; returns
/// how many were checked. Every replayed cell must declare a non-empty run
/// (a 0-sample cell would replay trivially) and, when it walks the rate
/// axis, a positive rate.
template <typename Keep>
std::size_t replayCells(const std::string& file, Keep keep) {
  const SpecValue doc = committed::load(file);
  EXPECT_TRUE(doc.boolOr("all_deterministic", false)) << file;
  std::size_t checked = 0;
  for (const SpecValue& cell : committed::cells(doc)) {
    const SpecValue& decl = committed::declaration(cell);
    if (!keep(decl)) continue;
    const std::string where = file + ": " + decl.stringOr("circuit", "") + " / " +
                              decl.stringOr("mapper", "") + " / " +
                              decl.stringOr("scenario", "");
    EXPECT_GT(decl.numberOr("samples", 0), 0.0) << where;
    const SpecValue* rate = decl.find("rate");
    if (rate != nullptr && rate->kind == SpecValue::Kind::Number) {
      EXPECT_GT(rate->number, 0.0) << where;
    }
    const ExperimentResult result = committed::replay(cell).run();
    EXPECT_EQ(result.outcome.successes, committed::successes(cell))
        << where << ": facade no longer reproduces the committed success count";
    EXPECT_EQ(result.area(), static_cast<std::size_t>(cell.find("result")->numberOr("area", 0)))
        << where;
    ++checked;
  }
  return checked;
}

bool scenarioIs(const SpecValue& decl, const std::string& scenario) {
  return decl.stringOr("scenario", "") == scenario;
}

TEST(BenchJsonRegression, BuilderReproducesCommittedLegacySuccessCounts) {
  // 4 circuits x {HBA, EA} legacy rows — fail loudly if the committed file
  // ever loses its regression surface.
  EXPECT_EQ(replayCells("BENCH_defect_mc.json",
                        [](const SpecValue& decl) { return scenarioIs(decl, "legacy"); }),
            8u);
}

TEST(BenchJsonRegression, SparseSamplerRowsReproduceCommittedCounts) {
  // The same 4 circuits x {HBA, EA} through the O(defects) sampler.
  EXPECT_EQ(replayCells("BENCH_defect_mc.json",
                        [](const SpecValue& decl) { return scenarioIs(decl, "paper-iid"); }),
            8u);
}

TEST(BenchJsonRegression, Table2ReproducesCommittedCounts) {
  // 16 Table II circuits x {HBA, EA}, each at the paper's setup: 200
  // samples of 10% i.i.d. stuck-open defects (the legacy draw).
  const SpecValue doc = committed::load("BENCH_table2_defect_mc.json");
  for (const SpecValue& cell : committed::cells(doc)) {
    const SpecValue& decl = committed::declaration(cell);
    ASSERT_EQ(decl.numberOr("samples", 0), 200.0);
    ASSERT_EQ(decl.stringOr("scenario", ""), "legacy");
    ASSERT_EQ(decl.numberOr("rate", 0), 0.10);
  }
  EXPECT_EQ(replayCells("BENCH_table2_defect_mc.json", [](const SpecValue&) { return true; }),
            32u);
}

TEST(BenchJsonRegression, ScenariosReproduceCommittedCounts) {
  // 2 circuits x 6 presets x 6 rates.
  EXPECT_EQ(replayCells("BENCH_scenarios.json", [](const SpecValue&) { return true; }), 72u);
}

}  // namespace
}  // namespace mcx
