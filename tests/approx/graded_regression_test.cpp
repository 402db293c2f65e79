// Graded-path regression anchors.
//
// (1) The eps = 0 bit-identity anchor: re-running the committed
// BENCH_defect_mc.json workloads through the GRADED path (errorBudget(0))
// must reproduce the committed success counts exactly, with zero rescues —
// graded acceptance is a strict generalization of pass/fail, and a zero
// budget must collapse to the classical verdict bit-for-bit.
//
// (2) The committed BENCH_approx.json pin: the file's structural invariants
// (monotone yield curves, yield(0) == exact successes, nonzero rescues) are
// re-asserted, and one cell is re-derived from scratch and compared
// bit-exactly, so the graded engine + approx mapper + NN generator chain
// cannot drift silently.
#include <gtest/gtest.h>

#include <string>

#include "committed_bench.hpp"

namespace mcx {
namespace {

TEST(ApproxTestGradedAnchor, ZeroBudgetReproducesCommittedPassFailCounts) {
  const SpecValue doc = committed::load("BENCH_defect_mc.json");
  std::size_t checked = 0;
  for (const SpecValue& cell : committed::cells(doc)) {
    const SpecValue& decl = committed::declaration(cell);
    if (decl.stringOr("scenario", "") != "legacy") continue;
    const std::string label = decl.stringOr("circuit", "") + " / " + decl.stringOr("mapper", "");
    const std::size_t committedCount = committed::successes(cell);

    const ExperimentResult result = committed::replay(cell).errorBudget(0.0).run();
    EXPECT_TRUE(result.graded);
    EXPECT_EQ(result.outcome.successes, committedCount)
        << label << ": graded run changed the exact verdict";
    EXPECT_EQ(result.outcome.epsilonAccepted, committedCount)
        << label << ": eps=0 acceptance must equal pass/fail";
    EXPECT_EQ(result.outcome.rescued, 0u) << label;
    ++checked;
  }
  EXPECT_EQ(checked, 8u);
}

TEST(ApproxTestBenchPin, CommittedApproxJsonInvariantsHold) {
  const SpecValue doc = committed::load("BENCH_approx.json");
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.stringOr("bench", ""), "ablation-approx");
  EXPECT_EQ(doc.numberOr("yield_zero_mismatches", -1), 0.0);
  EXPECT_EQ(doc.numberOr("monotonicity_violations", -1), 0.0);
  EXPECT_GT(doc.numberOr("total_rescued", 0), 0.0)
      << "the committed run must show real rescues";

  const SpecValue* grid = doc.find("epsilon_grid");
  ASSERT_NE(grid, nullptr);
  ASSERT_GE(grid->array.size(), 2u);
  EXPECT_EQ(grid->array.front().number, 0.0);

  const SpecValue* cells = doc.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_FALSE(cells->array.empty());
  for (const SpecValue& cell : cells->array) {
    const SpecValue* curve = cell.find("yield");
    ASSERT_NE(curve, nullptr) << cell.stringOr("circuit", "?");
    ASSERT_EQ(curve->array.size(), grid->array.size());
    // yield(0) == exact successes, and the curve is monotone.
    EXPECT_EQ(curve->array.front().number, cell.numberOr("successes", -1))
        << cell.stringOr("circuit", "?");
    for (std::size_t i = 1; i < curve->array.size(); ++i)
      EXPECT_GE(curve->array[i].number, curve->array[i - 1].number)
          << cell.stringOr("circuit", "?") << " step " << i;
  }
}

TEST(ApproxTestBenchPin, RederivesOneCommittedCellBitExactly) {
  const SpecValue doc = committed::load("BENCH_approx.json");
  ASSERT_TRUE(doc.isObject());
  const auto samples = static_cast<std::size_t>(doc.numberOr("samples", 0));
  const auto seed = static_cast<std::uint64_t>(doc.numberOr("seed", 0));
  ASSERT_GT(samples, 0u);
  const SpecValue* grid = doc.find("epsilon_grid");
  ASSERT_NE(grid, nullptr);

  const SpecValue* cells = doc.find("cells");
  ASSERT_NE(cells, nullptr);
  const SpecValue* pinned = nullptr;
  for (const SpecValue& cell : cells->array)
    if (cell.stringOr("circuit", "") == "rd53-min" && cell.numberOr("rate", 0) == 0.15)
      pinned = &cell;
  ASSERT_NE(pinned, nullptr) << "committed rd53-min @ 15% cell missing";

  const ExperimentResult result =
      ExperimentBuilder()
          .circuit("rd53-min")
          .mapper(R"({"mapper": "approx", "inner": "fast-ea", "epsilon": 1.0})")
          .legacyRates(0.15)
          .samples(samples)
          .seed(seed)
          .errorBudget(1.0)
          .keepMappings(true)
          .run();
  EXPECT_EQ(result.outcome.successes,
            static_cast<std::size_t>(pinned->numberOr("successes", -1)));
  EXPECT_EQ(result.outcome.rescued,
            static_cast<std::size_t>(pinned->numberOr("rescued", -1)));

  const SpecValue* curve = pinned->find("yield");
  ASSERT_NE(curve, nullptr);
  ASSERT_EQ(curve->array.size(), grid->array.size());
  for (std::size_t i = 0; i < grid->array.size(); ++i) {
    const double eps = grid->array[i].number;
    std::size_t ok = 0;
    for (const MappingResult& m : result.outcome.mappings)
      if (m.realizedErrorOrBinary() <= eps) ++ok;
    EXPECT_EQ(ok, static_cast<std::size_t>(curve->array[i].number))
        << "yield(" << eps << ") drifted from the committed curve";
  }
}

}  // namespace
}  // namespace mcx
