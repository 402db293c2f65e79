#include "map/column_permutation_mapper.hpp"

#include <gtest/gtest.h>

#include "logic/generators.hpp"
#include "map/greedy_mapper.hpp"
#include "logic/sop_parser.hpp"
#include "scenario/defect_model.hpp"
#include "xbar/defects.hpp"

namespace mcx {
namespace {

TEST(ColumnPermutationMapper, CleanCrossbarUsesIdentity) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1 x2 + !x3"));
  const BitMatrix cm(fm.rows(), fm.cols(), true);
  const MappingResult r = ColumnPermutationMapper().map(fm, cm);
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.inputPermutation.size(), 3u);
  for (std::size_t v = 0; v < 3; ++v) EXPECT_EQ(r.inputPermutation[v], v);
}

TEST(ColumnPermutationMapper, SolvesRowInfeasibleInstance) {
  // Product x1 occupies the only row where column x1 works... construct:
  // two products needing x1's positive rail but that rail is dead on all
  // rows except one. Row permutation alone cannot help; rerouting x1 to
  // pair 2 can.
  Cover c(2, 1);
  c.add(makeCube("10", "1"));  // x1 !x2
  c.add(makeCube("1-", "1"));  // x1
  const FunctionMatrix fm = buildFunctionMatrix(c);
  BitMatrix cm(fm.rows(), fm.cols(), true);
  // Kill x1's positive rail (col 0) on all but one row: two products both
  // need it -> row-permutation infeasible.
  cm.reset(1, fm.colOfPosLiteral(0));
  cm.reset(2, fm.colOfPosLiteral(0));
  EXPECT_FALSE(HybridMapper().map(fm, cm).success);

  const MappingResult r = ColumnPermutationMapper().map(fm, cm);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(verifyMapping(fm, cm, r));
  // x1 must have been rerouted to the other pair.
  EXPECT_EQ(r.inputPermutation[0], 1u);
}

TEST(ColumnPermutationMapper, ReportsFailureWhenTrulyInfeasible) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1 x2"));
  const BitMatrix cm(fm.rows(), fm.cols());  // all stuck-open
  ColumnPermutationOptions opts;
  opts.restarts = 5;
  EXPECT_FALSE(ColumnPermutationMapper(opts).map(fm, cm).success);
}

TEST(ColumnPermutationMapper, CustomInnerMapper) {
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1 + x2"));
  const BitMatrix cm(fm.rows(), fm.cols(), true);
  const ColumnPermutationMapper mapper({}, std::make_shared<GreedyMapper>());
  EXPECT_EQ(mapper.name(), "ColPerm+Greedy");
  EXPECT_TRUE(mapper.map(fm, cm).success);
}

TEST(ColumnPermutationMapper, StatisticallyBeatsPlainHybrid) {
  Rng rng(4242);
  RandomSopOptions opts;
  opts.nin = 6;
  opts.nout = 2;
  opts.products = 12;
  opts.literalsPerProduct = 4.0;
  const Cover cover = randomSop(opts, rng);
  const FunctionMatrix fm = buildFunctionMatrix(cover);
  std::size_t hbaWins = 0, colWins = 0;
  const HybridMapper hba;
  const ColumnPermutationMapper colPerm;
  for (int rep = 0; rep < 60; ++rep) {
    Rng sample = rng.split();
    const DefectMap defects = IidBernoulli(0.18).sample(fm.rows(), fm.cols(), sample);
    const BitMatrix cm = crossbarMatrix(defects);
    hbaWins += hba.map(fm, cm).success ? 1 : 0;
    const MappingResult r = colPerm.map(fm, cm);
    if (r.success) {
      ++colWins;
      EXPECT_TRUE(verifyMapping(fm, cm, r));
    }
  }
  EXPECT_GE(colWins, hbaWins);
}

}  // namespace
}  // namespace mcx
