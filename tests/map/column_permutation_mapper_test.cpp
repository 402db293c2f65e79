#include "map/column_permutation_mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>

#include "logic/generators.hpp"
#include "map/greedy_mapper.hpp"
#include "logic/sop_parser.hpp"
#include "scenario/defect_model.hpp"
#include "util/error.hpp"
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

// The input-permutation search as it was before spare pairs joined the
// mapper, with the permuted-FM construction it used: with no spare pair the
// mapper must make the same inner calls on the same FMs in the same order.
MappingResult referenceColPerm(const FunctionMatrix& fm, const BitMatrix& cm, const IMapper& inner,
                               const ColumnPermutationOptions& opts) {
  const auto permute = [&](const std::vector<std::size_t>& perm) {
    const BitMatrix& in = fm.bits();
    FunctionMatrix r(fm.nin(), fm.nout(), fm.numProductRows(), fm.numConnectionCols());
    for (std::size_t row = 0; row < fm.rows(); ++row) {
      for (std::size_t v = 0; v < fm.nin(); ++v) {
        if (in.test(row, fm.colOfPosLiteral(v))) r.bits().set(row, r.colOfPosLiteral(perm[v]));
        if (in.test(row, fm.colOfNegLiteral(v))) r.bits().set(row, r.colOfNegLiteral(perm[v]));
      }
      for (std::size_t c = 2 * fm.nin(); c < fm.cols(); ++c)
        if (in.test(row, c)) r.bits().set(row, c);
    }
    return r;
  };
  std::vector<std::size_t> perm(fm.nin());
  std::iota(perm.begin(), perm.end(), 0u);

  MappingResult best = inner.map(fm, cm);
  if (best.success) {
    best.inputPermutation = perm;  // identity, recorded for verifyMapping
    return best;
  }

  Rng rng(opts.seed);
  for (std::size_t attempt = 0; attempt < opts.restarts; ++attempt) {
    rng.shuffle(perm);
    const FunctionMatrix permuted = permute(perm);
    MappingResult r = inner.map(permuted, cm);
    best.backtracks += r.backtracks;
    if (r.success) {
      r.inputPermutation = perm;
      r.backtracks = best.backtracks;
      return r;
    }
  }
  return best;
}

TEST(ColumnPermutationMapper, ZeroSparesReplayTheInputPermutationSearch) {
  Rng rng(0xc01);
  std::size_t restartWins = 0, failures = 0;
  for (int rep = 0; rep < 300; ++rep) {
    RandomSopOptions sop;
    sop.nin = 3 + rng.uniformInt(0, 4);
    sop.nout = 1 + rng.uniformInt(0, 2);
    sop.products = 4 + rng.uniformInt(0, 8);
    const FunctionMatrix fm = buildFunctionMatrix(randomSop(sop, rng));
    // Spare rows only: a taller CM, no wider, so no pair choice.
    const IidBernoulli model(0.08 + 0.04 * (rep % 4), rep % 5 == 0 ? 0.005 : 0.0);
    DefectMap defects;
    DirtyRows dirty;
    model.generateTracked(fm.rows() + rng.uniformInt(0, 2), fm.cols(), rng, defects, dirty);
    const BitMatrix cm = crossbarMatrix(defects);
    const ColumnPermutationOptions opts{8, static_cast<std::uint64_t>(rep)};
    for (const std::shared_ptr<const IMapper>& inner :
         {std::shared_ptr<const IMapper>(std::make_shared<HybridMapper>()),
          std::shared_ptr<const IMapper>(std::make_shared<GreedyMapper>())}) {
      const MappingResult want = referenceColPerm(fm, cm, *inner, opts);
      MappingContext engineCtx;  // the engine's path: incremental adjacency
      engineCtx.setSample(&defects, &dirty);
      const ColumnPermutationMapper mapper(opts, inner);
      for (const MappingResult& got : {mapper.map(fm, cm), mapper.map(fm, cm, engineCtx)}) {
        EXPECT_EQ(got.success, want.success) << rep;
        EXPECT_EQ(got.rowAssignment, want.rowAssignment) << rep;
        EXPECT_EQ(got.inputPermutation, want.inputPermutation) << rep;
        EXPECT_EQ(got.backtracks, want.backtracks) << rep;
        EXPECT_TRUE(got.outputPairs.empty()) << rep;
      }
      const std::vector<std::size_t>& pairs = want.inputPermutation;
      if (!want.success) ++failures;
      if (want.success && !std::is_sorted(pairs.begin(), pairs.end())) ++restartWins;
    }
  }
  EXPECT_GT(restartWins, 0u);  // all three exits are exercised
  EXPECT_GT(failures, 0u);
}

// RedundantMapper: colperm on a crossbar with spare rows and pairs.

FunctionMatrix testFm() { return buildFunctionMatrix(parseSop("x1 x2 + !x2 x3 + x1 x3")); }

/// testFm() mapped on its redundant crossbar after @p damage; a claimed
/// success must verify through its pair choice.
MappingResult mapRedundant(const RedundantCrossbarSpec& spares,
                           const std::function<void(DefectMap&)>& damage = {}) {
  const FunctionMatrix fm = testFm();
  const CrossbarDims dims = redundantDims(fm, spares);
  DefectMap defects(dims.rows, dims.cols);
  if (damage) damage(defects);
  const BitMatrix cm = crossbarMatrix(defects);
  MappingContext ctx;
  ctx.setSpares(spares);
  const MappingResult r = ColumnPermutationMapper().map(fm, cm, ctx);
  EXPECT_TRUE(!r.success || verifyMapping(fm, cm, r, spares));
  return r;
}

/// Sticks column @p col open on every row.
std::function<void(DefectMap&)> deadColumn(std::size_t col) {
  return [col](DefectMap& d) {
    for (std::size_t r = 0; r < d.rows(); ++r) d.setType(r, col, DefectType::StuckOpen);
  };
}

TEST(RedundantDims, AddsSparesToGeometry) {
  const FunctionMatrix fm = testFm();
  const CrossbarDims dims = redundantDims(fm, {2, 1, 1});
  EXPECT_EQ(dims.rows, fm.rows() + 2);
  EXPECT_EQ(dims.cols, 2 * (fm.nin() + 1) + 2 * (fm.nout() + 1));
}

TEST(RedundantMapper, CleanCrossbarMaps) {
  const MappingResult r = mapRedundant({1, 1, 1});
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.inputPermutation, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(r.outputPairs, (std::vector<std::size_t>{0}));
}

TEST(RedundantMapper, WrongDefectDimensionsThrow) {
  const FunctionMatrix fm = testFm();
  MappingContext ctx;
  ctx.setSpares({1, 1, 0});
  const BitMatrix cm(fm.rows() + 1, fm.cols(), true);  // missing the spare pair
  EXPECT_THROW(ColumnPermutationMapper().map(fm, cm, ctx), InvalidArgument);
  // Without a context the mapper assumes no spare pairs.
  EXPECT_THROW(ColumnPermutationMapper().map(fm, BitMatrix(fm.rows(), fm.cols() + 2, true)),
               InvalidArgument);
}

TEST(RedundantMapper, SpareRowAbsorbsStuckClosedRow) {
  // A wholly stuck-open row is unusable like a poisoned one, but leaves
  // every column intact: the spare row takes its place.
  EXPECT_TRUE(mapRedundant({1, 0, 0}, [](DefectMap& d) {
                for (std::size_t c = 0; c < d.cols(); ++c) d.setType(0, c, DefectType::StuckOpen);
              }).success);
}

TEST(RedundantMapper, SpareInputPairAbsorbsDeadColumn) {
  // Every variable needs its positive rail, and pair 0's is dead: the
  // least-defective choice skips pair 0. Likewise a dead !O1 moves O1 to
  // the spare output pair.
  const FunctionMatrix fm = testFm();
  const RedundantCrossbarSpec in{0, 1, 0}, out{0, 0, 1};
  const MappingResult r = mapRedundant(in, deadColumn(fm.inputPairColumns(in, 0).first));
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.inputPermutation, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_TRUE(r.outputPairs.empty());
  const MappingResult o = mapRedundant(out, deadColumn(fm.outputPairColumns(out, 0).second));
  ASSERT_TRUE(o.success);
  EXPECT_EQ(o.outputPairs, (std::vector<std::size_t>{1}));
}

TEST(RedundantMapper, FailsWithoutNeededSpares) {
  // Stuck-closed poisons a row AND a column; with zero spares the row loss
  // alone is fatal on an optimum-size crossbar.
  EXPECT_FALSE(
      mapRedundant({0, 0, 0}, [](DefectMap& d) { d.setType(0, 0, DefectType::StuckClosed); })
          .success);
}

TEST(RedundantMapper, StuckClosedToleratedWithFullSpares) {
  // Kills row 0 and pair 0's positive rail: a spare row and pair absorb it.
  EXPECT_TRUE(
      mapRedundant({1, 1, 1}, [](DefectMap& d) { d.setType(0, 0, DefectType::StuckClosed); })
          .success);
}

}  // namespace
}  // namespace mcx
