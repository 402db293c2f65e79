#include "map/matching.hpp"

#include <gtest/gtest.h>

#include "logic/sop_parser.hpp"
#include "scenario/defect_model.hpp"
#include "util/rng.hpp"

namespace mcx {
namespace {

TEST(RowMatching, RequiredOneNeedsFunctionalCell) {
  BitMatrix fm(1, 4), cm(2, 4, true);
  fm.set(0, 2);
  EXPECT_TRUE(rowMatches(fm, 0, cm, 0));
  cm.reset(1, 2);
  EXPECT_FALSE(rowMatches(fm, 0, cm, 1));
}

TEST(RowMatching, ZerosMatchAnything) {
  BitMatrix fm(1, 4), cm(1, 4);  // CM fully stuck-open
  EXPECT_TRUE(rowMatches(fm, 0, cm, 0));
}

TEST(MatchingMatrix, ZeroMeansCompatible) {
  BitMatrix fm(2, 3), cm(2, 3, true);
  fm.set(0, 0);
  fm.set(1, 2);
  cm.reset(0, 0);  // kills fm row 0 on cm row 0
  const CostMatrix m = buildMatchingMatrix(fm, {0, 1}, cm, {0, 1});
  EXPECT_EQ(m.at(0, 0), 1);
  EXPECT_EQ(m.at(0, 1), 0);
  EXPECT_EQ(m.at(1, 0), 0);
  EXPECT_EQ(m.at(1, 1), 0);
}

TEST(MatchingMatrix, RowSubsets) {
  BitMatrix fm(3, 2), cm(3, 2, true);
  fm.set(2, 1);
  cm.reset(0, 1);
  const CostMatrix m = buildMatchingMatrix(fm, {2}, cm, {0, 2});
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.at(0, 0), 1);
  EXPECT_EQ(m.at(0, 1), 0);
}

TEST(VerifyMapping, AcceptsValidRejectsInvalid) {
  const Cover cover = parseSop("x1 + x2");
  const FunctionMatrix fm = buildFunctionMatrix(cover);
  BitMatrix cm(3, fm.cols(), true);

  MappingResult ok;
  ok.success = true;
  ok.rowAssignment = {0, 1, 2};
  EXPECT_TRUE(verifyMapping(fm, cm, ok));

  MappingResult dup = ok;
  dup.rowAssignment = {0, 0, 1};
  EXPECT_FALSE(verifyMapping(fm, cm, dup));

  MappingResult wrongSize = ok;
  wrongSize.rowAssignment = {0, 1};
  EXPECT_FALSE(verifyMapping(fm, cm, wrongSize));

  MappingResult notSuccess = ok;
  notSuccess.success = false;
  EXPECT_FALSE(verifyMapping(fm, cm, notSuccess));

  cm.reset(1, fm.colOfPosLiteral(0));  // row 1 cannot host product x1 (row 0)
  MappingResult broken = ok;
  broken.rowAssignment = {1, 0, 2};
  EXPECT_FALSE(verifyMapping(fm, cm, broken));
}

TEST(VerifyMapping, HonorsInputPermutation) {
  const Cover cover = parseSop("x1", 2);
  const FunctionMatrix fm = buildFunctionMatrix(cover);
  BitMatrix cm(2, fm.cols(), true);
  cm.reset(0, fm.colOfPosLiteral(0));  // x1's own column is dead on row 0

  MappingResult direct;
  direct.success = true;
  direct.rowAssignment = {0, 1};
  EXPECT_FALSE(verifyMapping(fm, cm, direct));

  MappingResult permuted = direct;
  permuted.inputPermutation = {1, 0};  // route x1 through pair 1
  EXPECT_TRUE(verifyMapping(fm, cm, permuted));

  // A malformed pair choice is a rejected claim, not an exception.
  MappingResult shared = direct;
  shared.inputPermutation = {1, 1};
  EXPECT_FALSE(verifyMapping(fm, cm, shared));
  shared.inputPermutation = {0, 2};
  EXPECT_FALSE(verifyMapping(fm, cm, shared));
}

TEST(CandidateAdjacency, AgreesWithRowMatches) {
  Rng rng(21);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t rows = 3 + rep % 5;
    const std::size_t cols = 70;  // multi-word rows
    BitMatrix fm(rows, cols), cm(rows + 2, cols);
    for (std::size_t r = 0; r < fm.rows(); ++r)
      for (std::size_t c = 0; c < cols; ++c) fm.set(r, c, rng.bernoulli(0.2));
    for (std::size_t r = 0; r < cm.rows(); ++r)
      for (std::size_t c = 0; c < cols; ++c) cm.set(r, c, rng.bernoulli(0.8));
    const BitMatrix adjacency = buildCandidateAdjacency(fm, cm);
    ASSERT_EQ(adjacency.rows(), fm.rows());
    ASSERT_EQ(adjacency.cols(), cm.rows());
    for (std::size_t i = 0; i < fm.rows(); ++i)
      for (std::size_t j = 0; j < cm.rows(); ++j)
        EXPECT_EQ(adjacency.test(i, j), rowMatches(fm, i, cm, j));
  }
}

TEST(MatchingMatrix, AdjacencyOverloadMatchesDirectConstruction) {
  Rng rng(5);
  BitMatrix fm(4, 9), cm(6, 9);
  for (std::size_t r = 0; r < fm.rows(); ++r)
    for (std::size_t c = 0; c < fm.cols(); ++c) fm.set(r, c, rng.bernoulli(0.3));
  for (std::size_t r = 0; r < cm.rows(); ++r)
    for (std::size_t c = 0; c < cm.cols(); ++c) cm.set(r, c, rng.bernoulli(0.7));
  std::vector<std::size_t> fmRows{0, 1, 2, 3}, cmRows{0, 1, 2, 3, 4, 5};
  const CostMatrix direct = buildMatchingMatrix(fm, fmRows, cm, cmRows);
  const CostMatrix viaAdj =
      buildMatchingMatrix(buildCandidateAdjacency(fm, fmRows, cm, cmRows));
  ASSERT_EQ(direct.rows(), viaAdj.rows());
  ASSERT_EQ(direct.cols(), viaAdj.cols());
  for (std::size_t i = 0; i < direct.rows(); ++i)
    for (std::size_t j = 0; j < direct.cols(); ++j)
      EXPECT_EQ(direct.at(i, j), viaAdj.at(i, j));
}

TEST(FeasibleAssignment, HopcroftKarpAgreesWithMunkresOnRandomMatrices) {
  // Property: on a random 0/1 adjacency, the Hopcroft-Karp fast path reports
  // feasible exactly when Munkres finds a zero-cost assignment.
  Rng rng(31337);
  for (int rep = 0; rep < 300; ++rep) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniformInt(0, 7));
    const std::size_t m = n + static_cast<std::size_t>(rng.uniformInt(0, 4));
    const double density = 0.1 + 0.8 * rng.uniform();
    BitMatrix adjacency(n, m);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < m; ++j)
        if (rng.bernoulli(density)) adjacency.set(i, j);

    const FeasibleAssignment fast = solveFeasibleAssignment(adjacency);
    const AssignmentResult exact = munkresSolve(buildMatchingMatrix(adjacency));
    EXPECT_EQ(fast.success, exact.cost == 0) << "rep=" << rep;

    if (fast.success) {
      // The returned assignment must be a valid system of distinct
      // representatives over set adjacency bits.
      ASSERT_EQ(fast.assignment.size(), n);
      std::vector<bool> used(m, false);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_LT(fast.assignment[i], m);
        EXPECT_TRUE(adjacency.test(i, fast.assignment[i])) << "rep=" << rep;
        EXPECT_FALSE(used[fast.assignment[i]]) << "rep=" << rep;
        used[fast.assignment[i]] = true;
      }
    }
  }
}

TEST(CandidateAdjacency, ZeroColumnRowsFitEverything) {
  // Empty rows are subsets of anything: both overloads must agree.
  const BitMatrix fm(3, 0), cm(4, 0);
  const BitMatrix full = buildCandidateAdjacency(fm, cm);
  EXPECT_EQ(full.count(), 3u * 4u);
  const BitMatrix subset = buildCandidateAdjacency(fm, {0, 2}, cm, {1, 3});
  EXPECT_EQ(subset.count(), 2u * 2u);
}

TEST(FeasibleAssignment, EmptyRowFailsBeforeSolving) {
  BitMatrix adjacency(3, 4, true);
  adjacency.setRow(1, false);
  EXPECT_FALSE(solveFeasibleAssignment(adjacency).success);
}

TEST(FeasibleAssignment, MoreRowsThanColumnsIsInfeasible) {
  const BitMatrix adjacency(4, 3, true);
  EXPECT_FALSE(solveFeasibleAssignment(adjacency).success);
}

// --- MappingContext: incremental adjacency ---------------------------------

TEST(MappingContext, IncrementalAdjacencyBitIdenticalToFullRebuild) {
  // The context's defect-driven rebuild must agree with the full
  // word-parallel fit-test build on every sample — including stuck-closed
  // poisoning, empty FM rows, and dimensions straddling word boundaries.
  Rng rng(53);
  for (int rep = 0; rep < 400; ++rep) {
    const std::size_t fmRows = 1 + rng.uniformInt(0, 40);
    const std::size_t cols = 1 + rng.uniformInt(0, 130);
    const std::size_t cmRows = fmRows + rng.uniformInt(0, 8);
    BitMatrix fm(fmRows, cols);
    for (std::size_t r = 0; r < fmRows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        if (rng.bernoulli(0.1)) fm.set(r, c);  // leaves some rows all-zero
    const double open = rng.uniform() * 0.3;
    const double closed = rng.bernoulli(0.5) ? rng.uniform() * 0.05 : 0.0;
    const IidBernoulli model(open, closed);
    DefectMap defects;
    DirtyRows dirty;
    model.generateTracked(cmRows, cols, rng, defects, dirty);
    BitMatrix cm;
    crossbarMatrixInto(defects, cm);

    const BitMatrix full = buildCandidateAdjacency(fm, cm);
    MappingContext ctx;
    ctx.setSample(&defects, &dirty);
    const BitMatrix& incremental = ctx.candidateAdjacency(fm, cm);
    ASSERT_EQ(full, incremental) << "rep=" << rep << " fm=" << fmRows << "x" << cols
                                 << " closed=" << defects.stuckClosedCount();
  }
}

TEST(MappingContext, UnregisteredSampleFallsBackToFullRebuild) {
  BitMatrix fm(3, 10), cm(4, 10, true);
  fm.set(0, 7);
  cm.reset(2, 7);
  MappingContext ctx;  // no setSample
  const BitMatrix& adjacency = ctx.candidateAdjacency(fm, cm);
  EXPECT_EQ(adjacency, buildCandidateAdjacency(fm, cm));
}

TEST(MappingContext, MarkAllDirtyRowsForceFullRebuild) {
  Rng rng(57);
  const IidBernoulli model(0.15, 0.0);
  DefectMap defects = model.sample(6, 20, rng);
  BitMatrix cm;
  crossbarMatrixInto(defects, cm);
  BitMatrix fm(5, 20);
  fm.set(1, 3);
  fm.set(4, 17);
  DirtyRows dirty;
  dirty.markAll();
  MappingContext ctx;
  ctx.setSample(&defects, &dirty);
  EXPECT_EQ(ctx.candidateAdjacency(fm, cm), buildCandidateAdjacency(fm, cm));
}

TEST(MappingContext, RebindsWhenFmContentChangesAtTheSameAddress) {
  // The per-FM column index is keyed on (address, dims, content hash): the
  // worst case for an address-only key is the same object mutated in place
  // (or a new FM reallocated at the old one's address), where a stale index
  // would be served silently.
  Rng rng(61);
  const IidBernoulli model(0.2, 0.02);
  DefectMap defects;
  DirtyRows dirty;
  model.generateTracked(8, 40, rng, defects, dirty);
  BitMatrix cm;
  crossbarMatrixInto(defects, cm);
  BitMatrix fm(6, 40);
  for (std::size_t c = 0; c < 40; c += 3) fm.set(1, c);
  MappingContext ctx;
  ctx.setSample(&defects, &dirty);
  EXPECT_EQ(ctx.candidateAdjacency(fm, cm), buildCandidateAdjacency(fm, cm));
  // Same address, same dims, different bits: the context must notice.
  for (std::size_t c = 0; c < 40; c += 2) fm.set(4, c);
  fm.reset(1, 0);
  EXPECT_EQ(ctx.candidateAdjacency(fm, cm), buildCandidateAdjacency(fm, cm));
}

}  // namespace
}  // namespace mcx
