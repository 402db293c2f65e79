#include "map/matching.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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
  const CostMatrix m = buildMatchingMatrix(buildCandidateAdjacency(fm, cm));
  EXPECT_EQ(m.at(0, 0), 1);
  EXPECT_EQ(m.at(0, 1), 0);
  EXPECT_EQ(m.at(1, 0), 0);
  EXPECT_EQ(m.at(1, 1), 0);
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
  // Empty rows are subsets of anything.
  const BitMatrix fm(3, 0), cm(4, 0);
  EXPECT_EQ(buildCandidateAdjacency(fm, cm).count(), 3u * 4u);
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

// --- The one candidate-adjacency kernel -------------------------------------

/// Per-pair reference: bit (i, j) set iff rowMatches(fm, i, cm, j).
BitMatrix rowMatchesAdjacency(const BitMatrix& fm, const BitMatrix& cm) {
  BitMatrix reference(fm.rows(), cm.rows());
  for (std::size_t i = 0; i < fm.rows(); ++i)
    for (std::size_t j = 0; j < cm.rows(); ++j)
      if (rowMatches(fm, i, cm, j)) reference.set(i, j);
  return reference;
}

TEST(CandidateAdjacency, MatchesRowMatchesOnEngineSamples) {
  // Both entry points against the per-pair rule, bit for bit (BitMatrix ==
  // compares whole words, padding included), on CMs drawn the engine's way:
  // model.generate, then crossbarMatrixInto with its stuck-closed row and
  // column poisoning. One context serves every case, one FM object is
  // mutated in place, and each shape gets a second sample, so a stale
  // reused buffer would show.
  Rng rng(53);
  MappingContext ctx;
  BitMatrix fm, cm;
  DefectMap defects;
  std::size_t poisoned = 0;
  std::vector<std::size_t> wordsSeen(4, 0);
  for (int rep = 0; rep < 240; ++rep) {
    const std::size_t fmRows = 1 + rng.uniformInt(0, 150);
    const std::size_t cols = rep % 40 == 0 ? 0 : 1 + rng.uniformInt(0, 138);
    const std::size_t cmRows =
        rep % 4 == 0 ? 64 * (1 + rep / 4 % 3) : 1 + rng.uniformInt(0, 191);
    fm.reshape(fmRows, cols);
    const double density = 0.02 + 0.2 * rng.uniform();
    for (std::size_t r = 0; r < fmRows; r += 1 + r % 3)  // skipped rows stay empty
      for (std::size_t c = 0; c < cols; ++c)
        if (rng.bernoulli(density)) fm.set(r, c);
    const double open = 0.3 * rng.uniform();
    const double closed = rep % 2 == 0 ? 0.05 * rng.uniform() : 0.0;
    const auto drawCm = [&] {
      if (rep % 3 == 0)
        IidBernoulli(open, closed).generate(cmRows, cols, rng, defects);
      else
        SparseIidBernoulli(open, closed).generate(cmRows, cols, rng, defects);
      crossbarMatrixInto(defects, cm);
      if (defects.stuckClosedCount() > 0) ++poisoned;
    };
    const std::string where = "rep=" + std::to_string(rep) + " fm=" + std::to_string(fmRows) +
                              "x" + std::to_string(cols) + " cm rows=" + std::to_string(cmRows);
    ++wordsSeen[(cmRows + 63) / 64];

    drawCm();
    const BitMatrix reference = rowMatchesAdjacency(fm, cm);
    ASSERT_EQ(buildCandidateAdjacency(fm, cm), reference) << where;
    ASSERT_EQ(ctx.candidateAdjacency(fm, cm), reference) << where;

    for (int flip = 0; flip < 8 && cols > 0; ++flip) {
      const std::size_t r = rng.uniformInt(0, fmRows - 1);
      const std::size_t c = rng.uniformInt(0, cols - 1);
      fm.set(r, c, !fm.test(r, c));
    }
    ASSERT_EQ(ctx.candidateAdjacency(fm, cm), rowMatchesAdjacency(fm, cm))
        << where << ", FM mutated in place";

    drawCm();
    ASSERT_EQ(ctx.candidateAdjacency(fm, cm), rowMatchesAdjacency(fm, cm))
        << where << ", next sample of the same shape";
  }
  EXPECT_GT(poisoned, 0u);
  for (std::size_t words = 1; words <= 3; ++words)
    EXPECT_GT(wordsSeen[words], 0u) << words << "-word adjacency rows";
}


// --- MappingContext: reused buffers ------------------------------------------

TEST(MappingContext, IncrementalAdjacencyBitIdenticalToFullRebuild) {
  // The context's reused-buffer build must agree with a fresh
  // buildCandidateAdjacency on every sample — including stuck-closed
  // poisoning, empty FM rows, and dimensions straddling word boundaries —
  // while the same context serves shapes that grow and shrink.
  Rng rng(53);
  MappingContext ctx;
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
    DefectMap defects;
    IidBernoulli(open, closed).generate(cmRows, cols, rng, defects);
    BitMatrix cm;
    crossbarMatrixInto(defects, cm);

    const BitMatrix full = buildCandidateAdjacency(fm, cm);
    ASSERT_EQ(full, ctx.candidateAdjacency(fm, cm))
        << "rep=" << rep << " fm=" << fmRows << "x" << cols
        << " closed=" << defects.stuckClosedCount();
  }
}

TEST(MappingContext, RebindsWhenFmContentChangesAtTheSameAddress) {
  // The worst case for a reused context is the same FM object mutated in
  // place (or a new FM reallocated at the old one's address): nothing
  // derived from the previous FM may be served again.
  Rng rng(61);
  DefectMap defects;
  IidBernoulli(0.2, 0.02).generate(8, 40, rng, defects);
  BitMatrix cm;
  crossbarMatrixInto(defects, cm);
  BitMatrix fm(6, 40);
  for (std::size_t c = 0; c < 40; c += 3) fm.set(1, c);
  MappingContext ctx;
  EXPECT_EQ(ctx.candidateAdjacency(fm, cm), buildCandidateAdjacency(fm, cm));
  // Same address, same dims, different bits: the context must notice.
  for (std::size_t c = 0; c < 40; c += 2) fm.set(4, c);
  fm.reset(1, 0);
  EXPECT_EQ(ctx.candidateAdjacency(fm, cm), buildCandidateAdjacency(fm, cm));
}

}  // namespace
}  // namespace mcx
