#include "map/matching.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "assign/hopcroft_karp.hpp"
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

TEST(VerifyMapping, RejectsAClearedRequiredBitInAnAssignedRow) {
  // A two-word FM (x40 sits past column 64): clearing any one required bit
  // of an assigned CM row rejects the claim, clearing a bit no assigned FM
  // row requires does not.
  const Cover cover = parseSop("x1 x40 + x2", 40);
  const FunctionMatrix fm = buildFunctionMatrix(cover);
  ASSERT_GT(fm.cols(), BitMatrix::kWordBits);
  const BitMatrix clean(fm.rows() + 1, fm.cols(), true);
  MappingResult claim;
  claim.success = true;
  claim.rowAssignment = {2, 0, 1};
  ASSERT_TRUE(verifyMapping(fm, clean, claim));
  for (std::size_t r = 0; r < fm.rows(); ++r) {
    for (std::size_t c = 0; c < fm.cols(); ++c) {
      BitMatrix cm = clean;
      cm.reset(claim.rowAssignment[r], c);
      EXPECT_EQ(verifyMapping(fm, cm, claim), !fm.bits().test(r, c))
          << "FM row " << r << ", column " << c;
    }
  }
  BitMatrix spareDefect = clean;
  spareDefect.setRow(fm.rows(), false);  // the unassigned CM row
  EXPECT_TRUE(verifyMapping(fm, spareDefect, claim));
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

TEST(FeasibleAssignment, DeadCmRowsBeyondSparesFailBeforeSolving) {
  // n FM rows on n + spares CM rows, k of them dead (all-zero columns): the
  // live CM rows cover every FM row's candidates, so k <= spares leaves the
  // verdict to Hopcroft-Karp and k > spares is Hall's size-1 failure.
  for (std::size_t n = 1; n <= 70; n += 23) {
    for (std::size_t spares = 0; spares <= 3; ++spares) {
      for (std::size_t k = 0; k <= spares + 2 && k <= n + spares; ++k) {
        BitMatrix adjacency(n, n + spares, true);
        for (std::size_t c = 0; c < k; ++c) adjacency.setCol((c * 7) % (n + spares), false);
        const FeasibleAssignment verdict = solveFeasibleAssignment(adjacency);
        EXPECT_EQ(verdict.success, k <= spares) << "n=" << n << " spares=" << spares << " k=" << k;
        EXPECT_EQ(verdict.success, hopcroftKarp(adjacency).perfectForLeft(n));
      }
    }
  }
  // Enough live CM rows but no perfect matching: the verdict is
  // Hopcroft-Karp's (two rows share one candidate).
  BitMatrix crowded(3, 3, false);
  crowded.set(0, 0);
  crowded.set(1, 0);
  crowded.set(2, 0);
  crowded.set(2, 1);
  crowded.set(2, 2);
  EXPECT_FALSE(solveFeasibleAssignment(crowded).success);
}

TEST(FeasibleAssignment, HallExitAgreesWithHopcroftKarp) {
  // Random rectangles with 0-3 spare columns and some dead columns. Where
  // the candidates cover at least as many columns as there are rows the
  // verdict and assignment are plain hopcroftKarp's; where they do not,
  // Hopcroft-Karp finds no perfect matching either.
  Rng rng(0x4a11);
  std::size_t fired = 0, solvedFailures = 0, successes = 0;
  for (int rep = 0; rep < 12000; ++rep) {
    const std::size_t n = 1 + rng.uniformInt(0, rep % 8 == 0 ? 139 : 19);
    const std::size_t m = n + rng.uniformInt(0, 3);
    const double density = 0.02 + 0.6 * rng.uniform();
    BitMatrix adjacency(n, m);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < m; ++j)
        if (rng.bernoulli(density)) adjacency.set(i, j);
    for (std::size_t dead = rng.uniformInt(0, 4); dead > 0; --dead)
      adjacency.setCol(rng.uniformInt(0, m - 1), false);

    std::size_t covered = 0;
    for (std::size_t j = 0; j < m; ++j) covered += adjacency.colCount(j) > 0 ? 1 : 0;
    const FeasibleAssignment verdict = solveFeasibleAssignment(adjacency);
    const MatchingResult hk = hopcroftKarp(adjacency);
    const std::string where = "rep=" + std::to_string(rep) + " " + std::to_string(n) + "x" +
                              std::to_string(m) + " covered=" + std::to_string(covered);
    if (covered < n) {
      ++fired;
      ASSERT_FALSE(verdict.success) << where;
      ASSERT_TRUE(verdict.assignment.empty()) << where;
      ASSERT_LT(hk.size, n) << where;
      continue;
    }
    ASSERT_EQ(verdict.success, hk.perfectForLeft(n)) << where;
    if (verdict.success) {
      ++successes;
      ASSERT_EQ(verdict.assignment, hk.matchOfLeft) << where;
    } else {
      ++solvedFailures;
      ASSERT_TRUE(verdict.assignment.empty()) << where;
    }
  }
  EXPECT_GT(fired, 1000u);
  EXPECT_GT(solvedFailures, 300u);
  EXPECT_GT(successes, 1000u);
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
  // CM rows span 1 to 18 adjacency words, so every compile-time block
  // width (1 to 16 words) and the two-block split past 1024 rows occur;
  // every fourth case takes a word-boundary or workload size.
  const std::size_t edgeRows[] = {64, 128, 192, 512, 513, 583, 1024, 1025, 1088};
  std::size_t poisoned = 0;
  std::vector<std::size_t> wordsSeen(19, 0);
  for (int rep = 0; rep < 240; ++rep) {
    const std::size_t fmRows = 1 + rng.uniformInt(0, 150);
    const std::size_t cols = rep % 40 == 0 ? 0 : 1 + rng.uniformInt(0, 138);
    const std::size_t cmRows =
        rep % 4 == 0 ? edgeRows[rep / 4 % 9] : 1 + rng.uniformInt(0, 1151);
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
  for (std::size_t words = 1; words <= 18; ++words)
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
