#include "assign/munkres.hpp"

#include <gtest/gtest.h>

#include "oracles/brute_force_assign.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mcx {
namespace {

TEST(Munkres, TrivialSingleCell) {
  CostMatrix m(1, 1);
  m.at(0, 0) = 7;
  const auto r = munkresSolve(m);
  EXPECT_EQ(r.cost, 7);
  EXPECT_EQ(r.assignment, (std::vector<std::size_t>{0}));
}

TEST(Munkres, ClassicExample) {
  // Well-known 3x3 instance with optimum 5 (1+2+2? -> verify via brute force).
  CostMatrix m(3, 3);
  const int costs[3][3] = {{1, 2, 3}, {2, 4, 6}, {3, 6, 9}};
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) m.at(r, c) = costs[r][c];
  const auto exact = bruteForceAssign(m);
  const auto got = munkresSolve(m);
  EXPECT_EQ(got.cost, exact.cost);
}

TEST(Munkres, ZeroCostFeasibilityMatrix) {
  // 0/1 matching matrix in the paper's style: a perfect zero assignment
  // exists only along a specific permutation.
  CostMatrix m(3, 3, 1);
  m.at(0, 2) = 0;
  m.at(1, 0) = 0;
  m.at(2, 1) = 0;
  const auto r = munkresSolve(m);
  EXPECT_EQ(r.cost, 0);
  EXPECT_EQ(r.assignment, (std::vector<std::size_t>{2, 0, 1}));
}

TEST(Munkres, InfeasibleZeroCost) {
  // Two rows compete for the single zero column.
  CostMatrix m(2, 2, 1);
  m.at(0, 0) = 0;
  m.at(1, 0) = 0;
  const auto r = munkresSolve(m);
  EXPECT_EQ(r.cost, 1);
}

TEST(Munkres, RectangularLeavesColumnsFree) {
  CostMatrix m(2, 4, 5);
  m.at(0, 3) = 0;
  m.at(1, 1) = 0;
  const auto r = munkresSolve(m);
  EXPECT_EQ(r.cost, 0);
  EXPECT_EQ(r.assignment[0], 3u);
  EXPECT_EQ(r.assignment[1], 1u);
}

TEST(Munkres, RequiresRowsLeqCols) {
  CostMatrix m(3, 2);
  EXPECT_THROW(munkresSolve(m), InvalidArgument);
}

TEST(Munkres, MatchesBruteForceOnRandomSquare) {
  Rng rng(1);
  for (int rep = 0; rep < 100; ++rep) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniformInt(0, 4));
    CostMatrix m(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        m.at(r, c) = static_cast<std::int64_t>(rng.uniformInt(0, 20));
    const auto exact = bruteForceAssign(m);
    const auto got = munkresSolve(m);
    EXPECT_EQ(got.cost, exact.cost) << "rep=" << rep;
    // Assignment must be a valid injection with the reported cost.
    std::vector<bool> used(n, false);
    std::int64_t total = 0;
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_FALSE(used[got.assignment[r]]);
      used[got.assignment[r]] = true;
      total += m.at(r, got.assignment[r]);
    }
    EXPECT_EQ(total, got.cost);
  }
}

TEST(Munkres, MatchesBruteForceOnRandomRectangular) {
  Rng rng(2);
  for (int rep = 0; rep < 60; ++rep) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniformInt(0, 3));
    const std::size_t m_ = n + static_cast<std::size_t>(rng.uniformInt(0, 3));
    CostMatrix m(n, m_);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < m_; ++c)
        m.at(r, c) = static_cast<std::int64_t>(rng.uniformInt(0, 9));
    const auto exact = bruteForceAssign(m);
    const auto got = munkresSolve(m);
    EXPECT_EQ(got.cost, exact.cost) << "rep=" << rep;
  }
}

TEST(Munkres, LargeZeroOneFeasibility) {
  // Random sparse feasibility instances: Munkres finds zero cost iff a
  // perfect matching exists (checked by brute force on small instances).
  Rng rng(3);
  for (int rep = 0; rep < 60; ++rep) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniformInt(0, 4));
    CostMatrix m(n, n, 1);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        if (rng.bernoulli(0.4)) m.at(r, c) = 0;
    const auto exact = bruteForceAssign(m);
    const auto got = munkresSolve(m);
    EXPECT_EQ(got.cost == 0, exact.cost == 0) << "rep=" << rep;
  }
}

}  // namespace
}  // namespace mcx
