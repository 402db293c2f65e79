#include "assign/hopcroft_karp.hpp"

#include <gtest/gtest.h>

#include "assign/munkres.hpp"
#include "util/rng.hpp"

namespace mcx {
namespace {

TEST(HopcroftKarp, EmptyGraph) {
  const BitMatrix adj(3, 3);
  const MatchingResult r = hopcroftKarp(adj);
  EXPECT_EQ(r.size, 0u);
  EXPECT_FALSE(r.perfectForLeft(3));
}

TEST(HopcroftKarp, PerfectMatchingOnPermutation) {
  BitMatrix adj(4, 4);
  adj.set(0, 2);
  adj.set(1, 0);
  adj.set(2, 3);
  adj.set(3, 1);
  const MatchingResult r = hopcroftKarp(adj);
  EXPECT_EQ(r.size, 4u);
  EXPECT_TRUE(r.perfectForLeft(4));
  EXPECT_EQ(r.matchOfLeft, (std::vector<std::size_t>{2, 0, 3, 1}));
}

TEST(HopcroftKarp, AugmentingPathNeeded) {
  // 0-{0,1}, 1-{0}: greedy 0->0 must be undone.
  BitMatrix adj(2, 2);
  adj.set(0, 0);
  adj.set(0, 1);
  adj.set(1, 0);
  const MatchingResult r = hopcroftKarp(adj);
  EXPECT_EQ(r.size, 2u);
  EXPECT_EQ(r.matchOfLeft[0], 1u);
  EXPECT_EQ(r.matchOfLeft[1], 0u);
}

TEST(HopcroftKarp, DetectsHallViolation) {
  // Three left vertices share two right neighbors.
  BitMatrix adj(3, 3);
  for (std::size_t l = 0; l < 3; ++l) {
    adj.set(l, 0);
    adj.set(l, 1);
  }
  const MatchingResult r = hopcroftKarp(adj);
  EXPECT_EQ(r.size, 2u);
}

TEST(HopcroftKarp, RectangularRightSurplus) {
  BitMatrix adj(2, 5);
  adj.set(0, 4);
  adj.set(1, 4);
  adj.set(1, 2);
  const MatchingResult r = hopcroftKarp(adj);
  EXPECT_EQ(r.size, 2u);
  EXPECT_TRUE(r.perfectForLeft(2));
}

TEST(HopcroftKarp, AgreesWithMunkresFeasibilityOnRandom) {
  Rng rng(77);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniformInt(0, 8));
    BitMatrix adj(n, n);
    CostMatrix cost(n, n, 1);
    for (std::size_t l = 0; l < n; ++l)
      for (std::size_t r = 0; r < n; ++r)
        if (rng.bernoulli(0.35)) {
          adj.set(l, r);
          cost.at(l, r) = 0;
        }
    const bool hkPerfect = hopcroftKarp(adj).perfectForLeft(n);
    const bool munkresPerfect = munkresSolve(cost).cost == 0;
    EXPECT_EQ(hkPerfect, munkresPerfect) << "rep=" << rep;
  }
}

TEST(HopcroftKarp, PerfectOnCleanAdjacency) {
  // All-ones adjacency (the clean crossbar): the greedy seed alone is a
  // perfect matching and no augmentation phases run.
  const BitMatrix adj(70, 70, true);
  const MatchingResult r = hopcroftKarp(adj);
  EXPECT_TRUE(r.perfectForLeft(70));
  for (std::size_t l = 0; l < 70; ++l) EXPECT_EQ(r.matchOfLeft[l], l);
}

TEST(HopcroftKarp, MatchingIsConsistent) {
  Rng rng(78);
  BitMatrix adj(40, 50);
  for (std::size_t l = 0; l < 40; ++l)
    for (std::size_t r = 0; r < 50; ++r)
      if (rng.bernoulli(0.2)) adj.set(l, r);
  const MatchingResult m = hopcroftKarp(adj);
  std::vector<bool> rightUsed(50, false);
  std::size_t matched = 0;
  for (std::size_t l = 0; l < 40; ++l) {
    const std::size_t r = m.matchOfLeft[l];
    if (r == MatchingResult::kUnmatched) continue;
    ++matched;
    EXPECT_TRUE(adj.test(l, r));     // only real edges
    EXPECT_FALSE(rightUsed[r]);      // injective
    rightUsed[r] = true;
  }
  EXPECT_EQ(matched, m.size);
}

}  // namespace
}  // namespace mcx
