#include "xbar/defects.hpp"

#include <gtest/gtest.h>

namespace mcx {
namespace {

TEST(DefectMap, StartsClean) {
  DefectMap map(4, 6);
  EXPECT_EQ(map.stuckOpenCount(), 0u);
  EXPECT_EQ(map.stuckClosedCount(), 0u);
  EXPECT_EQ(map.type(0, 0), DefectType::None);
}

TEST(DefectMap, SetAndQueryTypes) {
  DefectMap map(3, 3);
  map.setType(0, 1, DefectType::StuckOpen);
  map.setType(2, 2, DefectType::StuckClosed);
  EXPECT_EQ(map.type(0, 1), DefectType::StuckOpen);
  EXPECT_EQ(map.type(2, 2), DefectType::StuckClosed);
  EXPECT_TRUE(map.isStuckOpen(0, 1));
  EXPECT_TRUE(map.isStuckClosed(2, 2));
  map.setType(0, 1, DefectType::None);
  EXPECT_EQ(map.type(0, 1), DefectType::None);
}

TEST(DefectMap, PoisoningQueriesFollowStuckClosed) {
  DefectMap map(3, 4);
  map.setType(1, 2, DefectType::StuckClosed);
  EXPECT_TRUE(map.rowPoisoned(1));
  EXPECT_FALSE(map.rowPoisoned(0));
  EXPECT_TRUE(map.colPoisoned(2));
  EXPECT_FALSE(map.colPoisoned(3));
  // Stuck-open does not poison lines.
  map.setType(0, 0, DefectType::StuckOpen);
  EXPECT_FALSE(map.rowPoisoned(0));
  EXPECT_FALSE(map.colPoisoned(0));
}

TEST(CrossbarMatrix, CleanMapIsAllFunctional) {
  const DefectMap map(3, 5);
  const BitMatrix cm = crossbarMatrix(map);
  EXPECT_EQ(cm.count(), 15u);
}

TEST(CrossbarMatrix, StuckOpenClearsSingleCell) {
  DefectMap map(3, 3);
  map.setType(1, 1, DefectType::StuckOpen);
  const BitMatrix cm = crossbarMatrix(map);
  EXPECT_FALSE(cm.test(1, 1));
  EXPECT_EQ(cm.count(), 8u);
}

TEST(CrossbarMatrix, StuckClosedClearsRowAndColumn) {
  DefectMap map(4, 4);
  map.setType(1, 2, DefectType::StuckClosed);
  const BitMatrix cm = crossbarMatrix(map);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_FALSE(cm.test(1, c));
  for (std::size_t r = 0; r < 4; ++r) EXPECT_FALSE(cm.test(r, 2));
  EXPECT_EQ(cm.count(), 9u);  // 16 - 4 - 4 + 1
}

TEST(CrossbarMatrix, MatchesFig8Pattern) {
  // Build the Fig. 8(b) CM: 6x10 with specific stuck-open zeros.
  DefectMap map(6, 10);
  const std::pair<int, int> zeros[] = {{0, 1}, {0, 3}, {0, 8}, {2, 0}, {2, 1},
                                       {3, 1}, {3, 4}, {5, 3}, {5, 7}};
  for (const auto& [r, c] : zeros) map.setType(r, c, DefectType::StuckOpen);
  const BitMatrix cm = crossbarMatrix(map);
  EXPECT_EQ(cm.count(), 60u - 9u);
  EXPECT_FALSE(cm.test(0, 1));
  EXPECT_TRUE(cm.test(1, 1));
}

}  // namespace
}  // namespace mcx
