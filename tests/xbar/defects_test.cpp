#include "xbar/defects.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "scenario/defect_model.hpp"
#include "util/rng.hpp"

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

TEST(CrossbarMatrix, IntoMatchesPerBitRuleOnReusedBuffer) {
  // One CM buffer serves every sample while shapes grow and shrink across
  // word boundaries, with stuck-open-only, mixed and closed-heavy maps: the
  // derived CM must equal the per-bit rule, padding included, so neither a
  // stale row of the buffer nor a stale column mask can show through.
  Rng rng(71);
  DefectMap defects;
  BitMatrix cm;
  std::size_t poisoned = 0, openOnly = 0;
  for (int rep = 0; rep < 300; ++rep) {
    const std::size_t rows = 1 + rng.uniformInt(0, rep % 2 == 0 ? 300 : 40);
    const std::size_t cols = 1 + rng.uniformInt(0, rep % 3 == 0 ? 200 : 70);
    const double open = 0.3 * rng.uniform();
    const double closed = rep % 3 == 0 ? 0.0 : rep % 3 == 1 ? 0.002 : 0.05 * rng.uniform();
    IidBernoulli(open, closed).generate(rows, cols, rng, defects);
    crossbarMatrixInto(defects, cm);
    if (defects.stuckClosedCount() > 0)
      ++poisoned;
    else
      ++openOnly;

    std::vector<bool> rowBad(rows), colBad(cols);
    for (std::size_t r = 0; r < rows; ++r) rowBad[r] = defects.rowPoisoned(r);
    for (std::size_t c = 0; c < cols; ++c) colBad[c] = defects.colPoisoned(c);
    BitMatrix reference(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        if (!defects.isStuckOpen(r, c) && !rowBad[r] && !colBad[c]) reference.set(r, c);
    ASSERT_EQ(cm, reference) << "rep=" << rep << " " << rows << "x" << cols
                             << " closed=" << defects.stuckClosedCount();
  }
  EXPECT_GT(poisoned, 0u);
  EXPECT_GT(openOnly, 0u);
}

}  // namespace
}  // namespace mcx
