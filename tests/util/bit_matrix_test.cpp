#include "util/bit_matrix.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mcx {
namespace {

TEST(BitMatrix, ConstructClear) {
  BitMatrix m(3, 70);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 70u);
  EXPECT_EQ(m.count(), 0u);
}

TEST(BitMatrix, ConstructAllSetMasksTailPerRow) {
  BitMatrix m(4, 70, true);
  EXPECT_EQ(m.count(), 4u * 70u);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_EQ(m.rowCount(r), 70u);
}

TEST(BitMatrix, SetTestReset) {
  BitMatrix m(2, 130);
  m.set(0, 0);
  m.set(1, 129);
  m.set(0, 64);
  EXPECT_TRUE(m.test(0, 0));
  EXPECT_TRUE(m.test(1, 129));
  EXPECT_TRUE(m.test(0, 64));
  EXPECT_FALSE(m.test(1, 0));
  m.reset(0, 64);
  EXPECT_FALSE(m.test(0, 64));
  m.set(0, 0, false);
  EXPECT_FALSE(m.test(0, 0));
}

TEST(BitMatrix, OutOfRangeThrows) {
  BitMatrix m(2, 2);
  EXPECT_THROW(m.test(2, 0), InvalidArgument);
  EXPECT_THROW(m.set(0, 2), InvalidArgument);
}

TEST(BitMatrix, RowAndColCounts) {
  BitMatrix m(3, 5);
  m.set(0, 0);
  m.set(0, 4);
  m.set(2, 0);
  EXPECT_EQ(m.rowCount(0), 2u);
  EXPECT_EQ(m.rowCount(1), 0u);
  EXPECT_EQ(m.colCount(0), 2u);
  EXPECT_EQ(m.colCount(4), 1u);
}

TEST(BitMatrix, SetRowSetCol) {
  BitMatrix m(3, 4);
  m.setRow(1, true);
  EXPECT_EQ(m.rowCount(1), 4u);
  m.setCol(2, true);
  EXPECT_EQ(m.colCount(2), 3u);
  m.setRow(1, false);
  EXPECT_EQ(m.rowCount(1), 0u);
  EXPECT_EQ(m.colCount(2), 2u);
}

TEST(BitMatrix, RowSubsetOf) {
  BitMatrix fm(2, 100);
  BitMatrix cm(2, 100, true);
  fm.set(0, 10);
  fm.set(0, 99);
  EXPECT_TRUE(fm.rowSubsetOf(0, cm, 0));
  cm.reset(1, 99);
  EXPECT_TRUE(fm.rowSubsetOf(0, cm, 0));
  EXPECT_FALSE(fm.rowSubsetOf(0, cm, 1));
  // An all-zero FM row fits anything.
  EXPECT_TRUE(fm.rowSubsetOf(1, cm, 1));
}

TEST(BitMatrix, ToString) {
  BitMatrix m(2, 3);
  m.set(0, 1);
  m.set(1, 2);
  EXPECT_EQ(m.toString(), ".1.\n..1\n");
}

TEST(BitMatrix, EqualityIsStructural) {
  BitMatrix a(2, 3), b(2, 3);
  EXPECT_EQ(a, b);
  b.set(0, 0);
  EXPECT_NE(a, b);
}

TEST(BitMatrix, SetRowWordWiseMasksTail) {
  BitMatrix m(3, 70);  // two words per row, 6 tail bits
  m.setRow(1, true);
  EXPECT_EQ(m.rowCount(1), 70u);
  EXPECT_EQ(m.count(), 70u);
  m.set(0, 69);
  m.setRow(1, false);
  EXPECT_EQ(m.count(), 1u);
  EXPECT_TRUE(m.test(0, 69));
  // Tail padding must stay clear so operator== and count() remain exact.
  BitMatrix viaBits(3, 70);
  viaBits.set(0, 69);
  EXPECT_EQ(m, viaBits);
}

TEST(BitMatrix, SetColTouchesEveryRow) {
  BitMatrix m(5, 130);
  m.setCol(128, true);
  EXPECT_EQ(m.colCount(128), 5u);
  EXPECT_EQ(m.count(), 5u);
  m.setCol(128, false);
  EXPECT_EQ(m.count(), 0u);
}

TEST(BitMatrix, AssignTransposedMatchesPerBitTranspose) {
  Rng rng(41);
  // Dimensions straddling the 64-bit word boundaries in both directions.
  const std::size_t dims[][2] = {{1, 1},     {7, 3},     {64, 64},  {65, 63},
                                 {128, 1},   {1, 128},   {100, 200}, {289, 299},
                                 {583, 44},  {44, 583},  {513, 600}};
  for (const auto& d : dims) {
    BitMatrix a(d[0], d[1]);
    for (std::size_t r = 0; r < a.rows(); ++r)
      for (std::size_t c = 0; c < a.cols(); ++c)
        if (rng.bernoulli(0.3)) a.set(r, c);
    BitMatrix t;
    t.assignTransposed(a);
    ASSERT_EQ(t.rows(), a.cols());
    ASSERT_EQ(t.cols(), a.rows());
    for (std::size_t r = 0; r < a.rows(); ++r)
      for (std::size_t c = 0; c < a.cols(); ++c)
        ASSERT_EQ(t.test(c, r), a.test(r, c)) << d[0] << "x" << d[1] << " @" << r << "," << c;
    // Double transpose is the identity.
    BitMatrix back;
    back.assignTransposed(t);
    EXPECT_EQ(back, a);
  }
}

TEST(BitMatrix, AssignTransposedHandlesEmpty) {
  BitMatrix a(0, 5), t(3, 3, true);
  t.assignTransposed(a);
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 0u);
  EXPECT_EQ(t.count(), 0u);
}

TEST(BitMatrix, FillAndReshapeReuseBuffers) {
  BitMatrix m(4, 70);
  m.fill(true);
  EXPECT_EQ(m.count(), 4u * 70u);
  m.fill(false);
  EXPECT_EQ(m.count(), 0u);
  m.reshape(2, 130, true);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 130u);
  EXPECT_EQ(m.count(), 2u * 130u);
  EXPECT_EQ(m, BitMatrix(2, 130, true));
  m.reshape(3, 5);
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m, BitMatrix(3, 5));
}

}  // namespace
}  // namespace mcx
