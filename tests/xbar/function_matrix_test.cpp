#include "xbar/function_matrix.hpp"

#include <gtest/gtest.h>

#include "logic/sop_parser.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

Cover fig8Cover() {
  // O1 = x1 x2 + x2 x3 ; O2 = x1 x3 + x2 x3 (Fig. 8(a) of the paper).
  Cover c(3, 2);
  c.add(makeCube("11-", "10"));
  c.add(makeCube("-11", "10"));
  c.add(makeCube("1-1", "01"));
  c.add(makeCube("-11", "01"));
  return c;
}

TEST(FunctionMatrix, Fig8Shape) {
  const FunctionMatrix fm = buildFunctionMatrix(fig8Cover());
  EXPECT_EQ(fm.rows(), 6u);   // 4 products + 2 outputs
  EXPECT_EQ(fm.cols(), 10u);  // 2*3 + 2*2
  EXPECT_EQ(fm.numProductRows(), 4u);
  EXPECT_EQ(fm.numOutputRows(), 2u);
  EXPECT_EQ(fm.dims().area(), 60u);
}

TEST(FunctionMatrix, Fig8ProductRows) {
  const FunctionMatrix fm = buildFunctionMatrix(fig8Cover());
  // m1 = x1 x2 -> columns x1, x2, O1.
  EXPECT_TRUE(fm.bits().test(0, fm.colOfPosLiteral(0)));
  EXPECT_TRUE(fm.bits().test(0, fm.colOfPosLiteral(1)));
  EXPECT_TRUE(fm.bits().test(0, fm.colOfOutput(0)));
  EXPECT_FALSE(fm.bits().test(0, fm.colOfOutput(1)));
  EXPECT_EQ(fm.bits().rowCount(0), 3u);
  // m3 = x1 x3 -> columns x1, x3, O2.
  EXPECT_TRUE(fm.bits().test(2, fm.colOfPosLiteral(0)));
  EXPECT_TRUE(fm.bits().test(2, fm.colOfPosLiteral(2)));
  EXPECT_TRUE(fm.bits().test(2, fm.colOfOutput(1)));
}

TEST(FunctionMatrix, Fig8OutputRows) {
  const FunctionMatrix fm = buildFunctionMatrix(fig8Cover());
  for (std::size_t o = 0; o < 2; ++o) {
    const std::size_t row = fm.rowOfOutput(o);
    EXPECT_TRUE(fm.bits().test(row, fm.colOfOutput(o)));
    EXPECT_TRUE(fm.bits().test(row, fm.colOfOutputBar(o)));
    EXPECT_EQ(fm.bits().rowCount(row), 2u);
  }
}

TEST(FunctionMatrix, NegativeLiteralsUseComplementColumns) {
  const Cover c = parseSop("!x1 x2");
  const FunctionMatrix fm = buildFunctionMatrix(c);
  EXPECT_TRUE(fm.bits().test(0, fm.colOfNegLiteral(0)));
  EXPECT_FALSE(fm.bits().test(0, fm.colOfPosLiteral(0)));
  EXPECT_TRUE(fm.bits().test(0, fm.colOfPosLiteral(1)));
}

TEST(FunctionMatrix, SharedProductAssertsAllItsOutputColumns) {
  Cover c(2, 3);
  c.add(makeCube("11", "101"));
  const FunctionMatrix fm = buildFunctionMatrix(c);
  EXPECT_TRUE(fm.bits().test(0, fm.colOfOutput(0)));
  EXPECT_FALSE(fm.bits().test(0, fm.colOfOutput(1)));
  EXPECT_TRUE(fm.bits().test(0, fm.colOfOutput(2)));
}

TEST(FunctionMatrix, Fig3ExampleCounts) {
  const Cover c = parseSop("x1 + x2 + x3 + x4 + x5 x6 x7 x8");
  const FunctionMatrix fm = buildFunctionMatrix(c);
  EXPECT_EQ(fm.rows(), 6u);
  EXPECT_EQ(fm.cols(), 18u);
  // Switch count: 4 single-literal products (2 switches each: literal + O) +
  // one 4-literal product (5) + output row (2) = 15.
  EXPECT_EQ(fm.usedSwitches(), 15u);
  EXPECT_NEAR(fm.inclusionRatio(), 15.0 / 108.0, 1e-12);
}

TEST(FunctionMatrix, InputPermutationMovesLiteralColumns) {
  const Cover c = parseSop("x1 !x2");
  const FunctionMatrix fm = buildFunctionMatrix(c);
  const FunctionMatrix pm = fm.withInputPermutation({1, 0});
  EXPECT_TRUE(pm.bits().test(0, pm.colOfPosLiteral(1)));
  EXPECT_TRUE(pm.bits().test(0, pm.colOfNegLiteral(0)));
  EXPECT_FALSE(pm.bits().test(0, pm.colOfPosLiteral(0)));
  // Output columns unchanged.
  EXPECT_TRUE(pm.bits().test(0, pm.colOfOutput(0)));
  EXPECT_EQ(pm.usedSwitches(), fm.usedSwitches());
}

TEST(FunctionMatrix, InputPermutationValidation) {
  const Cover c = parseSop("x1 x2");
  const FunctionMatrix fm = buildFunctionMatrix(c);
  EXPECT_THROW(fm.withInputPermutation({0}), InvalidArgument);
  EXPECT_THROW(fm.withInputPermutation({1, 1}), InvalidArgument);
}

TEST(FunctionMatrix, EmbeddingFollowsTheRedundantLayout) {
  const FunctionMatrix fm = buildFunctionMatrix(fig8Cover());
  const RedundantCrossbarSpec spares{0, 1, 2};
  // x1 on the spare input pair 3, O1 on spare output pair 3, O2 on pair 0.
  const FunctionMatrix em = fm.embedded(spares, {3, 1, 2}, {3, 0});
  EXPECT_EQ(em.dims(), redundantDims(fm, spares));
  EXPECT_EQ(em.usedSwitches(), fm.usedSwitches());
  EXPECT_TRUE(em.bits().test(0, fm.inputPairColumns(spares, 3).first));  // m1 = x1 x2 -> O1
  EXPECT_TRUE(em.bits().test(0, fm.outputPairColumns(spares, 3).first));
  EXPECT_TRUE(em.bits().test(fm.rowOfOutput(1), fm.outputPairColumns(spares, 0).second));
  // Spare output pairs sit side by side right after the connection columns.
  EXPECT_EQ(fm.outputPairColumns(spares, 3).second, 2 * (fm.nin() + 1) + 3);
  EXPECT_EQ(fm.embedded({}, {}).bits(), fm.bits());
  EXPECT_THROW(fm.embedded(spares, {0, 1, 4}), InvalidArgument);
  EXPECT_THROW(fm.embedded(spares, {0, 1, 2}, {0, 0}), InvalidArgument);
}

TEST(FunctionMatrix, ColumnAccessorsValidateRange) {
  const FunctionMatrix fm = buildFunctionMatrix(fig8Cover());
  EXPECT_THROW(fm.colOfPosLiteral(3), InvalidArgument);
  EXPECT_THROW(fm.colOfOutput(2), InvalidArgument);
  EXPECT_THROW(fm.colOfConnection(0), InvalidArgument);  // two-level: none
}

TEST(FunctionMatrix, RejectsEmptyCover) {
  Cover c(2, 1);
  EXPECT_THROW(buildFunctionMatrix(c), InvalidArgument);
}

}  // namespace
}  // namespace mcx
