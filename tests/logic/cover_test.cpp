#include "logic/cover.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace mcx {
namespace {

Cover twoOutputExample() {
  // O1 = x1 x2 + x2 x3 ; O2 = x1 x3 + x2 x3  (the paper's Fig. 7/8 function)
  Cover c(3, 2);
  c.add(makeCube("11-", "10"));
  c.add(makeCube("-11", "10"));
  c.add(makeCube("1-1", "01"));
  c.add(makeCube("-11", "01"));
  return c;
}

TEST(Cover, AddChecksArity) {
  Cover c(3, 1);
  EXPECT_THROW(c.add(makeCube("11", "1")), InvalidArgument);
  EXPECT_THROW(c.add(makeCube("111", "11")), InvalidArgument);
  c.add(makeCube("1-1", "1"));
  EXPECT_EQ(c.size(), 1u);
}

TEST(Cover, EvaluateMultiOutput) {
  const Cover c = twoOutputExample();
  DynBits in(3);
  in.set(0);
  in.set(1);  // x1=1 x2=1 x3=0
  DynBits out = c.evaluate(in);
  EXPECT_TRUE(out.test(0));
  EXPECT_FALSE(out.test(1));

  in.set(2);  // 111 -> both
  out = c.evaluate(in);
  EXPECT_TRUE(out.test(0));
  EXPECT_TRUE(out.test(1));

  DynBits zero(3);
  out = c.evaluate(zero);
  EXPECT_TRUE(out.none());
}

TEST(Cover, LiteralCountSums) {
  const Cover c = twoOutputExample();
  EXPECT_EQ(c.literalCount(), 8u);
}

TEST(Cover, ProjectionSelectsByOutput) {
  const Cover c = twoOutputExample();
  EXPECT_EQ(c.projection(0).size(), 2u);
  EXPECT_EQ(c.projection(1).size(), 2u);
  EXPECT_THROW(c.projection(2), InvalidArgument);
}

TEST(Cover, MergeDuplicateInputsOrsOutputs) {
  Cover c = twoOutputExample();
  c.mergeDuplicateInputs();
  // The two "-11" cubes merge into one asserting both outputs.
  EXPECT_EQ(c.size(), 3u);
  bool merged = false;
  for (const Cube& cube : c.cubes())
    if (cube.inputString() == "-11") {
      EXPECT_TRUE(cube.out(0));
      EXPECT_TRUE(cube.out(1));
      merged = true;
    }
  EXPECT_TRUE(merged);
}

TEST(Cover, MergeDropsEmptyCubes) {
  Cover c(2, 1);
  Cube empty(2, 1);
  empty.setLit(0, Lit::Empty);
  empty.setOut(0);
  c.add(empty);
  Cube noOut = makeCube("1-", "0");
  c.add(noOut);
  c.mergeDuplicateInputs();
  EXPECT_TRUE(c.empty());
}

TEST(Cover, RemoveSingleCubeContained) {
  Cover c(3, 1);
  c.add(makeCube("1--", "1"));
  c.add(makeCube("11-", "1"));
  c.add(makeCube("0-1", "1"));
  c.removeSingleCubeContained();
  EXPECT_EQ(c.size(), 2u);
}

TEST(Cover, RemoveContainedKeepsOneOfIdenticalPair) {
  Cover c(2, 1);
  c.add(makeCube("1-", "1"));
  c.add(makeCube("1-", "1"));
  c.removeSingleCubeContained();
  EXPECT_EQ(c.size(), 1u);
}

TEST(Cover, ToStringIsPlaBody) {
  Cover c(2, 1);
  c.add(makeCube("10", "1"));
  EXPECT_EQ(c.toString(), "10 1\n");
}

}  // namespace
}  // namespace mcx
