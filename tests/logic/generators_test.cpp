#include "logic/generators.hpp"

#include <gtest/gtest.h>

#include "oracles/random_truth_table.hpp"
#include "util/error.hpp"

#include <bit>

namespace mcx {
namespace {

TEST(RandomSop, ShapeAndDeterminism) {
  RandomSopOptions opts;
  opts.nin = 7;
  opts.nout = 3;
  opts.products = 12;
  Rng a(5), b(5);
  const Cover ca = randomSop(opts, a);
  const Cover cb = randomSop(opts, b);
  EXPECT_EQ(ca, cb);
  EXPECT_EQ(ca.nin(), 7u);
  EXPECT_EQ(ca.nout(), 3u);
  EXPECT_EQ(ca.size(), 12u);
}

TEST(RandomSop, EveryCubeHasLiteralAndOutput) {
  RandomSopOptions opts;
  opts.nin = 6;
  opts.nout = 4;
  opts.products = 30;
  opts.literalsPerProduct = 1.0;
  Rng rng(9);
  const Cover c = randomSop(opts, rng);
  for (const Cube& cube : c.cubes()) {
    EXPECT_GE(cube.literalCount(), 1u);
    EXPECT_TRUE(cube.outputBits().any());
  }
}

TEST(RandomSop, IrredundantOptionAvoidsContainment) {
  RandomSopOptions opts;
  opts.nin = 5;
  opts.nout = 1;
  opts.products = 15;
  opts.irredundant = true;
  Rng rng(11);
  const Cover c = randomSop(opts, rng);
  for (std::size_t i = 0; i < c.size(); ++i)
    for (std::size_t j = 0; j < c.size(); ++j)
      if (i != j) {
        EXPECT_FALSE(c.cube(i).contains(c.cube(j)));
      }
}

TEST(WeightFunction, Rd53Shape) {
  const TruthTable tt = weightFunction(5);
  EXPECT_EQ(tt.nin(), 5u);
  EXPECT_EQ(tt.nout(), 3u);
  for (std::size_t m = 0; m < 32; ++m) {
    const auto w = static_cast<std::size_t>(std::popcount(static_cast<unsigned>(m)));
    for (std::size_t o = 0; o < 3; ++o) EXPECT_EQ(tt.get(o, m), ((w >> o) & 1u) != 0);
  }
}

TEST(WeightFunction, OutputWidths) {
  EXPECT_EQ(weightFunction(7).nout(), 3u);   // rd73
  EXPECT_EQ(weightFunction(8).nout(), 4u);   // rd84
  EXPECT_EQ(weightFunction(3).nout(), 2u);
}

TEST(SqrtFunction, ComputesFloorSqrt) {
  const TruthTable tt = sqrtFunction(8);
  EXPECT_EQ(tt.nin(), 8u);
  EXPECT_EQ(tt.nout(), 4u);
  for (std::size_t m = 0; m < 256; ++m) {
    std::size_t expected = 0;
    while ((expected + 1) * (expected + 1) <= m) ++expected;
    std::size_t got = 0;
    for (std::size_t o = 0; o < 4; ++o) got |= static_cast<std::size_t>(tt.get(o, m)) << o;
    EXPECT_EQ(got, expected) << "m=" << m;
  }
}

TEST(ParityFunction, Correct) {
  const TruthTable tt = parityFunction(6);
  for (std::size_t m = 0; m < 64; ++m)
    EXPECT_EQ(tt.get(0, m), (std::popcount(static_cast<unsigned>(m)) & 1) != 0);
}

TEST(MajorityFunction, Correct) {
  const TruthTable tt = majorityFunction(5);
  for (std::size_t m = 0; m < 32; ++m)
    EXPECT_EQ(tt.get(0, m), std::popcount(static_cast<unsigned>(m)) >= 3);
}

TEST(AdderFunction, AddsOperands) {
  const TruthTable tt = adderFunction(3);
  EXPECT_EQ(tt.nin(), 6u);
  EXPECT_EQ(tt.nout(), 4u);
  for (std::size_t m = 0; m < 64; ++m) {
    const std::size_t a = m & 7, b = m >> 3;
    std::size_t got = 0;
    for (std::size_t o = 0; o < 4; ++o) got |= static_cast<std::size_t>(tt.get(o, m)) << o;
    EXPECT_EQ(got, a + b);
  }
}

TEST(RandomTruthTable, DensityRoughlyRespected) {
  Rng rng(3);
  const TruthTable tt = randomTruthTable(10, 2, 0.3, rng);
  const double density =
      static_cast<double>(tt.countOnes(0) + tt.countOnes(1)) / (2.0 * 1024.0);
  EXPECT_NEAR(density, 0.3, 0.06);
}

TEST(Generators, RejectBadShapes) {
  EXPECT_THROW(weightFunction(0), InvalidArgument);
  EXPECT_THROW(sqrtFunction(1), InvalidArgument);
  EXPECT_THROW(adderFunction(0), InvalidArgument);
  RandomSopOptions opts;
  opts.products = 0;
  Rng rng(1);
  EXPECT_THROW(randomSop(opts, rng), InvalidArgument);
}

}  // namespace
}  // namespace mcx
