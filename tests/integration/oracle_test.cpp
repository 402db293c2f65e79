// Cross-oracle consistency: every independent representation of the same
// function (cover, ISOP, espresso output, NAND network, factor tree,
// Quine-McCluskey exact cover) must agree. Explicit truth tables are the
// exact ground truth at these sizes (5 and 7 inputs).
#include <gtest/gtest.h>

#include "logic/espresso.hpp"
#include "logic/generators.hpp"
#include "logic/isop.hpp"
#include "logic/quine_mccluskey.hpp"
#include "netlist/kernels.hpp"
#include "netlist/nand_mapper.hpp"

namespace mcx {
namespace {

TEST(OracleConsistency, AllRepresentationsOfRd53Agree) {
  const TruthTable tt = weightFunction(5);
  const Cover isopC = isopCover(tt);
  const Cover minimized = espressoMinimize(isopC);
  const NandNetwork quick = mapToNand(minimized);
  const NandNetwork best = mapToNandBest(minimized);

  EXPECT_EQ(TruthTable::fromCover(isopC), tt);
  EXPECT_EQ(TruthTable::fromCover(minimized), tt);
  EXPECT_EQ(quick.toTruthTable(), tt);
  EXPECT_EQ(best.toTruthTable(), tt);
}

TEST(OracleConsistency, QuineMcCluskeyBoundsEspressoOnBenchmarks) {
  // Per-output exact minima lower-bound the heuristic per-output covers.
  const TruthTable tt = weightFunction(5);
  const Cover minimized = espressoMinimize(isopCover(tt));
  for (std::size_t o = 0; o < tt.nout(); ++o) {
    const QmResult exact = quineMcCluskey(tt, o);
    const std::size_t heuristicPerOutput = minimized.projection(o).size();
    EXPECT_LE(exact.cover.size(), heuristicPerOutput) << "o=" << o;
    EXPECT_EQ(ttOfCubes(exact.cover, 5), tt.bits(o)) << "o=" << o;
  }
}

TEST(OracleConsistency, KernelAndQuickFactorAgreeViaTruthTables) {
  Rng rng(2025);
  for (int rep = 0; rep < 10; ++rep) {
    RandomSopOptions opts;
    opts.nin = 7;
    opts.nout = 1;
    opts.products = 10;
    opts.literalsPerProduct = 3.0;
    const Cover cover = randomSop(opts, rng);
    const DynBits ref = TruthTable::fromCover(cover).bits(0);

    const NandNetwork quick = mapToNand(cover);
    const NandNetwork best = mapToNandBest(cover);
    EXPECT_EQ(quick.toTruthTable().bits(0), ref) << "rep=" << rep;
    EXPECT_EQ(best.toTruthTable().bits(0), ref) << "rep=" << rep;
  }
}

TEST(OracleConsistency, BestMapperNeverWorseThanEitherStrategy) {
  Rng rng(2026);
  for (int rep = 0; rep < 15; ++rep) {
    RandomSopOptions opts;
    opts.nin = 8;
    opts.nout = 2;
    opts.products = 12;
    const Cover cover = randomSop(opts, rng);
    const auto cost = [](const NandNetwork& n) {
      return n.gateCount() + n.interconnectCount();
    };
    NandMapOptions flat;
    flat.factored = false;
    const std::size_t bestCost = cost(mapToNandBest(cover));
    EXPECT_LE(bestCost, cost(mapToNand(cover, flat))) << "rep=" << rep;
    EXPECT_LE(bestCost, cost(mapToNand(cover))) << "rep=" << rep;
  }
}

}  // namespace
}  // namespace mcx
