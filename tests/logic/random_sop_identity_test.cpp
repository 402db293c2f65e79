// randomSop's flat-word irredundancy scan against the cube-by-cube loop it
// replaced (tests/oracles/random_sop_reference.hpp): the same cover and the
// same next draw for every shape, across the word widths of the input and
// output parts (one, two and, past 64 variables or 128 outputs, heap words)
// and through the loop's saturation, relax and guard exits.
#include <gtest/gtest.h>

#include <vector>

#include "logic/generators.hpp"
#include "oracles/random_sop_reference.hpp"

namespace mcx {
namespace {

// Covers that only the guard exit or the relaxed phase can produce, counted
// on the reference output.
struct ExitsSeen {
  std::size_t shortCovers = 0;      // stopped by the guard below `products`
  std::size_t containedPairs = 0;   // accepted after irredundancy relaxed
};

bool hasContainedPair(const Cover& cover) {
  for (std::size_t i = 0; i < cover.size(); ++i)
    for (std::size_t j = 0; j < cover.size(); ++j)
      if (i != j && cover.cube(i).contains(cover.cube(j))) return true;
  return false;
}

void expectIdentical(const RandomSopOptions& opts, std::uint64_t seed, ExitsSeen& seen) {
  SCOPED_TRACE(testing::Message() << "nin " << opts.nin << " nout " << opts.nout << " products "
                                  << opts.products << " lits " << opts.literalsPerProduct
                                  << " irredundant " << opts.irredundant << " seed " << seed);
  Rng libRng(seed);
  Rng refRng(seed);
  const Cover got = randomSop(opts, libRng);
  const Cover want = reference::randomSop(opts, refRng);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got.cube(i), want.cube(i)) << "cube " << i << ": " << got.cube(i).toPlaString()
                                         << " vs " << want.cube(i).toPlaString();
  EXPECT_EQ(libRng(), refRng()) << "next draw";
  if (want.size() < opts.products) ++seen.shortCovers;
  if (opts.irredundant && hasContainedPair(want)) ++seen.containedPairs;
}

TEST(RandomSopIdentity, FlatScanReplaysTheCubeLoop) {
  const std::size_t nins[] = {1, 2, 3, 11, 12, 14, 31, 32, 33, 40, 70};
  const std::size_t nouts[] = {1, 8, 64, 65, 130};
  struct Density {
    std::size_t products;
    double lits;
    double outs;
    double heavyLit;
    double heavyOut;
  };
  const Density densities[] = {
      {6, 1.5, 1.0, 0.0, 0.0},
      {40, 3.0, 1.5, 0.1, 0.1},
      {120, 6.0, 2.0, 0.2, 0.05},
  };
  ExitsSeen seen;
  std::size_t cases = 0;
  std::uint64_t seed = 1;
  for (const std::size_t nin : nins)
    for (const std::size_t nout : nouts)
      for (const Density& d : densities)
        for (const bool irredundant : {true, false}) {
          RandomSopOptions opts;
          opts.nin = nin;
          opts.nout = nout;
          opts.products = d.products;
          opts.literalsPerProduct = d.lits;
          opts.outputsPerProduct = d.outs;
          opts.heavyLiteralFraction = d.heavyLit;
          opts.heavyOutputFraction = d.heavyOut;
          opts.heavyOutputsPerProduct = double(nout) / 2;
          opts.irredundant = irredundant;
          expectIdentical(opts, seed++, seen);
          ++cases;
        }
  EXPECT_GE(cases, 200u);
}

// Small aritys that cannot supply the requested cubes: products above the
// 3^nin - 1 clamp, antichains too small for the irredundant request (the
// loop relaxes to distinct cubes) and literal targets that pin every draw
// to a minterm (the guard stops the loop short).
TEST(RandomSopIdentity, SaturatedShapesReachTheRelaxAndGuardExits) {
  ExitsSeen seen;
  std::uint64_t seed = 1000;
  for (const std::size_t nin : {1, 2, 3, 4})
    for (const std::size_t nout : {1, 2, 65})
      for (const double lits : {1.0, 2.0, double(nin)})
        for (const bool irredundant : {true, false}) {
          RandomSopOptions opts;
          opts.nin = nin;
          opts.nout = nout;
          opts.products = 200;
          opts.literalsPerProduct = lits;
          opts.outputsPerProduct = 1.0;
          opts.irredundant = irredundant;
          expectIdentical(opts, seed++, seen);
        }
  EXPECT_GT(seen.shortCovers, 0u) << "no shape reached the guard exit";
  EXPECT_GT(seen.containedPairs, 0u) << "no shape reached the relaxed phase";
}

}  // namespace
}  // namespace mcx
