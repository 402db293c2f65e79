#include "logic/quine_mccluskey.hpp"

#include <gtest/gtest.h>

#include "logic/espresso.hpp"
#include "logic/generators.hpp"
#include "logic/isop.hpp"
#include "oracles/random_truth_table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mcx {
namespace {

TEST(PrimeImplicants, FullDontCareForTautology) {
  DynBits on(8, true), dc(8);
  const auto primes = primeImplicants(on, dc, 3);
  ASSERT_EQ(primes.size(), 1u);
  EXPECT_EQ(primes[0].literalCount(), 0u);
}

TEST(PrimeImplicants, KnownSmallExample) {
  // f(a,b) = a XOR b has exactly two primes: a!b and !ab.
  DynBits on(4), dc(4);
  on.set(1);  // a=1 b=0
  on.set(2);  // a=0 b=1
  const auto primes = primeImplicants(on, dc, 2);
  EXPECT_EQ(primes.size(), 2u);
  for (const Cube& p : primes) EXPECT_EQ(p.literalCount(), 2u);
}

TEST(PrimeImplicants, DcEnlargesPrimes) {
  // ON = {11}, DC = {01, 10}: primes a and b appear (merged through DC).
  DynBits on(4), dc(4);
  on.set(3);
  dc.set(1);
  dc.set(2);
  const auto primes = primeImplicants(on, dc, 2);
  EXPECT_EQ(primes.size(), 2u);
  for (const Cube& p : primes) EXPECT_EQ(p.literalCount(), 1u);
}

TEST(QuineMcCluskey, ConstantZero) {
  TruthTable tt(3, 1);
  const QmResult r = quineMcCluskey(tt);
  EXPECT_TRUE(r.cover.empty());
}

TEST(QuineMcCluskey, ClassicTextbookExample) {
  // f = sum m(0,1,2,5,6,7) over 3 vars: minimum has 3 products? The known
  // result for this function is 3 cubes (e.g. !a!b + bc'... ). Verify size
  // against exhaustive check via espresso >= exact and correctness.
  TruthTable tt(3, 1);
  for (const std::size_t m : {0u, 1u, 2u, 5u, 6u, 7u}) tt.set(0, m);
  const QmResult r = quineMcCluskey(tt);
  EXPECT_EQ(ttOfCubes(r.cover, 3), tt.bits(0));
  EXPECT_LE(r.cover.size(), 4u);
  EXPECT_GE(r.cover.size(), 3u);
}

TEST(QuineMcCluskey, ParityNeedsAllMinterms) {
  const TruthTable tt = parityFunction(4);
  const QmResult r = quineMcCluskey(tt);
  EXPECT_EQ(r.cover.size(), 8u);  // exact minimum for parity
  EXPECT_EQ(ttOfCubes(r.cover, 4), tt.bits(0));
}

TEST(QuineMcCluskey, CoverAlwaysExactOnRandomFunctions) {
  Rng rng(505);
  for (int rep = 0; rep < 30; ++rep) {
    const std::size_t nin = 3 + static_cast<std::size_t>(rng.uniformInt(0, 3));
    const TruthTable tt = randomTruthTable(nin, 1, 0.4, rng);
    const QmResult r = quineMcCluskey(tt);
    EXPECT_EQ(ttOfCubes(r.cover, nin), tt.bits(0)) << "rep=" << rep;
  }
}

TEST(QuineMcCluskey, LowerBoundsEspresso) {
  // The exact cover can never use more cubes than the heuristic minimizer.
  Rng rng(506);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t nin = 4 + static_cast<std::size_t>(rng.uniformInt(0, 2));
    const TruthTable tt = randomTruthTable(nin, 1, 0.35, rng);
    if (tt.countOnes(0) == 0) continue;
    const QmResult exact = quineMcCluskey(tt);
    const Cover heuristic = espressoMinimize(isopCover(tt));
    EXPECT_LE(exact.cover.size(), heuristic.size()) << "rep=" << rep;
  }
}

TEST(QuineMcCluskey, EspressoCloseToOptimal) {
  // Aggregate gap check: espresso should stay within ~20% of optimal cubes
  // on small random functions.
  Rng rng(507);
  std::size_t exactTotal = 0, heuristicTotal = 0;
  for (int rep = 0; rep < 25; ++rep) {
    const TruthTable tt = randomTruthTable(5, 1, 0.4, rng);
    if (tt.countOnes(0) == 0) continue;
    exactTotal += quineMcCluskey(tt).cover.size();
    heuristicTotal += espressoMinimize(isopCover(tt)).size();
  }
  EXPECT_LE(heuristicTotal, exactTotal + exactTotal / 5 + 2);
}

TEST(QuineMcCluskey, RespectsDcSet) {
  TruthTable on(3, 1), dc(3, 1);
  on.set(0, 7);
  for (std::size_t m = 0; m < 7; ++m) dc.set(0, m);
  const QmResult r = quineMcCluskey(on, dc, 0);
  ASSERT_EQ(r.cover.size(), 1u);
  EXPECT_EQ(r.cover[0].literalCount(), 0u);
}

TEST(QuineMcCluskey, ValidatesArity) {
  TruthTable big(13, 1);
  EXPECT_THROW(quineMcCluskey(big), InvalidArgument);
  TruthTable ok(3, 1);
  EXPECT_THROW(quineMcCluskey(ok, 1), InvalidArgument);  // bad output index
}

}  // namespace
}  // namespace mcx
