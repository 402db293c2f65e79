#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

namespace mcx {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool anyDifferent = false;
  for (int i = 0; i < 10; ++i) anyDifferent |= (a() != b());
  EXPECT_TRUE(anyDifferent);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniformInt(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniformInt(5, 5), 5u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.split();
  // Parent and child should not produce identical sequences.
  bool anyDifferent = false;
  Rng parentCopy = a;
  for (int i = 0; i < 10; ++i) anyDifferent |= (parentCopy() != child());
  EXPECT_TRUE(anyDifferent);
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(29);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t k = rng.binomial(7, 0.4);
    EXPECT_LE(k, 7u);
  }
}

TEST(Rng, BinomialConsumesOneDrawAndIsDeterministic) {
  Rng a(31), b(31);
  EXPECT_EQ(a.binomial(100000, 0.1), b.binomial(100000, 0.1));
  // Exactly one uniform consumed per call, whatever the outcome: the
  // sparse sampler's draw-order contract depends on it.
  b = Rng(31);
  (void)b();
  Rng c(31);
  (void)c.binomial(12345, 0.37);
  EXPECT_EQ(b(), c());
}

TEST(Rng, BinomialMatchesMomentsAndBernoulliSum) {
  // Mean and variance of Binomial(n, p), plus agreement with an explicit
  // Bernoulli-trial sum: both samplers must draw from the same
  // distribution (the O(defects) fast path relies on it).
  const std::uint64_t n = 4096;
  const double p = 0.1;
  const int reps = 4000;
  Rng rng(37), trials(38);
  double sum = 0, sumSq = 0, trialSum = 0;
  for (int i = 0; i < reps; ++i) {
    const double k = static_cast<double>(rng.binomial(n, p));
    sum += k;
    sumSq += k * k;
    int hits = 0;
    for (std::uint64_t t = 0; t < n; ++t) hits += trials.bernoulli(p) ? 1 : 0;
    trialSum += hits;
  }
  const double mean = sum / reps;
  const double var = sumSq / reps - mean * mean;
  const double expectedMean = static_cast<double>(n) * p;          // 409.6
  const double expectedVar = expectedMean * (1.0 - p);             // 368.6
  // Standard error of the mean is ~0.3; allow ~6 sigma.
  EXPECT_NEAR(mean, expectedMean, 2.0);
  EXPECT_NEAR(mean, trialSum / reps, 2.5);
  EXPECT_NEAR(var, expectedVar, expectedVar * 0.12);
}

/// Steps RngLanes<L> over k fresh streams 10,000 times: lane i must draw
/// what streams[i]'s scalar copy draws, storeTo must leave each active
/// stream where its copy stands and leave the inactive ones untouched.
template <std::size_t L>
void expectLanesReplay(std::size_t k) {
  SCOPED_TRACE("L=" + std::to_string(L) + " k=" + std::to_string(k));
  Rng root(0x1a7e5 + L * 31 + k);
  std::vector<Rng> streams, scalar;
  for (std::size_t i = 0; i < L; ++i) streams.push_back(root.split());
  scalar = streams;
  RngLanes<L> lanes(streams.data(), k);
  typename RngLanes<L>::Lanes x;
  std::uint64_t words[L];
  for (int n = 0; n < 10000; ++n) {
    lanes.next(x);
    std::memcpy(words, &x, sizeof words);
    for (std::size_t i = 0; i < k; ++i) ASSERT_EQ(words[i], scalar[i]()) << "draw " << n;
  }
  const std::vector<Rng> before = streams;
  lanes.storeTo(streams.data(), k);
  for (std::size_t i = 0; i < L; ++i) {
    Rng want = i < k ? scalar[i] : before[i];
    for (int n = 0; n < 4; ++n) EXPECT_EQ(streams[i](), want()) << "stream " << i;
  }
}

TEST(RngLanes, EachLaneReplaysItsStream) {
  expectLanesReplay<1>(1);
  for (std::size_t k = 1; k <= 4; ++k) expectLanesReplay<4>(k);
  for (std::size_t k = 1; k <= 8; ++k) expectLanesReplay<8>(k);
}

}  // namespace
}  // namespace mcx
