// Bit identity of the dense i.i.d. sweep: IidBernoulli compares raw draws
// against integer thresholds (UniformThreshold, util/rng.hpp) and stores
// whole words, and must reproduce the per-bit double-compare loop
// (reference::iidSample, tests/oracles) bit for bit, draw for draw. The
// same threshold splits SparseIidBernoulli's mixed-type placement, checked
// against reference::sparseIidSample, and its dense fallback is this sweep.
// A block of samples (generateBlock, one stream per vector lane) must
// replay the same loop on each sample's own stream.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "oracles/iid_reference.hpp"
#include "scenario/defect_model.hpp"
#include "util/rng.hpp"
#include "xbar/defects.hpp"

namespace mcx {
namespace {

constexpr double kTiny = 0x1.0p-53;         // T = 1: only k = 0 passes
constexpr double kBelowOne = 1.0 - 0x1.0p-53;  // the largest double below 1

using Shape = std::pair<std::size_t, std::size_t>;

const std::vector<Shape>& shapes() {
  // Empty, single crosspoints and words, one word +- 1, sao2 (62x28), alu4
  // (583x44) and bw multi-level (289x299).
  static const std::vector<Shape> s = {{0, 5},  {5, 0},   {1, 1},    {1, 63},   {1, 64},
                                       {1, 65}, {62, 28}, {583, 44}, {289, 299}};
  return s;
}

/// The rate pairs of the replay: every open rate with every closed rate
/// whose sum stays within 1, plus sums of exactly 1.
std::vector<std::pair<double, double>> ratePairs() {
  std::vector<std::pair<double, double>> pairs;
  for (const double open : {0.0, kTiny, 0.1, 0.15, 0.3, kBelowOne, 1.0})
    for (const double closed : {0.0, 0.02, 0.1})
      if (open + closed <= 1.0) pairs.emplace_back(open, closed);
  for (const auto& pair : {std::pair{0.0, 1.0}, std::pair{0.3, 0.7}, std::pair{0.98, 0.02}}) {
    EXPECT_EQ(pair.first + pair.second, 1.0);
    pairs.push_back(pair);
  }
  return pairs;
}

std::string label(const Shape& shape, double open, double closed) {
  std::ostringstream out;
  out.precision(17);
  out << shape.first << "x" << shape.second << " open=" << open << " closed=" << closed;
  return out.str();
}

/// Runs three consecutive samples of @p model and of @p reference on twin
/// streams: equal open bits, equal closed bits, and the same next draw.
template <typename Reference>
void expectReplays(const DefectModel& model, const Shape& shape, std::uint64_t seed,
                   Reference&& reference) {
  Rng rng(seed), ref(seed);
  DefectMap got, want;
  for (int s = 0; s < 3; ++s) {
    model.generate(shape.first, shape.second, rng, got);
    reference(shape.first, shape.second, ref, want);
    ASSERT_EQ(got.openBits(), want.openBits()) << "sample " << s;
    ASSERT_EQ(got.closedBits(), want.closedBits()) << "sample " << s;
    Rng probeGot = rng, probeWant = ref;
    ASSERT_EQ(probeGot(), probeWant()) << "sample " << s;
  }
}

/// Runs one block of k samples of @p model on k split streams, and
/// @p reference on twins of them one sample at a time: each sample's open
/// bits, closed bits and its stream's next draw must be equal.
template <typename Reference>
void expectBlockReplays(const DefectModel& model, const Shape& shape, std::uint64_t seed,
                        std::size_t k, Reference&& reference) {
  SCOPED_TRACE("k=" + std::to_string(k));
  Rng root(seed);
  std::vector<Rng> rngs;
  for (std::size_t i = 0; i < k; ++i) rngs.push_back(root.split());
  std::vector<Rng> refs = rngs;
  std::vector<DefectMap> got(k);
  model.generateBlock(shape.first, shape.second, rngs.data(), got.data(), k);
  DefectMap want;
  for (std::size_t i = 0; i < k; ++i) {
    reference(shape.first, shape.second, refs[i], want);
    ASSERT_EQ(got[i].openBits(), want.openBits()) << "sample " << i;
    ASSERT_EQ(got[i].closedBits(), want.closedBits()) << "sample " << i;
    ASSERT_EQ(rngs[i](), refs[i]()) << "sample " << i;
  }
}

TEST(IidBernoulliIdentity, ThresholdMatchesTheDoubleCompareAtItsEdge) {
  // For every k a draw can carry (x >> 11 < 2^53): k * 2^-53 < p exactly
  // when k < T = ceil(p * 2^53), and the threshold decides both the lowest
  // and the highest draw with that k.
  std::vector<double> rates = {0.0,  kTiny, 0x1.0p-60, 4.9e-324, 0.1,       0.15,
                               0.3,  1.0 / 3, 0.5,     0.98,     kBelowOne, 1.0};
  Rng rng(25);
  for (int i = 0; i < 200; ++i) rates.push_back(rng.uniform());
  for (const double p : rates) {
    const UniformThreshold cut(p);
    const auto T = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    for (const std::uint64_t k : {T - 1, T, T + 1}) {
      if (T == 0 && k == T - 1) continue;           // no k below 0
      if (k >= (std::uint64_t{1} << 53)) continue;  // no draw carries k
      const bool below = static_cast<double>(k) * 0x1.0p-53 < p;
      EXPECT_EQ(below, k < T) << "p=" << p << " k=" << k;
      EXPECT_EQ(cut.passes(k << 11), below) << "p=" << p << " k=" << k;
      EXPECT_EQ(cut.passes((k << 11) | 0x7ff), below) << "p=" << p << " k=" << k;
    }
  }
  // The extremes of the draw range.
  EXPECT_FALSE(UniformThreshold(0.0).passes(0));
  EXPECT_TRUE(UniformThreshold(kTiny).passes(0));
  EXPECT_TRUE(UniformThreshold(1.0).passes(~std::uint64_t{0}));
  EXPECT_FALSE(UniformThreshold(kBelowOne).passes(~std::uint64_t{0}));
}

TEST(IidBernoulliIdentity, DenseSweepReplaysThePerBitLoop) {
  for (const auto& [open, closed] : ratePairs()) {
    const IidBernoulli model(open, closed);
    for (const Shape& shape : shapes()) {
      SCOPED_TRACE(label(shape, open, closed));
      expectReplays(model, shape, 0x11d0000 + shape.first * 7 + shape.second,
                    [&](std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) {
                      reference::iidSample(rows, cols, open, closed, rng, out);
                    });
    }
  }
}

TEST(IidBernoulliIdentity, SparseMixedPlacementReplaysTheDoubleCompare) {
  // The type split at shares away from and at the edges: 1e-300 open makes
  // the closed share round to exactly 1 (every defect stuck-closed).
  for (const auto& [open, closed] : {std::pair{0.09, 0.01}, std::pair{0.1, 0.1},
                                     std::pair{0.02, 0.2}, std::pair{1e-300, 0.1},
                                     std::pair{0.1, 1e-300}}) {
    const SparseIidBernoulli model(open, closed);
    for (const Shape& shape : shapes()) {
      SCOPED_TRACE(label(shape, open, closed));
      expectReplays(model, shape, 0x5a0000 + shape.first * 7 + shape.second,
                    [&](std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) {
                      reference::sparseIidSample(rows, cols, open, closed, rng, out);
                    });
    }
  }
}

TEST(IidBernoulliIdentity, SparseDenseFallbackReplaysThePerBitLoop) {
  for (const auto& [open, closed] : {std::pair{0.3, 0.0}, std::pair{0.2, 0.1},
                                     std::pair{0.0, 0.3}, std::pair{0.9, 0.1}}) {
    ASSERT_GT(open + closed, SparseIidBernoulli::kDenseRateCutoff);
    const SparseIidBernoulli model(open, closed);
    for (const Shape& shape : shapes()) {
      SCOPED_TRACE(label(shape, open, closed));
      expectReplays(model, shape, 0xfa0000 + shape.first * 7 + shape.second,
                    [&](std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) {
                      reference::iidSample(rows, cols, open, closed, rng, out);
                    });
    }
  }
}

TEST(IidBernoulliIdentity, BlocksReplayThePerBitLoop) {
  // Every block size up to the model's width, so the scalar instance
  // (k = 1) and every count of active lanes run, and one past it, which
  // runs as a full block and a one-sample tail.
  for (const auto& [open, closed] : ratePairs()) {
    const IidBernoulli model(open, closed);
    ASSERT_GE(model.blockWidth(), 4u);
    for (const Shape& shape : shapes()) {
      SCOPED_TRACE(label(shape, open, closed));
      for (std::size_t k = 1; k <= model.blockWidth() + 1; ++k)
        expectBlockReplays(model, shape, 0xb10c000 + shape.first * 7 + shape.second, k,
                           [&](std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) {
                             reference::iidSample(rows, cols, open, closed, rng, out);
                           });
    }
  }
}

TEST(IidBernoulliIdentity, BlockLanesDecideTheThresholdEdge) {
  // A rate of exactly k * 2^-53, where k = x >> 11 of a lane's first draw x,
  // puts that crosspoint on the threshold: it must fail, and pass one step
  // up. Random rates almost never land on a draw's edge, so each lane in
  // turn gets it here, on the open and on the summed threshold.
  constexpr std::uint64_t kSeed = 0xed6e;
  const std::size_t width = IidBernoulli(0.1).blockWidth();
  Rng root(kSeed);
  for (std::size_t lane = 0; lane < width; ++lane) {
    Rng first = root.split();
    const std::uint64_t k = first() >> 11;
    for (const std::uint64_t t : {k, k + 1}) {
      const double p = static_cast<double>(t) * 0x1.0p-53;
      for (const auto& [open, closed] : {std::pair{p, 0.0}, std::pair{0.0, p}}) {
        SCOPED_TRACE("lane " + std::to_string(lane) + " t=k+" + std::to_string(t - k) +
                     (open > 0 ? " open" : " closed"));
        expectBlockReplays(IidBernoulli(open, closed), {1, 64}, kSeed, width,
                           [&](std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) {
                             reference::iidSample(rows, cols, open, closed, rng, out);
                           });
      }
    }
  }
}

TEST(IidBernoulliIdentity, SparseBlocksReplayTheirRegime) {
  // Above the cutoff the sparse model forwards blocks to the dense sweep;
  // below it the width is 1 and a block is a loop over the placement.
  for (const auto& [open, closed] : {std::pair{0.3, 0.0}, std::pair{0.2, 0.1},
                                     std::pair{0.0, 0.3}, std::pair{0.9, 0.1}}) {
    const SparseIidBernoulli model(open, closed);
    EXPECT_EQ(model.blockWidth(), IidBernoulli(open, closed).blockWidth());
    for (const Shape& shape : shapes()) {
      SCOPED_TRACE(label(shape, open, closed));
      for (std::size_t k = 1; k <= model.blockWidth(); ++k)
        expectBlockReplays(model, shape, 0xfb0000 + shape.first * 7 + shape.second, k,
                           [&](std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) {
                             reference::iidSample(rows, cols, open, closed, rng, out);
                           });
    }
  }
  for (const auto& [open, closed] : {std::pair{0.1, 0.0}, std::pair{0.1, 0.1},
                                     std::pair{0.0, 0.25}}) {
    const SparseIidBernoulli model(open, closed);
    EXPECT_EQ(model.blockWidth(), 1u) << "open=" << open << " closed=" << closed;
    for (const Shape& shape : shapes()) {
      SCOPED_TRACE(label(shape, open, closed));
      expectBlockReplays(model, shape, 0x5b0000 + shape.first * 7 + shape.second, 3,
                         [&](std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) {
                           reference::sparseIidSample(rows, cols, open, closed, rng, out);
                         });
    }
  }
}

}  // namespace
}  // namespace mcx
