// Stream identity of the sparse i.i.d. sampler: the one-draw-per-site
// placement loop must consume the generator exactly as the half-buffered
// loop it replaced (reference::sparseIidSample, tests/oracles): every
// coordinate is an exact Lemire reduction of the next 32-bit half of the
// raw stream, and a mixed-rate type uniform is a whole draw.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "oracles/iid_reference.hpp"
#include "scenario/defect_model.hpp"
#include "util/rng.hpp"
#include "xbar/defects.hpp"

namespace mcx {
namespace {

/// Runs @p samples consecutive samples through the model and the reference
/// on twin streams; returns the reference's total rejections.
std::size_t expectStreamIdentical(std::size_t rows, std::size_t cols, double open,
                                  double closed, std::size_t samples) {
  const SparseIidBernoulli model(open, closed);
  Rng rng(0x5eed0000 + rows * 7 + cols), ref = rng;
  DefectMap got, want;
  std::size_t rejections = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) + " open=" +
                 std::to_string(open) + " closed=" + std::to_string(closed) +
                 " sample " + std::to_string(s));
    model.generate(rows, cols, rng, got);
    rejections += reference::sparseIidSample(rows, cols, open, closed, ref, want);
    EXPECT_EQ(got.openBits(), want.openBits());
    EXPECT_EQ(got.closedBits(), want.closedBits());
    Rng probeGot = rng, probeWant = ref;
    EXPECT_EQ(probeGot(), probeWant());
    if (::testing::Test::HasFailure()) break;
  }
  return rejections;
}

struct Rates {
  double open, closed;
};

TEST(SparseStreamIdentity, MatchesHalfBufferedReferenceOnCrossbarShapes) {
  for (const Rates rates : {Rates{0.10, 0.0}, Rates{0.0, 0.10}, Rates{0.09, 0.01}}) {
    expectStreamIdentical(289, 299, rates.open, rates.closed, 40);
    expectStreamIdentical(33, 55, rates.open, rates.closed, 200);
  }
}

// 2^32 mod 40000 = 7296, so a 40000-line reduction rejects one half in
// ~590k and about 2.7% of these 16000-defect samples shift the stream:
// the tall shape rejects rows, the wide one columns — both hand-offs.
TEST(SparseStreamIdentity, MatchesReferenceAcrossLemireRejections) {
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{40000, 2}, {2, 40000}}) {
    std::size_t rejections = 0;
    for (const Rates rates : {Rates{0.20, 0.0}, Rates{0.0, 0.20}, Rates{0.18, 0.02}})
      rejections += expectStreamIdentical(rows, cols, rates.open, rates.closed, 150);
    EXPECT_GT(rejections, 0u) << rows << "x" << cols << " never exercised the hand-off";
  }
}

}  // namespace
}  // namespace mcx
