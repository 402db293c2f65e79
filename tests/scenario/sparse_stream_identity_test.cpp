// Stream identity of the sparse i.i.d. sampler: the one-draw-per-site
// placement loop must consume the generator exactly as the half-buffered
// loop it replaced. The reference below is that loop, kept verbatim in
// shape: every coordinate is an exact Lemire reduction of the next 32-bit
// half of the raw stream, and a mixed-rate type uniform is a whole draw.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "scenario/defect_model.hpp"
#include "util/rng.hpp"
#include "xbar/defects.hpp"

namespace mcx {
namespace {

/// Returns the number of Lemire rejections the sample took.
std::size_t referenceSample(std::size_t rows, std::size_t cols, double open, double closed,
                            Rng& rng, DefectMap& out) {
  out.reshape(rows, cols);
  const double total = open + closed;
  const std::uint64_t count = rng.binomial(
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols), total);
  const bool mixed = closed > 0.0 && open > 0.0;
  std::size_t rejections = 0;
  std::uint64_t buffered = 0;
  unsigned bufferedHalves = 0;
  const auto next32 = [&]() -> std::uint32_t {
    if (bufferedHalves == 0) {
      buffered = rng();
      bufferedHalves = 2;
    }
    const auto v = static_cast<std::uint32_t>(buffered);
    buffered >>= 32;
    --bufferedHalves;
    return v;
  };
  const auto lemire32 = [&](std::uint64_t n) -> std::size_t {
    const auto reject = static_cast<std::uint32_t>((std::uint64_t{1} << 32) % n);
    for (;;) {
      const std::uint64_t m = static_cast<std::uint64_t>(next32()) * n;
      if (static_cast<std::uint32_t>(m) >= reject) return static_cast<std::size_t>(m >> 32);
      ++rejections;
    }
  };
  for (std::uint64_t d = 0; d < count; ++d) {
    for (;;) {
      const std::size_t r = lemire32(rows);
      const std::size_t c = lemire32(cols);
      if (out.type(r, c) != DefectType::None) continue;
      DefectType t = DefectType::StuckOpen;
      if (open <= 0.0)
        t = DefectType::StuckClosed;
      else if (mixed && rng.uniform() < closed / total)
        t = DefectType::StuckClosed;
      out.setType(r, c, t);
      break;
    }
  }
  return rejections;
}

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
    rejections += referenceSample(rows, cols, open, closed, ref, want);
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
