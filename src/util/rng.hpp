// Deterministic, seedable random number generation (xoshiro256**).
//
// All Monte Carlo experiments in the library take an explicit Rng so runs
// are reproducible; std::mt19937 is avoided because its streams differ
// between standard library implementations for some distribution types.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace mcx {

class Rng {
public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Raw 64 random bits. Inline: the sparse sampler's placement loop takes
  /// one draw per candidate site, and an out-of-line call costs more than
  /// the draw itself.
  std::uint64_t operator()() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1): 53 random mantissa bits.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);
  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exact Binomial(n, p) draw from a single uniform: the number of
  /// successes in n independent Bernoulli(p) trials, without performing the
  /// trials. Inverts the CDF by chopping probability mass outward from the
  /// mode, so the cost is O(stddev) — the O(defects) sampling fast path
  /// draws its defect count with this instead of one uniform per crosspoint.
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniformInt(0, i - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream (for per-sample seeding).
  Rng split();

private:
  std::uint64_t s_[4];
};

}  // namespace mcx
