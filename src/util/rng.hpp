// Deterministic, seedable random number generation (xoshiro256**).
//
// All Monte Carlo experiments in the library take an explicit Rng so runs
// are reproducible; std::mt19937 is avoided because its streams differ
// between standard library implementations for some distribution types.
#pragma once

#include <bit>
#include <cmath>
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

/// `uniform() < p` decided on the raw 64-bit draw, with no conversion to
/// double: the dense i.i.d. sweep's per-crosspoint test and the sparse
/// sampler's type draw. Exact for every double p:
///   - uniform() is k * 2^-53 with k = x >> 11 < 2^53, and that product is
///     exact (k fits the 53-bit mantissa; scaling by a power of two never
///     rounds), as is p * 2^53. So uniform() < p  <=>  k < p * 2^53, and
///     for an integer k that is k < T with T = ceil(p * 2^53), an integer
///     in [0, 2^53] for p in [0, 1].
///   - k < T  <=>  x < T * 2^11: the 11 bits the shift drops cannot lift
///     floor(x / 2^11) to T. The pre-shifted limit saves the shift.
/// T * 2^11 overflows 64 bits only at T = 2^53, i.e. p = 1 (the double
/// below 1, 1 - 2^-53, gives T = 2^53 - 1); that edge is the `always` flag,
/// which every draw passes. p <= 0 (and NaN) gives T = 0, which none does.
struct UniformThreshold {
  std::uint64_t limit = 0;  ///< T * 2^11; 0 when `always`
  bool always = false;      ///< p >= 1: T * 2^11 would wrap to 0

  explicit UniformThreshold(double p) {
    if (p >= 1.0)
      always = true;
    else if (p > 0.0)
      limit = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53)) << 11;
  }

  /// Exactly `uniform() < p` for the draw @p x. Branch-free.
  bool passes(std::uint64_t x) const { return (x < limit) | always; }
};

}  // namespace mcx
