// Deterministic, seedable random number generation (xoshiro256**).
//
// All Monte Carlo experiments in the library take an explicit Rng so runs
// are reproducible; std::mt19937 is avoided because its streams differ
// between standard library implementations for some distribution types.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace mcx {

template <std::size_t L>
class RngLanes;

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
  template <std::size_t L>
  friend class RngLanes;

  std::uint64_t s_[4];
};

namespace detail {
/// L 64-bit lanes: a GCC/Clang vector for L > 1, a plain word for L = 1.
/// A class template because GCC drops a vector_size attribute that depends
/// on an alias template's own parameter.
template <std::size_t L>
struct WordLanes {
  typedef std::uint64_t type __attribute__((vector_size(L * sizeof(std::uint64_t))));
};
template <>
struct WordLanes<1> {
  using type = std::uint64_t;
};
}  // namespace detail

/// Up to L xoshiro256** streams stepped together, one per 64-bit vector
/// lane: each step gives lane i exactly the draw its Rng's operator() would,
/// so a block of samples on independent streams draws side by side instead
/// of waiting on one stream's serial state chain. Lanes hold copies; the
/// streams advance only through storeTo(). Vectors never cross a call
/// boundary: next() fills a reference, because passing one by value
/// changes the ABI on targets without the matching vector extension
/// (-Wpsabi).
template <std::size_t L>
class RngLanes {
public:
  using Lanes = typename detail::WordLanes<L>::type;

  /// Lane i runs a copy of streams[i] for i < k <= L; the other lanes run
  /// the all-zero state, which draws zeros.
  RngLanes(const Rng* streams, std::size_t k) {
    for (std::size_t j = 0; j < 4; ++j) {
      std::uint64_t words[L] = {};
      for (std::size_t i = 0; i < k; ++i) words[i] = streams[i].s_[j];
      std::memcpy(&s_[j], words, sizeof words);
    }
  }

  /// Write lanes [0, k) back to streams[0, k): each stream then stands
  /// where it would after drawing as often as the lanes stepped.
  void storeTo(Rng* streams, std::size_t k) const {
    for (std::size_t j = 0; j < 4; ++j) {
      std::uint64_t words[L];
      std::memcpy(words, &s_[j], sizeof words);
      for (std::size_t i = 0; i < k; ++i) streams[i].s_[j] = words[i];
    }
  }

  /// One draw per lane, into @p out: Rng::operator() lane-wise, with the
  /// multiplications by 5 and 9 as shift-adds (no 64-bit vector multiply
  /// below AVX-512) and the rotations as shift pairs.
  void next(Lanes& out) {
    const Lanes m = (s_[1] << 2) + s_[1];
    const Lanes r = (m << 7) | (m >> 57);
    out = (r << 3) + r;
    const Lanes t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = (s_[3] << 45) | (s_[3] >> 19);
  }

private:
  Lanes s_[4];
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
