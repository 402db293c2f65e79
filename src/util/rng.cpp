#include "util/rng.hpp"

#include <cmath>

namespace mcx {

namespace {
// splitmix64: used to expand the user seed into xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// std::lgamma stores its sign result in the libm global `signgam`, so
// concurrent per-worker samplers race on it (TSan-visible). The reentrant
// variant returns the bit-identical value without touching shared state.
double logGamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::uniformInt(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t range = hi - lo + 1;  // hi == max is not used in practice
  if (range == 0) return (*this)();
  // Lemire's rejection method for unbiased bounded integers.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto l = static_cast<std::uint64_t>(m);
  if (l < range) {
    const std::uint64_t t = (0 - range) % range;
    while (l < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * range;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const double nd = static_cast<double>(n);
  // PMF at the mode via log-gamma (never underflows: the mode's mass is
  // ~1/stddev), then multiplicative recurrences towards both tails.
  std::uint64_t mode = static_cast<std::uint64_t>((nd + 1.0) * p);
  if (mode > n) mode = n;
  const double md = static_cast<double>(mode);
  const double logPm = logGamma(nd + 1.0) - logGamma(md + 1.0) -
                       logGamma(nd - md + 1.0) + md * std::log(p) +
                       (nd - md) * std::log1p(-p);
  const double pMode = std::exp(logPm);
  const double odds = p / (1.0 - p);

  // Invert a reordered CDF: subtract mass alternately above/below the mode
  // until the uniform is exhausted. Any fixed ordering of the outcomes is a
  // valid inversion; outward-from-the-mode keeps the expected walk short.
  double u = uniform() - pMode;
  if (u < 0.0) return mode;
  double massHi = pMode, massLo = pMode;
  std::uint64_t hi = mode, lo = mode;
  for (;;) {
    bool advanced = false;
    if (hi < n) {
      massHi *= (nd - static_cast<double>(hi)) / (static_cast<double>(hi) + 1.0) * odds;
      ++hi;
      u -= massHi;
      if (u < 0.0) return hi;
      advanced = true;
    }
    if (lo > 0) {
      massLo *= static_cast<double>(lo) / (nd - static_cast<double>(lo) + 1.0) / odds;
      --lo;
      u -= massLo;
      if (u < 0.0) return lo;
      advanced = true;
    }
    // Rounding can leave a sliver of u after all mass is consumed.
    if (!advanced) return mode;
  }
}

Rng Rng::split() { return Rng((*this)() ^ 0xd1b54a32d192ed03ull); }

}  // namespace mcx
