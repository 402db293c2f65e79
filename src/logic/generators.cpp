#include "logic/generators.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace mcx {

namespace {

// One word of each of kLanes cubes, side by side in a GCC/Clang vector: one
// zmm register under AVX-512, two ymm under AVX2, four SSE2 registers on
// generic x86-64.
constexpr std::size_t kLanes = 8;
typedef DynBits::Word Lanes __attribute__((vector_size(kLanes * sizeof(DynBits::Word))));

}  // namespace

Cover randomSop(const RandomSopOptions& opts, Rng& rng) {
  MCX_REQUIRE(opts.nin > 0 && opts.nout > 0 && opts.products > 0, "randomSop: empty shape");
  const double litTarget = std::clamp(opts.literalsPerProduct, 1.0, double(opts.nin));
  // There are only 3^nin - 1 distinct non-universal cubes; clamp the request
  // so generation terminates at small arity.
  std::size_t products = opts.products;
  if (opts.nin < 12) {
    std::size_t space = 1;
    for (std::size_t i = 0; i < opts.nin; ++i) space *= 3;
    products = std::min(products, space - 1);
  }
  Cover cover(opts.nin, opts.nout);
  std::size_t guard = 0;
  // Small aritys cannot always supply `products` pairwise-incomparable
  // cubes (antichain limits); after enough rejected draws fall back to
  // merely distinct cubes so generation always terminates.
  const std::size_t relaxAfter = products * 50 + 500;
  // The accepted cubes' words (inputs, then outputs) in blocks of kLanes
  // cubes: word k of cube i sits at [(i - i % kLanes) * stride + k * kLanes
  // + i % kLanes], so the irredundancy check is one pass over this flat
  // array, kLanes cubes per step.
  const std::size_t stride = DynBits::wordsFor(2 * opts.nin) + DynBits::wordsFor(opts.nout);
  std::vector<DynBits::Word> accepted;
  std::vector<DynBits::Word> candidate(stride);
  while (cover.size() < products) {
    const bool requireIrredundant = opts.irredundant && guard < relaxAfter;
    // At saturated small aritys (e.g. 2 variables with a literal target of
    // 2) fewer distinct cubes are reachable than requested; return a best
    // effort cover rather than spinning forever.
    if (++guard >= products * 400 + 4000) break;
    Cube c(opts.nin, opts.nout);
    // Choose each variable as a literal with probability litTarget/nin,
    // guaranteeing at least one literal. A heavy-literal draw produces a
    // full minterm.
    const double cubeLitTarget =
        rng.bernoulli(opts.heavyLiteralFraction) ? double(opts.nin) : litTarget;
    std::size_t lits = 0;
    for (std::size_t v = 0; v < opts.nin; ++v) {
      if (rng.bernoulli(cubeLitTarget / double(opts.nin))) {
        c.setLit(v, rng.bernoulli(0.5) ? Lit::Pos : Lit::Neg);
        ++lits;
      }
    }
    if (lits == 0) {
      const auto v = static_cast<std::size_t>(rng.uniformInt(0, opts.nin - 1));
      c.setLit(v, rng.bernoulli(0.5) ? Lit::Pos : Lit::Neg);
    }
    // Assign at least one output; heavy-output draws share widely.
    double outTarget = std::clamp(opts.outputsPerProduct, 1.0, double(opts.nout));
    if (rng.bernoulli(opts.heavyOutputFraction))
      outTarget = std::clamp(opts.heavyOutputsPerProduct, 1.0, double(opts.nout));
    for (std::size_t o = 0; o < opts.nout; ++o)
      if (rng.bernoulli(outTarget / double(opts.nout))) c.setOut(o);
    if (c.outputBits().none())
      c.setOut(static_cast<std::size_t>(rng.uniformInt(0, opts.nout - 1)));

    // d contains c iff no word of c has a bit outside d's (inputs and
    // outputs alike), c contains d iff the reverse, and they are equal iff
    // both hold.
    const auto cIn = c.inputBits().words();
    const auto cOut = c.outputBits().words();
    std::copy(cIn.begin(), cIn.end(), candidate.begin());
    std::copy(cOut.begin(), cOut.end(), candidate.begin() + cIn.size());
    const std::size_t n = cover.size();
    bool rejected = false;
    for (std::size_t first = 0; first < n && !rejected; first += kLanes) {
      const DynBits::Word* block = accepted.data() + first * stride;
      Lanes cOutsideD{};
      Lanes dOutsideC{};
      for (std::size_t k = 0; k < stride; ++k, block += kLanes) {
        Lanes d;
        std::memcpy(&d, block, sizeof d);
        cOutsideD |= candidate[k] & ~d;
        dOutsideC |= d & ~candidate[k];
      }
      const auto hit = requireIrredundant ? ((cOutsideD == 0) | (dOutsideC == 0))
                                          : ((cOutsideD | dOutsideC) == 0);
      DynBits::Word lanes[kLanes];
      std::memcpy(lanes, &hit, sizeof lanes);
      // Lanes past the last accepted cube hold zero words, not cubes.
      for (std::size_t l = 0; l < std::min(kLanes, n - first); ++l) rejected |= lanes[l] != 0;
    }
    if (rejected) continue;
    const std::size_t lane = n % kLanes;
    if (lane == 0) accepted.resize(accepted.size() + kLanes * stride);
    DynBits::Word* const slot = accepted.data() + (n - lane) * stride + lane;
    for (std::size_t k = 0; k < stride; ++k) slot[k * kLanes] = candidate[k];
    cover.add(std::move(c));
  }
  return cover;
}

TruthTable weightFunction(std::size_t n) {
  MCX_REQUIRE(n >= 1 && n <= 20, "weightFunction: 1..20 inputs");
  std::size_t nout = 0;
  while ((std::size_t{1} << nout) < n + 1) ++nout;
  return TruthTable::fromFunction(n, nout, [](std::size_t m, std::size_t o) {
    const auto w = static_cast<std::size_t>(std::popcount(static_cast<unsigned long long>(m)));
    return ((w >> o) & 1u) != 0;
  });
}

TruthTable sqrtFunction(std::size_t bits) {
  MCX_REQUIRE(bits >= 2 && bits <= 20, "sqrtFunction: 2..20 inputs");
  const std::size_t nout = (bits + 1) / 2;
  return TruthTable::fromFunction(bits, nout, [](std::size_t m, std::size_t o) {
    std::size_t r = 0;
    while ((r + 1) * (r + 1) <= m) ++r;
    return ((r >> o) & 1u) != 0;
  });
}

TruthTable parityFunction(std::size_t n) {
  MCX_REQUIRE(n >= 1 && n <= 20, "parityFunction: 1..20 inputs");
  return TruthTable::fromFunction(n, 1, [](std::size_t m, std::size_t) {
    return (std::popcount(static_cast<unsigned long long>(m)) & 1) != 0;
  });
}

TruthTable majorityFunction(std::size_t n) {
  MCX_REQUIRE(n >= 1 && n <= 20, "majorityFunction: 1..20 inputs");
  return TruthTable::fromFunction(n, 1, [n](std::size_t m, std::size_t) {
    return static_cast<std::size_t>(std::popcount(static_cast<unsigned long long>(m))) * 2 > n;
  });
}

TruthTable adderFunction(std::size_t bits) {
  MCX_REQUIRE(bits >= 1 && bits <= 10, "adderFunction: 1..10 bits per operand");
  return TruthTable::fromFunction(2 * bits, bits + 1, [bits](std::size_t m, std::size_t o) {
    const std::size_t a = m & ((std::size_t{1} << bits) - 1);
    const std::size_t b = m >> bits;
    return (((a + b) >> o) & 1u) != 0;
  });
}

TruthTable nnLayerFunction(std::size_t nin, std::size_t nout) {
  MCX_REQUIRE(nin >= 1 && nin <= 16, "nnLayerFunction: 1..16 inputs");
  MCX_REQUIRE(nout >= 1 && nout <= 16, "nnLayerFunction: 1..16 outputs");
  // The weight matrix is part of the function's identity: derive it from a
  // fixed-seed stream keyed on (nin, nout) so gen:nn-8x4 names one function
  // forever (committed bench artifacts depend on it).
  Rng rng(0x6e6eull * 1000003ull + nin * 131ull + nout);
  std::vector<int> weights(nout * nin);
  for (std::size_t o = 0; o < nout; ++o)
    for (std::size_t i = 0; i < nin; ++i)
      weights[o * nin + i] = rng.bernoulli(0.5) ? 1 : -1;
  return TruthTable::fromFunction(nin, nout, [nin, &weights](std::size_t m, std::size_t o) {
    int sum = 0;
    for (std::size_t i = 0; i < nin; ++i) {
      const int x = ((m >> i) & 1u) != 0 ? 1 : -1;  // bipolar input encoding
      sum += weights[o * nin + i] * x;
    }
    return sum > 0;
  });
}

}  // namespace mcx
