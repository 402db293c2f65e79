#include "logic/truth_table.hpp"

#include "util/error.hpp"

namespace mcx {

TruthTable::TruthTable(std::size_t nin, std::size_t nout) : nin_(nin), nout_(nout) {
  MCX_REQUIRE(nin <= 24, "TruthTable limited to 24 inputs");
  bits_.assign(nout, DynBits(std::size_t{1} << nin));
}

bool TruthTable::get(std::size_t output, std::size_t minterm) const {
  MCX_REQUIRE(output < nout_, "TruthTable::get output out of range");
  return bits_[output].test(minterm);
}

void TruthTable::set(std::size_t output, std::size_t minterm, bool value) {
  MCX_REQUIRE(output < nout_, "TruthTable::set output out of range");
  bits_[output].set(minterm, value);
}

const DynBits& TruthTable::bits(std::size_t output) const {
  MCX_REQUIRE(output < nout_, "TruthTable::bits output out of range");
  return bits_[output];
}

DynBits& TruthTable::bits(std::size_t output) {
  MCX_REQUIRE(output < nout_, "TruthTable::bits output out of range");
  return bits_[output];
}

std::size_t TruthTable::countOnes(std::size_t output) const { return bits(output).count(); }

TruthTable TruthTable::fromCover(const Cover& cover) {
  TruthTable tt(cover.nin(), cover.nout());
  for (const Cube& c : cover.cubes()) {
    if (c.inputEmpty()) continue;
    const DynBits cubeTT = ttOfCube(c);
    c.outputBits().forEachSet([&](std::size_t o) { tt.bits_[o] |= cubeTT; });
  }
  return tt;
}

TruthTable TruthTable::fromFunction(std::size_t nin, std::size_t nout,
                                    const std::function<bool(std::size_t, std::size_t)>& fn) {
  TruthTable tt(nin, nout);
  for (std::size_t m = 0; m < tt.numMinterms(); ++m)
    for (std::size_t o = 0; o < nout; ++o)
      if (fn(m, o)) tt.set(o, m);
  return tt;
}

TruthTable TruthTable::complemented() const {
  TruthTable tt(*this);
  for (auto& b : tt.bits_) b = ~b;
  return tt;
}

DynBits ttVarMask(std::size_t nin, std::size_t var) {
  MCX_REQUIRE(var < nin, "ttVarMask out of range");
  const std::size_t n = std::size_t{1} << nin;
  DynBits mask(n);
  if (var >= 6) {
    // Whole words alternate in blocks of 2^(var-6) words.
    const auto words = mask.mutableWords();
    const std::size_t block = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < words.size(); ++w)
      if ((w / block) & 1u) words[w] = ~DynBits::Word{0};
  } else {
    // Pattern repeats within each word.
    static constexpr DynBits::Word kPatterns[6] = {
        0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
        0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};
    for (auto& w : mask.mutableWords()) w = kPatterns[var];
  }
  // Trim tail bits for nin < 6.
  if (n < DynBits::kWordBits && !mask.mutableWords().empty())
    mask.mutableWords()[0] &= (DynBits::Word{1} << n) - 1;
  return mask;
}

namespace {

// Shift the set bits of f across the var axis: returns g with
// g(m | bit) = f(m) pattern movement. dir=true moves 0-side to 1-side.
DynBits ttShiftAcross(const DynBits& f, std::size_t nin, std::size_t var, bool toUpper) {
  const std::size_t n = std::size_t{1} << nin;
  DynBits r(n);
  const auto rw = r.mutableWords();
  const auto fw = f.words();
  if (var >= 6) {
    const std::size_t block = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < fw.size(); ++w) {
      const bool upper = ((w / block) & 1u) != 0;
      if (toUpper && !upper) rw[w + block] = fw[w];
      if (!toUpper && upper) rw[w - block] = fw[w];
    }
  } else {
    const unsigned shift = 1u << var;
    const DynBits::Word lowerHalf = ~ttVarMask(std::min<std::size_t>(nin, 6), var)
                                        .words()[0];  // pattern of var==0 positions
    for (std::size_t w = 0; w < fw.size(); ++w) {
      if (toUpper)
        rw[w] = (fw[w] & lowerHalf) << shift;
      else
        rw[w] = (fw[w] >> shift) & lowerHalf;
    }
    if (n < DynBits::kWordBits && !rw.empty()) rw[0] &= (DynBits::Word{1} << n) - 1;
  }
  return r;
}

}  // namespace

DynBits ttCofactor1(const DynBits& f, std::size_t nin, std::size_t var) {
  const DynBits mask = ttVarMask(nin, var);
  DynBits upper = f;
  upper &= mask;
  DynBits spread = ttShiftAcross(upper, nin, var, /*toUpper=*/false);
  spread |= upper;
  return spread;
}

DynBits ttCofactor0(const DynBits& f, std::size_t nin, std::size_t var) {
  const DynBits mask = ttVarMask(nin, var);
  DynBits lower = f;
  lower.andNot(mask);
  DynBits spread = ttShiftAcross(lower, nin, var, /*toUpper=*/true);
  spread |= lower;
  return spread;
}

DynBits ttOfCube(const Cube& cube) {
  const std::size_t nin = cube.nin();
  DynBits tt(std::size_t{1} << nin, true);
  for (std::size_t v = 0; v < nin; ++v) {
    switch (cube.lit(v)) {
      case Lit::DontCare: break;
      case Lit::Pos: tt &= ttVarMask(nin, v); break;
      case Lit::Neg: tt.andNot(ttVarMask(nin, v)); break;
      case Lit::Empty: return DynBits(std::size_t{1} << nin); // empty cube
    }
  }
  return tt;
}

DynBits ttOfCubes(const std::vector<Cube>& cubes, std::size_t nin) {
  DynBits tt(std::size_t{1} << nin);
  for (const Cube& c : cubes) tt |= ttOfCube(c);
  return tt;
}

}  // namespace mcx
