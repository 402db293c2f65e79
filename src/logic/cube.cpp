#include "logic/cube.hpp"

#include <bit>

#include "util/error.hpp"

namespace mcx {

namespace {
// Mask selecting the "neg" bits (even positions) of each 64-bit word.
constexpr DynBits::Word kNegMask = 0x5555555555555555ull;
}  // namespace

Cube::Cube(std::size_t nin, std::size_t nout) : nin_(nin), in_(2 * nin, true), out_(nout) {}

Lit Cube::lit(std::size_t var) const {
  MCX_REQUIRE(var < nin_, "Cube::lit out of range");
  const unsigned neg = in_.test(2 * var) ? 1u : 0u;
  const unsigned pos = in_.test(2 * var + 1) ? 1u : 0u;
  return static_cast<Lit>(neg | (pos << 1));
}

void Cube::setLit(std::size_t var, Lit l) {
  MCX_REQUIRE(var < nin_, "Cube::setLit out of range");
  const auto v = static_cast<unsigned>(l);
  in_.set(2 * var, (v & 1u) != 0);
  in_.set(2 * var + 1, (v & 2u) != 0);
}

bool Cube::inputEmpty() const {
  // A variable pair is empty iff both its bits are clear. Tail bits beyond
  // 2*nin are always zero, so each word is checked only over its valid pairs.
  const auto words = in_.words();
  const std::size_t nPairs = nin_;
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    const DynBits::Word w = words[wi];
    DynBits::Word pairPresent = (w | (w >> 1)) & kNegMask;  // 1 in even slot if pair nonempty
    // Expected pairs in this word:
    const std::size_t firstPair = wi * 32;
    if (firstPair >= nPairs) break;
    const std::size_t pairsHere = std::min<std::size_t>(32, nPairs - firstPair);
    const DynBits::Word expect =
        pairsHere == 32 ? kNegMask : ((DynBits::Word{1} << (2 * pairsHere)) - 1) & kNegMask;
    if ((pairPresent & expect) != expect) return true;
  }
  return false;
}

std::size_t Cube::literalCount() const {
  // A variable contributes a literal iff its pair is 01 or 10 (exactly one
  // bit set), i.e. bits differ.
  std::size_t count = 0;
  const auto words = in_.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    const DynBits::Word w = words[wi];
    const DynBits::Word differs = (w ^ (w >> 1)) & kNegMask;
    count += static_cast<std::size_t>(std::popcount(differs));
  }
  return count;
}

bool Cube::inputIntersects(const Cube& o) const { return inputDistance(o) == 0; }

std::size_t Cube::inputDistance(const Cube& o) const {
  MCX_REQUIRE(nin_ == o.nin_, "Cube::inputDistance arity mismatch");
  std::size_t dist = 0;
  const auto a = in_.words();
  const auto b = o.in_.words();
  const std::size_t nPairs = nin_;
  for (std::size_t wi = 0; wi < a.size(); ++wi) {
    const DynBits::Word w = a[wi] & b[wi];
    DynBits::Word pairPresent = (w | (w >> 1)) & kNegMask;
    const std::size_t firstPair = wi * 32;
    if (firstPair >= nPairs) break;
    const std::size_t pairsHere = std::min<std::size_t>(32, nPairs - firstPair);
    const DynBits::Word expect =
        pairsHere == 32 ? kNegMask : ((DynBits::Word{1} << (2 * pairsHere)) - 1) & kNegMask;
    dist += static_cast<std::size_t>(std::popcount(expect & ~pairPresent));
  }
  return dist;
}

Cube Cube::intersect(const Cube& o) const {
  MCX_REQUIRE(nin_ == o.nin_ && nout() == o.nout(), "Cube::intersect shape mismatch");
  Cube r(*this);
  r.in_ &= o.in_;
  r.out_ &= o.out_;
  return r;
}

Cube Cube::supercubeWith(const Cube& o) const {
  MCX_REQUIRE(nin_ == o.nin_ && nout() == o.nout(), "Cube::supercubeWith shape mismatch");
  Cube r(*this);
  r.in_ |= o.in_;
  r.out_ |= o.out_;
  return r;
}

bool Cube::coversMinterm(const DynBits& assignment) const {
  MCX_REQUIRE(assignment.size() == nin_, "Cube::coversMinterm arity mismatch");
  for (std::size_t i = 0; i < nin_; ++i) {
    const bool value = assignment.test(i);
    if (!in_.test(2 * i + (value ? 1 : 0))) return false;
  }
  return true;
}

std::string Cube::inputString() const {
  std::string s(nin_, '-');
  for (std::size_t i = 0; i < nin_; ++i) {
    switch (lit(i)) {
      case Lit::Empty: s[i] = '?'; break;
      case Lit::Neg: s[i] = '0'; break;
      case Lit::Pos: s[i] = '1'; break;
      case Lit::DontCare: s[i] = '-'; break;
    }
  }
  return s;
}

std::string Cube::toPlaString() const {
  std::string s = inputString();
  s.push_back(' ');
  for (std::size_t o = 0; o < nout(); ++o) s.push_back(out(o) ? '1' : '0');
  return s;
}

}  // namespace mcx
