#include "util/bit_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace mcx {

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols, bool value)
    : rows_(rows),
      cols_(cols),
      wordsPerRow_((cols + kWordBits - 1) / kWordBits),
      w_(rows * wordsPerRow_, value ? ~Word{0} : Word{0}) {
  if (value && wordsPerRow_ > 0) {
    const Word mask = tailMask(cols_);
    for (std::size_t r = 0; r < rows_; ++r) w_[r * wordsPerRow_ + wordsPerRow_ - 1] &= mask;
  }
}

void BitMatrix::setRow(std::size_t r, bool value) {
  MCX_REQUIRE(r < rows_, "BitMatrix::setRow out of range");
  const auto words = rowWords(r);
  if (!value) {
    for (Word& w : words) w = 0;
    return;
  }
  for (Word& w : words) w = ~Word{0};
  if (wordsPerRow_ > 0) words[wordsPerRow_ - 1] &= tailMask(cols_);
}

void BitMatrix::setCol(std::size_t c, bool value) {
  MCX_REQUIRE(c < cols_, "BitMatrix::setCol out of range");
  const std::size_t word = c / kWordBits;
  const Word mask = Word{1} << (c % kWordBits);
  Word* p = w_.data() + word;
  if (value) {
    for (std::size_t r = 0; r < rows_; ++r, p += wordsPerRow_) *p |= mask;
  } else {
    for (std::size_t r = 0; r < rows_; ++r, p += wordsPerRow_) *p &= ~mask;
  }
}

void BitMatrix::fill(bool value) {
  std::fill(w_.begin(), w_.end(), value ? ~Word{0} : Word{0});
  if (value && wordsPerRow_ > 0) {
    const Word mask = tailMask(cols_);
    for (std::size_t r = 0; r < rows_; ++r) w_[r * wordsPerRow_ + wordsPerRow_ - 1] &= mask;
  }
}

void BitMatrix::reshape(std::size_t rows, std::size_t cols, bool value) {
  rows_ = rows;
  cols_ = cols;
  wordsPerRow_ = (cols + kWordBits - 1) / kWordBits;
  w_.assign(rows * wordsPerRow_, 0);  // assign() reuses the existing allocation
  if (value) fill(true);
}

std::size_t BitMatrix::count() const {
  std::size_t n = 0;
  for (Word w : w_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

std::size_t BitMatrix::colCount(std::size_t c) const {
  std::size_t n = 0;
  for (std::size_t r = 0; r < rows_; ++r) n += test(r, c) ? 1 : 0;
  return n;
}

bool BitMatrix::rowSubsetOf(std::size_t r, const BitMatrix& o, std::size_t r2) const {
  MCX_REQUIRE(cols_ == o.cols_, "BitMatrix::rowSubsetOf column mismatch");
  const auto a = rowWords(r);
  const auto b = o.rowWords(r2);
  for (std::size_t i = 0; i < a.size(); ++i)
    if ((a[i] & ~b[i]) != 0) return false;
  return true;
}

namespace {

using Word = BitMatrix::Word;
// Four words in one GCC/Clang vector: one 256-bit register where AVX2 is
// enabled (-march=native), a pair of SSE2 registers on generic x86-64.
// Vectors never cross a call boundary here (no -Wpsabi ABI note without
// AVX).
using Quad = Word __attribute__((vector_size(32)));

/// Butterfly stage J >= 4 of transpose64: word k pairs with word k | J,
/// i.e. quad q with quad q | J/4, whole quads at a time.
template <std::size_t J>
void quadStage(Quad (&v)[16]) {
  constexpr Word m = J == 32 ? 0x00000000FFFFFFFFull
                   : J == 16 ? 0x0000FFFF0000FFFFull
                   : J == 8  ? 0x00FF00FF00FF00FFull
                             : 0x0F0F0F0F0F0F0F0Full;
  constexpr std::size_t s = J / 4;
  for (std::size_t q0 = 0; q0 < 16; q0 += 2 * s) {
    for (std::size_t q = q0; q < q0 + s; ++q) {
      const Quad t = ((v[q] >> J) ^ v[q + s]) & m;
      v[q] ^= t << J;
      v[q + s] ^= t;
    }
  }
}

/// In-place 64x64 bit-block transpose (Hacker's Delight fig. 7-3 scaled
/// from 32 to 64 and flipped to this codebase's LSB-first convention):
/// element (k, b) is bit b of x[k]. The block lives in 16 quads: stages 32
/// to 4 pair whole quads, stages 2 and 1 pair lanes within each quad (the
/// low lane computes t, a lane shuffle hands it to its partner).
void transpose64(Word x[64]) {
  Quad v[16];
  std::memcpy(v, x, sizeof v);
  quadStage<32>(v);
  quadStage<16>(v);
  quadStage<8>(v);
  quadStage<4>(v);
  constexpr Word m2 = 0x3333333333333333ull, m1 = 0x5555555555555555ull;
  constexpr Quad low2 = {m2, m2, 0, 0}, low1 = {m1, 0, m1, 0};
  for (Quad& q : v) {
    const Quad t = ((q >> 2) ^ __builtin_shufflevector(q, q, 2, 3, 0, 1)) & low2;
    q ^= (t << 2) | __builtin_shufflevector(t, t, 2, 3, 0, 1);
  }
  for (Quad& q : v) {
    const Quad t = ((q >> 1) ^ __builtin_shufflevector(q, q, 1, 0, 3, 2)) & low1;
    q ^= (t << 1) | __builtin_shufflevector(t, t, 1, 0, 3, 2);
  }
  std::memcpy(x, v, sizeof v);
}

}  // namespace

void BitMatrix::assignTransposed(const BitMatrix& src) {
  MCX_REQUIRE(this != &src, "BitMatrix::assignTransposed: cannot transpose in place");
  reshape(src.cols(), src.rows());
  if (src.rows() == 0 || src.cols() == 0) return;
  const std::size_t srcWords = src.wordsPerRow_;
  const Word* const srcBase = src.w_.data();
  Word* const dstBase = w_.data();
  Word block[kWordBits];
  for (std::size_t r0 = 0; r0 < src.rows(); r0 += kWordBits) {
    const std::size_t blockRows = std::min(kWordBits, src.rows() - r0);
    for (std::size_t w = 0; w < srcWords; ++w) {
      for (std::size_t k = 0; k < blockRows; ++k) block[k] = srcBase[(r0 + k) * srcWords + w];
      for (std::size_t k = blockRows; k < kWordBits; ++k) block[k] = 0;
      transpose64(block);
      const std::size_t c0 = w * kWordBits;
      const std::size_t blockCols = std::min(kWordBits, src.cols() - c0);
      for (std::size_t k = 0; k < blockCols; ++k)
        dstBase[(c0 + k) * wordsPerRow_ + r0 / kWordBits] = block[k];
    }
  }
}

std::string BitMatrix::toString(char zero, char one) const {
  std::string s;
  s.reserve(rows_ * (cols_ + 1));
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) s.push_back(test(r, c) ? one : zero);
    s.push_back('\n');
  }
  return s;
}

}  // namespace mcx
