#include "util/bit_matrix.hpp"

#include <algorithm>
#include <bit>

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

/// In-place 64x64 bit-block transpose (Hacker's Delight fig. 7-3 scaled
/// from 32 to 64 and flipped to this codebase's LSB-first convention):
/// element (k, b) is bit b of x[k].
void transpose64(BitMatrix::Word x[64]) {
  using Word = BitMatrix::Word;
  Word m = 0x00000000FFFFFFFFull;
  for (std::size_t j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const Word t = ((x[k] >> j) ^ x[k | j]) & m;
      x[k] ^= t << j;
      x[k | j] ^= t;
    }
  }
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
