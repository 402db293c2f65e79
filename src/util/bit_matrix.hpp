// BitMatrix: a dense rows x cols bit matrix with word-aligned rows.
//
// Rows are stored contiguously and padded to a word boundary so that
// row-level subset tests (the inner loop of crossbar row matching) operate
// on whole 64-bit words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mcx {

class BitMatrix {
public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  BitMatrix() = default;
  BitMatrix(std::size_t rows, std::size_t cols, bool value = false);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  // Inline: per-bit access shows up in the mappers' per-sample loops
  // (phase-2 sub-adjacency extraction, defect placement).
  bool test(std::size_t r, std::size_t c) const {
    checkBit(r, c);
    return (w_[r * wordsPerRow_ + c / kWordBits] >> (c % kWordBits)) & 1u;
  }
  void set(std::size_t r, std::size_t c) {
    checkBit(r, c);
    w_[r * wordsPerRow_ + c / kWordBits] |= Word{1} << (c % kWordBits);
  }
  void set(std::size_t r, std::size_t c, bool value) { value ? set(r, c) : reset(r, c); }
  void reset(std::size_t r, std::size_t c) {
    checkBit(r, c);
    w_[r * wordsPerRow_ + c / kWordBits] &= ~(Word{1} << (c % kWordBits));
  }

  void setRow(std::size_t r, bool value);
  void setCol(std::size_t c, bool value);

  /// Set or clear every bit, keeping the dimensions.
  void fill(bool value);
  /// Resize to rows x cols with every bit set to @p value, reusing the
  /// existing allocation when possible (scratch-arena reuse in the Monte
  /// Carlo engine).
  void reshape(std::size_t rows, std::size_t cols, bool value = false);

  /// Number of set bits in the whole matrix.
  std::size_t count() const;
  /// Number of set bits in row @p r.
  std::size_t rowCount(std::size_t r) const;
  /// Number of set bits in column @p c.
  std::size_t colCount(std::size_t c) const;

  /// True iff every set bit of row @p r is also set in row @p r2 of @p o.
  /// This is the crossbar matching rule: a "required" pattern row fits a
  /// "capability" row.
  bool rowSubsetOf(std::size_t r, const BitMatrix& o, std::size_t r2) const;

  // Inline: these sit under every hot loop (row matching, adjacency
  // derivation, sparse sampling), where an out-of-line call per row access
  // is measurable.
  std::span<const Word> rowWords(std::size_t r) const {
    checkRow(r);
    return {w_.data() + r * wordsPerRow_, wordsPerRow_};
  }
  std::span<Word> rowWords(std::size_t r) {
    checkRow(r);
    return {w_.data() + r * wordsPerRow_, wordsPerRow_};
  }

  bool operator==(const BitMatrix& o) const = default;

  /// Multi-line string; '1' for set, '.' for clear (readable layouts).
  std::string toString(char zero = '.', char one = '1') const;

  /// Transpose @p src into this matrix (reshaped to cols x rows), via
  /// word-parallel 64x64 block transposes — O(area/64 log 64) word ops, the
  /// per-sample first step of the candidate-adjacency kernel
  /// (map/matching.hpp).
  void assignTransposed(const BitMatrix& src);

  /// Mask selecting the valid bits of a row's last word when a row of
  /// @p bits columns is stored LSB-first in 64-bit words (~0 when the row
  /// ends exactly on a word boundary). The single home of the tail-mask
  /// idiom for every word-parallel kernel over row-major bit data.
  static constexpr Word tailMask(std::size_t bits) {
    const std::size_t rem = bits % kWordBits;
    return rem == 0 ? ~Word{0} : (Word{1} << rem) - 1;
  }

private:
  // Inline happy-path checks: only the [[noreturn]] throw inside
  // MCX_REQUIRE is out of line.
  void checkRow(std::size_t r) const {
    MCX_REQUIRE(r < rows_, "BitMatrix::rowWords out of range");
  }
  void checkBit(std::size_t r, std::size_t c) const {
    MCX_REQUIRE(r < rows_ && c < cols_, "BitMatrix: bit access out of range");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t wordsPerRow_ = 0;
  std::vector<Word> w_;
};

}  // namespace mcx
